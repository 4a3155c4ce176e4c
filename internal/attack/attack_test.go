package attack

import (
	"math"
	"reflect"
	"testing"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
)

// fixture bundles a trained world for attack tests: a 12-day trace with the
// ADM trained on it.
type fixture struct {
	trace   *aras.Trace
	model   *adm.Model
	cost    *hvac.CostModel
	params  hvac.Params
	pricing hvac.Pricing
	ctrl    hvac.Controller
}

func newFixture(t testing.TB, houseName string, days int) *fixture {
	t.Helper()
	h := home.MustHouse(houseName)
	tr, err := aras.Generate(h, aras.GeneratorConfig{Days: days, Seed: 777})
	if err != nil {
		t.Fatal(err)
	}
	cfg := adm.Config{Algorithm: adm.KMeans, K: 24, Seed: 3}
	model, err := adm.Train(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := hvac.DefaultParams()
	pricing := hvac.DefaultPricing()
	return &fixture{
		trace:   tr,
		model:   model,
		cost:    hvac.NewCostModel(h, params, pricing),
		params:  params,
		pricing: pricing,
		ctrl:    &hvac.SHATTERController{Params: params},
	}
}

func (f *fixture) planner(cap Capability) *Planner {
	return &Planner{Trace: f.trace, Model: f.model, Cost: f.cost, Cap: cap, WindowLen: 10}
}

func TestCapabilityFull(t *testing.T) {
	h := home.MustHouse("A")
	c := Full(h)
	if !c.CanReport(0, 100, home.Bedroom, home.Kitchen) {
		t.Error("full capability should allow any report")
	}
	if !c.CanTrigger(0, 100) {
		t.Error("full capability should allow any trigger")
	}
}

func TestCapabilityTruthAlwaysAllowed(t *testing.T) {
	c := Capability{} // no access at all
	if !c.CanReport(0, 100, home.Bedroom, home.Bedroom) {
		t.Error("reporting the truth requires no access")
	}
	if c.CanReport(0, 100, home.Bedroom, home.Kitchen) {
		t.Error("no-access attacker cannot falsify")
	}
}

func TestCapabilityZoneRestriction(t *testing.T) {
	h := home.MustHouse("A")
	c := Full(h).WithZones(home.Bedroom, home.Livingroom)
	// Reporting Bedroom→Livingroom OK (both accessible).
	if !c.CanReport(0, 10, home.Bedroom, home.Livingroom) {
		t.Error("both-accessible report should pass")
	}
	// Kitchen sensors unreachable: cannot report into the kitchen...
	if c.CanReport(0, 10, home.Bedroom, home.Kitchen) {
		t.Error("report into inaccessible zone should fail")
	}
	// ...nor move someone who is really in the kitchen.
	if c.CanReport(0, 10, home.Kitchen, home.Bedroom) {
		t.Error("report out of inaccessible zone should fail")
	}
	// Outside needs no sensors.
	if !c.CanReport(0, 10, home.Bedroom, home.Outside) {
		t.Error("reporting Outside should only need actual-zone access")
	}
}

func TestCapabilitySlotRestriction(t *testing.T) {
	h := home.MustHouse("A")
	c := Full(h)
	c.SlotAllowed = func(slot int) bool { return slot >= 600 }
	if c.CanReport(0, 100, home.Bedroom, home.Kitchen) {
		t.Error("slot outside T^A should fail")
	}
	if !c.CanReport(0, 700, home.Bedroom, home.Kitchen) {
		t.Error("slot inside T^A should pass")
	}
	if c.CanTrigger(0, 100) {
		t.Error("trigger outside T^A should fail")
	}
}

func TestCapabilityOccupantRestriction(t *testing.T) {
	h := home.MustHouse("A")
	c := Full(h).WithOccupants(1)
	if c.CanReport(0, 100, home.Bedroom, home.Kitchen) {
		t.Error("occupant 0 stream not accessible")
	}
	if !c.CanReport(1, 100, home.Bedroom, home.Kitchen) {
		t.Error("occupant 1 stream accessible")
	}
}

func TestPlanRequiresModel(t *testing.T) {
	f := newFixture(t, "A", 6)
	pl := &Planner{Trace: f.trace, Cost: f.cost, Cap: Full(f.trace.House)}
	if _, err := pl.PlanSHATTER(); err == nil {
		t.Error("PlanSHATTER without model should error")
	}
	if _, err := pl.PlanGreedy(); err == nil {
		t.Error("PlanGreedy without model should error")
	}
}

func TestSHATTERPlanIncreasesCost(t *testing.T) {
	f := newFixture(t, "A", 8)
	pl := f.planner(Full(f.trace.House))
	plan, err := pl.PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	if plan.InjectedSlots(f.trace) == 0 {
		t.Fatal("SHATTER plan injected nothing")
	}
	imp, err := EvaluateImpact(f.trace, plan, f.model, f.ctrl, f.params, f.pricing, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if imp.ExtraCostUSD <= 0 {
		t.Fatalf("attack should raise cost, extra = %v", imp.ExtraCostUSD)
	}
}

func TestSHATTERPlanStealthyAgainstOwnModel(t *testing.T) {
	f := newFixture(t, "A", 8)
	pl := f.planner(Full(f.trace.House))
	plan, err := pl.PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	imp, err := EvaluateImpact(f.trace, plan, f.model, f.ctrl, f.params, f.pricing, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// With full knowledge (attacker model == defender model) the schedule
	// must be essentially undetectable.
	if imp.DetectionRate > 0.05 {
		t.Errorf("full-knowledge SHATTER detection rate = %v, want ~0", imp.DetectionRate)
	}
}

func TestSHATTERBeatsGreedy(t *testing.T) {
	f := newFixture(t, "A", 8)
	pl := f.planner(Full(f.trace.House))
	shatter, err := pl.PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := pl.PlanGreedy()
	if err != nil {
		t.Fatal(err)
	}
	impS, err := EvaluateImpact(f.trace, shatter, f.model, f.ctrl, f.params, f.pricing, EvalOptions{AbortDetectedDays: true})
	if err != nil {
		t.Fatal(err)
	}
	impG, err := EvaluateImpact(f.trace, greedy, f.model, f.ctrl, f.params, f.pricing, EvalOptions{AbortDetectedDays: true})
	if err != nil {
		t.Fatal(err)
	}
	if impS.Attacked.TotalCostUSD < impG.Attacked.TotalCostUSD {
		t.Errorf("SHATTER (%v) should be >= greedy (%v)",
			impS.Attacked.TotalCostUSD, impG.Attacked.TotalCostUSD)
	}
}

func TestBIoTAHighCostHighDetection(t *testing.T) {
	f := newFixture(t, "A", 8)
	pl := f.planner(Full(f.trace.House))
	biota, err := pl.PlanBIoTA()
	if err != nil {
		t.Fatal(err)
	}
	shatter, err := pl.PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	impB, err := EvaluateImpact(f.trace, biota, f.model, f.ctrl, f.params, f.pricing, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	impS, err := EvaluateImpact(f.trace, shatter, f.model, f.ctrl, f.params, f.pricing, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// BIoTA, unconstrained by the ADM, racks up at least as much raw cost...
	if impB.Attacked.TotalCostUSD < impS.Attacked.TotalCostUSD {
		t.Errorf("BIoTA raw cost (%v) should be >= SHATTER (%v)",
			impB.Attacked.TotalCostUSD, impS.Attacked.TotalCostUSD)
	}
	// ...but the ADM catches the majority of its vectors (60-100% in the
	// paper).
	if impB.DetectionRate < 0.5 {
		t.Errorf("BIoTA detection rate = %v, want >= 0.5", impB.DetectionRate)
	}
	if impS.DetectionRate >= impB.DetectionRate {
		t.Errorf("SHATTER detection (%v) should be below BIoTA (%v)",
			impS.DetectionRate, impB.DetectionRate)
	}
}

func TestTriggerAddsImpact(t *testing.T) {
	f := newFixture(t, "A", 8)
	cap := Full(f.trace.House)
	pl := f.planner(cap)
	plan, err := pl.PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	impNoTrig, err := EvaluateImpact(f.trace, plan, f.model, f.ctrl, f.params, f.pricing, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := TriggerAppliances(f.trace, plan, f.model, cap)
	if n == 0 {
		t.Fatal("no appliances triggered")
	}
	if plan.TriggeredSlots() != n {
		t.Errorf("TriggeredSlots %d != reported %d", plan.TriggeredSlots(), n)
	}
	impTrig, err := EvaluateImpact(f.trace, plan, f.model, f.ctrl, f.params, f.pricing, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if impTrig.Attacked.TotalCostUSD <= impNoTrig.Attacked.TotalCostUSD {
		t.Errorf("triggering should add cost: %v vs %v",
			impTrig.Attacked.TotalCostUSD, impNoTrig.Attacked.TotalCostUSD)
	}
	plan.ClearTriggers()
	if plan.TriggeredSlots() != 0 {
		t.Error("ClearTriggers left residue")
	}
}

func TestTriggerRespectsOccupancyAndCapability(t *testing.T) {
	f := newFixture(t, "A", 6)
	cap := Full(f.trace.House).WithAppliances(0) // oven only
	pl := f.planner(cap)
	plan, err := pl.PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	TriggerAppliances(f.trace, plan, f.model, cap)
	for d := range plan.Triggered {
		for a := range plan.Triggered[d] {
			for tslot, on := range plan.Triggered[d][a] {
				if !on {
					continue
				}
				if a != 0 {
					t.Fatalf("triggered inaccessible appliance %d", a)
				}
				z := f.trace.House.Appliances[a].Zone
				if zoneActuallyOccupied(f.trace, d, tslot, z) {
					t.Fatalf("triggered %v while really occupied (day %d slot %d)", z, d, tslot)
				}
			}
		}
	}
}

func TestZoneRestrictionReducesImpact(t *testing.T) {
	f := newFixture(t, "A", 8)
	full := Full(f.trace.House)
	restricted := full.WithZones(home.Bedroom, home.Livingroom)
	planFull, err := f.planner(full).PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	planRestr, err := f.planner(restricted).PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	impFull, err := EvaluateImpact(f.trace, planFull, f.model, f.ctrl, f.params, f.pricing, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	impRestr, err := EvaluateImpact(f.trace, planRestr, f.model, f.ctrl, f.params, f.pricing, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if impRestr.ExtraCostUSD >= impFull.ExtraCostUSD {
		t.Errorf("2-zone impact (%v) should be below 4-zone impact (%v)",
			impRestr.ExtraCostUSD, impFull.ExtraCostUSD)
	}
}

func TestAbortDetectedDaysLowersCost(t *testing.T) {
	f := newFixture(t, "A", 8)
	pl := f.planner(Full(f.trace.House))
	biota, err := pl.PlanBIoTA()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EvaluateImpact(f.trace, biota, f.model, f.ctrl, f.params, f.pricing, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	aborted, err := EvaluateImpact(f.trace, biota, f.model, f.ctrl, f.params, f.pricing, EvalOptions{AbortDetectedDays: true})
	if err != nil {
		t.Fatal(err)
	}
	if aborted.Attacked.TotalCostUSD >= raw.Attacked.TotalCostUSD {
		t.Errorf("aborting detected days should cut cost: %v vs %v",
			aborted.Attacked.TotalCostUSD, raw.Attacked.TotalCostUSD)
	}
	if aborted.DetectedDays == 0 {
		t.Error("BIoTA should have detected days")
	}
}

func TestReportedEpisodesPartition(t *testing.T) {
	f := newFixture(t, "A", 6)
	pl := f.planner(Full(f.trace.House))
	plan, err := pl.PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < f.trace.NumDays(); d++ {
		for o := range f.trace.House.Occupants {
			total := 0
			for _, e := range plan.DayReportedEpisodes(f.trace, d, o) {
				total += e.Duration
			}
			if total != aras.SlotsPerDay {
				t.Fatalf("day %d occ %d: episodes cover %d slots", d, o, total)
			}
		}
	}
}

func TestSensorDeltas(t *testing.T) {
	f := newFixture(t, "A", 6)
	pl := f.planner(Full(f.trace.House))
	plan, err := pl.PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	// Find a day the plan actually falsifies.
	day := -1
	for d := 0; d < f.trace.NumDays() && day < 0; d++ {
		for o := range f.trace.House.Occupants {
			for tt := 0; tt < aras.SlotsPerDay; tt++ {
				if plan.RepZone[d][o][tt] != f.trace.Days[d].Zone[o][tt] {
					day = d
					break
				}
			}
		}
	}
	if day < 0 {
		t.Fatal("plan injected nothing")
	}
	deltas, err := SensorDeltas(f.trace, plan, f.ctrl, f.params, day)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != aras.SlotsPerDay {
		t.Fatalf("deltas rows = %d", len(deltas))
	}
	// The attack must require non-trivial CO2 injection somewhere.
	maxAbs := 0.0
	for _, row := range deltas {
		for _, v := range row {
			maxAbs = math.Max(maxAbs, math.Abs(v))
		}
	}
	if maxAbs < 1 {
		t.Errorf("max |δC| = %v ppm on day %d; expected a visible injection", maxAbs, day)
	}
	if _, err := SensorDeltas(f.trace, plan, f.ctrl, f.params, 99); err == nil {
		t.Error("bad day should error")
	}
}

func TestNewViewNil(t *testing.T) {
	if _, err := NewView(nil, nil); err == nil {
		t.Error("nil args should error")
	}
}

func TestNoCapabilityNoInjection(t *testing.T) {
	f := newFixture(t, "A", 4)
	pl := f.planner(Capability{}) // powerless attacker
	plan, err := pl.PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.InjectedSlots(f.trace); got != 0 {
		t.Errorf("powerless attacker injected %d slots", got)
	}
	imp, err := EvaluateImpact(f.trace, plan, f.model, f.ctrl, f.params, f.pricing, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(imp.ExtraCostUSD) > 1e-9 {
		t.Errorf("powerless attack changed cost by %v", imp.ExtraCostUSD)
	}
}

// TestPlannerWorkersDeterministic asserts the planner's fan-out contract:
// for every strategy, a Workers=1 plan and a wide-pool plan are identical,
// occupant-slot for occupant-slot. CI runs this under -race to certify the
// occupant-day cells really are independent.
func TestPlannerWorkersDeterministic(t *testing.T) {
	f := newFixture(t, "A", 8)
	for _, tc := range []struct {
		name string
		plan func(pl *Planner) (*Plan, error)
	}{
		{"SHATTER", (*Planner).PlanSHATTER},
		{"Greedy", (*Planner).PlanGreedy},
		{"BIoTA", (*Planner).PlanBIoTA},
	} {
		seqPl := f.planner(Full(f.trace.House))
		seqPl.Workers = 1
		seq, err := tc.plan(seqPl)
		if err != nil {
			t.Fatalf("%s sequential: %v", tc.name, err)
		}
		parPl := f.planner(Full(f.trace.House))
		parPl.Workers = 8
		par, err := tc.plan(parPl)
		if err != nil {
			t.Fatalf("%s parallel: %v", tc.name, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%s: Workers=1 and Workers=8 plans diverge", tc.name)
		}
	}
}

// TestPlannerOccupantDayAllocBounds is the allocation-regression gate for
// the planning hot path: a warm re-plan must stay within a fixed allocation
// budget per occupant-day (the residue is the plan skeleton, the per-cell
// closures, and the sanitisation ledger — the ~144 DP windows themselves
// allocate nothing).
func TestPlannerOccupantDayAllocBounds(t *testing.T) {
	f := newFixture(t, "A", 8)
	pl := f.planner(Full(f.trace.House))
	pl.Workers = 1 // AllocsPerRun needs the single-goroutine path
	cells := float64(f.trace.NumDays() * len(f.trace.House.Occupants))
	for _, tc := range []struct {
		name   string
		plan   func() error
		budget float64 // allocs per occupant-day, ~2x measured headroom
	}{
		{"SHATTER", func() error { _, err := pl.PlanSHATTER(); return err }, 120},
		{"Greedy", func() error { _, err := pl.PlanGreedy(); return err }, 110},
	} {
		if err := tc.plan(); err != nil { // warm-up
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if err := tc.plan(); err != nil {
				t.Fatal(err)
			}
		})
		if perCell := allocs / cells; perCell > tc.budget {
			t.Errorf("%s: %.1f allocs per occupant-day, budget %.0f", tc.name, perCell, tc.budget)
		}
	}
}
