package hvac

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
)

func testTrace(t *testing.T, houseName string, days int) *aras.Trace {
	t.Helper()
	h := home.MustHouse(houseName)
	tr, err := aras.Generate(h, aras.GeneratorConfig{Days: days, Seed: 1001})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := p
	bad.SupplyAirTempF = 80
	if err := bad.Validate(); err == nil {
		t.Error("supply above setpoint should be invalid")
	}
	bad = p
	bad.CO2SetpointPPM = 400
	if err := bad.Validate(); err == nil {
		t.Error("setpoint below outdoor CO2 should be invalid")
	}
	bad = p
	bad.MaxZoneCFM = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero duct limit should be invalid")
	}
	// Non-finite fields: NaN slips past every ordered comparison, and each
	// field feeds the bill, so each must be rejected on its own.
	fields := []*float64{&bad.CO2SetpointPPM, &bad.ZoneSetpointF, &bad.SupplyAirTempF,
		&bad.EnvelopeUAWPerF2, &bad.FanWPerCFM, &bad.BaseLoadW, &bad.MaxZoneCFM}
	for i, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			bad = p
			*f = v
			if err := bad.Validate(); err == nil {
				t.Errorf("field %d = %v accepted", i, v)
			}
		}
	}
	bad = p
	bad.CO2SetpointPPM = math.NaN()
	if _, err := NewSim(home.MustHouse("A"), &SHATTERController{Params: p}, bad, DefaultPricing()); err == nil {
		t.Error("NewSim accepted NaN params")
	}
}

func TestPricingRateAt(t *testing.T) {
	pr := DefaultPricing()
	if pr.InPeak(12 * 60) {
		t.Error("noon should be off-peak")
	}
	if !pr.InPeak(18 * 60) {
		t.Error("6PM should be peak")
	}
	if got := pr.RateAt(12*60, 0); got != pr.OffPeakUSDPerKWh {
		t.Errorf("off-peak rate = %v", got)
	}
	// Peak but battery still charged → off-peak rate.
	if got := pr.RateAt(18*60, pr.BatteryKWh-0.5); got != pr.OffPeakUSDPerKWh {
		t.Errorf("battery-covered peak rate = %v", got)
	}
	// Battery exhausted → peak rate.
	if got := pr.RateAt(18*60, pr.BatteryKWh+0.1); got != pr.PeakUSDPerKWh {
		t.Errorf("post-battery peak rate = %v", got)
	}
}

func TestFreshAirForCO2(t *testing.T) {
	// No generation, already at setpoint: no fresh air needed.
	if q := freshAirForCO2(0, 1000, 800, 420, 800); q != 0 {
		t.Errorf("no-gen fresh air = %v, want 0", q)
	}
	// Generation pushing above setpoint requires positive airflow.
	q := freshAirForCO2(0.02, 1000, 800, 420, 800)
	if q <= 0 {
		t.Errorf("fresh air = %v, want > 0", q)
	}
	// More generation needs more air.
	q2 := freshAirForCO2(0.04, 1000, 800, 420, 800)
	if q2 <= q {
		t.Errorf("fresh air not monotone in generation: %v vs %v", q, q2)
	}
	// Zone already below outdoor CO2 (degenerate): nominal flush.
	if q := freshAirForCO2(0.2, 1000, 400, 420, 405); q <= 0 {
		t.Error("degenerate dilution should still flush")
	}
}

func TestSupplyAirForHeat(t *testing.T) {
	if q := supplyAirForHeat(0, 72, 55); q != 0 {
		t.Errorf("zero heat needs zero air, got %v", q)
	}
	q := supplyAirForHeat(538.39, 72, 55) // 0.3167*17*100 = 538.39 W ⇒ 100 CFM
	if math.Abs(q-100) > 1e-9 {
		t.Errorf("supply air = %v, want 100", q)
	}
	if q := supplyAirForHeat(100, 55, 72); q != 0 {
		t.Error("inverted temperatures must not produce airflow")
	}
}

func TestMixedAirTemp(t *testing.T) {
	// All return air → return temperature.
	if got := mixedAirTempF(Demand{SupplyCFM: 100, FreshCFM: 0}, 90, 72); got != 72 {
		t.Errorf("all-return mix = %v", got)
	}
	// All fresh air → outdoor temperature.
	if got := mixedAirTempF(Demand{SupplyCFM: 100, FreshCFM: 100}, 90, 72); got != 90 {
		t.Errorf("all-fresh mix = %v", got)
	}
	// Half/half.
	if got := mixedAirTempF(Demand{SupplyCFM: 100, FreshCFM: 50}, 90, 72); got != 81 {
		t.Errorf("half mix = %v, want 81", got)
	}
}

func TestSimulateEmptyTrace(t *testing.T) {
	tr := &aras.Trace{House: home.MustHouse("A")}
	ctrl := &SHATTERController{Params: DefaultParams()}
	if _, err := Simulate(tr, ctrl, DefaultParams(), DefaultPricing(), Options{}); err == nil {
		t.Error("empty trace should error")
	}
}

func TestSimulateBenignPositiveCost(t *testing.T) {
	tr := testTrace(t, "A", 3)
	params := DefaultParams()
	ctrl := &SHATTERController{Params: params}
	res, err := Simulate(tr, ctrl, params, DefaultPricing(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCostUSD <= 0 || res.TotalKWh <= 0 {
		t.Fatalf("cost=%v kWh=%v, want positive", res.TotalCostUSD, res.TotalKWh)
	}
	if len(res.DailyCostUSD) != 3 {
		t.Fatalf("daily series length %d", len(res.DailyCostUSD))
	}
	for d, c := range res.DailyCostUSD {
		if c <= 0 {
			t.Errorf("day %d cost %v", d, c)
		}
	}
	// Decomposition must sum to total energy.
	sum := res.CoilKWh + res.FanKWh + res.ApplianceKWh + res.BaseKWh
	if math.Abs(sum-res.TotalKWh) > 1e-6 {
		t.Errorf("decomposition %v != total %v", sum, res.TotalKWh)
	}
}

func TestASHRAECostlierThanSHATTER(t *testing.T) {
	// The headline Fig 3 shape: the activity-aware controller is cheaper.
	tr := testTrace(t, "A", 5)
	params := DefaultParams()
	pr := DefaultPricing()
	shatter, err := Simulate(tr, &SHATTERController{Params: params}, params, pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ashrae, err := Simulate(tr, NewASHRAEController(params, tr.House), params, pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if shatter.TotalCostUSD >= ashrae.TotalCostUSD {
		t.Fatalf("SHATTER (%v) should undercut ASHRAE (%v)", shatter.TotalCostUSD, ashrae.TotalCostUSD)
	}
	savings := 1 - shatter.TotalCostUSD/ashrae.TotalCostUSD
	if savings < 0.15 {
		t.Errorf("savings only %.1f%%, want a substantial gap", savings*100)
	}
	// Per-day dominance (Fig 3 shows ASHRAE above SHATTER on every day).
	for d := range shatter.DailyCostUSD {
		if shatter.DailyCostUSD[d] >= ashrae.DailyCostUSD[d] {
			t.Errorf("day %d: SHATTER %.2f !< ASHRAE %.2f", d, shatter.DailyCostUSD[d], ashrae.DailyCostUSD[d])
		}
	}
}

func TestHouseBCheaperThanHouseA(t *testing.T) {
	params := DefaultParams()
	pr := DefaultPricing()
	trA := testTrace(t, "A", 5)
	trB := testTrace(t, "B", 5)
	resA, err := Simulate(trA, &SHATTERController{Params: params}, params, pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Simulate(trB, &SHATTERController{Params: params}, params, pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resB.TotalCostUSD >= resA.TotalCostUSD {
		t.Errorf("house B (%v) should be cheaper than house A (%v)", resB.TotalCostUSD, resA.TotalCostUSD)
	}
}

// fakeView plants a fixed observation, for controller unit tests.
type fakeView struct {
	obs   []OccupantObs
	appls map[int]bool
}

func (v *fakeView) Occupants(day, slot int) []OccupantObs { return v.obs }
func (v *fakeView) ApplianceOn(day, slot, a int) bool     { return v.appls[a] }

func TestSHATTERZeroWhenEmpty(t *testing.T) {
	h := home.MustHouse("A")
	params := DefaultParams()
	ctrl := &SHATTERController{Params: params}
	view := &fakeView{obs: []OccupantObs{
		{Zone: home.Outside, Activity: home.GoingOut},
		{Zone: home.Outside, Activity: home.GoingOut},
	}}
	cond := ZoneConditions{OutdoorTempF: 90, OutdoorCO2PPM: 420, ZoneCO2PPM: make([]float64, 5)}
	for _, d := range ctrl.Plan(h, view, 0, 0, cond) {
		if d.SupplyCFM != 0 {
			t.Fatal("empty home must get no supply air under demand control")
		}
	}
}

func TestSHATTERSuppliesOccupiedZoneOnly(t *testing.T) {
	h := home.MustHouse("A")
	params := DefaultParams()
	ctrl := &SHATTERController{Params: params}
	view := &fakeView{obs: []OccupantObs{
		{Zone: home.Kitchen, Activity: home.PreparingDinner},
		{Zone: home.Outside, Activity: home.GoingOut},
	}}
	co2 := []float64{420, 420, 420, 420, 420}
	cond := ZoneConditions{OutdoorTempF: 90, OutdoorCO2PPM: 420, ZoneCO2PPM: co2}
	demands := ctrl.Plan(h, view, 0, 0, cond)
	if demands[home.Kitchen].SupplyCFM <= 0 {
		t.Error("occupied kitchen must receive supply air")
	}
	for _, z := range []home.ZoneID{home.Bedroom, home.Livingroom, home.Bathroom} {
		if demands[z].SupplyCFM != 0 {
			t.Errorf("unoccupied %v received air", z)
		}
	}
}

func TestSHATTERActivityIntensityMatters(t *testing.T) {
	h := home.MustHouse("A")
	params := DefaultParams()
	ctrl := &SHATTERController{Params: params}
	cond := ZoneConditions{OutdoorTempF: 90, OutdoorCO2PPM: 420, ZoneCO2PPM: make([]float64, 5)}
	cook := &fakeView{obs: []OccupantObs{{Zone: home.Kitchen, Activity: home.PreparingDinner}, {Zone: home.Outside}}}
	eat := &fakeView{obs: []OccupantObs{{Zone: home.Kitchen, Activity: home.HavingLunch}, {Zone: home.Outside}}}
	qCook := ctrl.Plan(h, cook, 0, 0, cond)[home.Kitchen].SupplyCFM
	qEat := ctrl.Plan(h, eat, 0, 0, cond)[home.Kitchen].SupplyCFM
	if qCook <= qEat {
		t.Errorf("cooking (%v CFM) should demand more air than eating (%v CFM)", qCook, qEat)
	}
}

func TestSHATTERApplianceLoadMatters(t *testing.T) {
	h := home.MustHouse("A")
	params := DefaultParams()
	ctrl := &SHATTERController{Params: params}
	cond := ZoneConditions{OutdoorTempF: 90, OutdoorCO2PPM: 420, ZoneCO2PPM: make([]float64, 5)}
	base := &fakeView{obs: []OccupantObs{{Zone: home.Kitchen, Activity: home.HavingLunch}, {Zone: home.Outside}}}
	withOven := &fakeView{
		obs:   base.obs,
		appls: map[int]bool{0: true}, // oven
	}
	q0 := ctrl.Plan(h, base, 0, 0, cond)[home.Kitchen].SupplyCFM
	q1 := ctrl.Plan(h, withOven, 0, 0, cond)[home.Kitchen].SupplyCFM
	if q1 <= q0 {
		t.Errorf("oven-on demand (%v) should exceed oven-off (%v)", q1, q0)
	}
}

func TestASHRAEAreaTermAlwaysOnWhenHome(t *testing.T) {
	h := home.MustHouse("A")
	params := DefaultParams()
	ctrl := NewASHRAEController(params, h)
	cond := ZoneConditions{OutdoorTempF: 90, OutdoorCO2PPM: 420, ZoneCO2PPM: make([]float64, 5)}
	// One occupant in the bedroom: ASHRAE still ventilates every zone.
	view := &fakeView{obs: []OccupantObs{{Zone: home.Bedroom, Activity: home.Sleeping}, {Zone: home.Outside}}}
	demands := ctrl.Plan(h, view, 0, 0, cond)
	for _, z := range []home.ZoneID{home.Bedroom, home.Livingroom, home.Kitchen, home.Bathroom} {
		if demands[z].FreshCFM <= 0 {
			t.Errorf("ASHRAE should ventilate %v while home is occupied", z)
		}
	}
	// Nobody home: no air at all.
	away := &fakeView{obs: []OccupantObs{{Zone: home.Outside}, {Zone: home.Outside}}}
	for _, d := range ctrl.Plan(h, away, 0, 0, cond) {
		if d.SupplyCFM != 0 {
			t.Error("ASHRAE unoccupied mode should shut off")
		}
	}
}

func TestCostModelOrderings(t *testing.T) {
	h := home.MustHouse("A")
	m := NewCostModel(h, DefaultParams(), DefaultPricing())
	// Kitchen with its most intense activity should be the most expensive
	// zone (the case-study premise).
	costs := map[home.ZoneID]float64{}
	for _, z := range []home.ZoneID{home.Bedroom, home.Livingroom, home.Kitchen, home.Bathroom} {
		costs[z] = m.OccupantSlotCost(0, z, home.MostIntenseActivityInZone(z), 12*60, 84)
	}
	for _, z := range []home.ZoneID{home.Bedroom, home.Bathroom} {
		if costs[home.Kitchen] <= costs[z] {
			t.Errorf("kitchen cost %v not above %v cost %v", costs[home.Kitchen], z, costs[z])
		}
	}
	// Outside costs nothing.
	if m.OccupantSlotCost(0, home.Outside, home.GoingOut, 12*60, 84) != 0 {
		t.Error("outside should cost 0")
	}
	// Peak slot costs more than off-peak.
	offPeak := m.OccupantSlotCost(0, home.Kitchen, home.PreparingDinner, 12*60, 84)
	peak := m.OccupantSlotCost(0, home.Kitchen, home.PreparingDinner, 18*60, 84)
	if peak <= offPeak {
		t.Errorf("peak %v should exceed off-peak %v", peak, offPeak)
	}
}

func TestApplianceSlotCost(t *testing.T) {
	h := home.MustHouse("A")
	m := NewCostModel(h, DefaultParams(), DefaultPricing())
	oven := m.ApplianceSlotCost(0, 18*60, 84)
	stereo := m.ApplianceSlotCost(6, 18*60, 84)
	if oven <= stereo {
		t.Errorf("oven (%v) should cost more than stereo (%v)", oven, stereo)
	}
	if oven <= 0 {
		t.Error("appliance cost must be positive")
	}
}

// Property: the plant CO2 never drops below the outdoor level during
// benign simulation (dilution cannot undershoot the source).
func TestPropertyCO2AboveOutdoor(t *testing.T) {
	tr := testTrace(t, "A", 1)
	params := DefaultParams()
	w := tr.Weather[0]
	view := &TraceView{Trace: tr}
	sim, err := NewSim(tr.House, &SHATTERController{Params: params}, params, DefaultPricing())
	if err != nil {
		t.Fatal(err)
	}
	day := tr.Days[0]
	in := StepInput{
		BelievedAppliance: make([]bool, len(tr.House.Appliances)),
		ActualOccupants:   make([]OccupantObs, len(tr.House.Occupants)),
		ActualAppliance:   make([]bool, len(tr.House.Appliances)),
	}
	for tslot := 0; tslot < aras.SlotsPerDay; tslot++ {
		in.OutdoorTempF = w.TempF[tslot]
		in.OutdoorCO2PPM = w.CO2PPM[tslot]
		in.Believed = view.Occupants(0, tslot)
		for ai := range tr.House.Appliances {
			on := day.Appliance[ai][tslot]
			in.BelievedAppliance[ai] = on
			in.ActualAppliance[ai] = on
		}
		for o := range tr.House.Occupants {
			in.ActualOccupants[o] = OccupantObs{Zone: day.Zone[o][tslot], Activity: day.Act[o][tslot]}
		}
		sim.Step(in)
		for zi, c := range sim.ZoneCO2() {
			if home.ZoneID(zi).Conditioned() && c < 380 {
				t.Fatalf("slot %d zone %d CO2 %v below plausible floor", tslot, zi, c)
			}
		}
	}
}

// Property: fresh airflow required is monotone non-decreasing in the
// generation rate for arbitrary plausible states.
func TestPropertyFreshAirMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		g1 := float64(seed%100) / 1000
		g2 := g1 + 0.01
		q1 := freshAirForCO2(g1, 1000, 700, 420, 800)
		q2 := freshAirForCO2(g2, 1000, 700, 420, 800)
		return q2 >= q1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
