package stream

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/attack"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
)

// testWorld generates a paper house's batch trace and a DBSCAN defender
// trained on its first trainDays days — the shared fixture the equivalence
// tests replay through the streaming runtime.
func testWorld(t testing.TB, name string, days, trainDays int) (*aras.Trace, *adm.Model) {
	t.Helper()
	house := home.MustHouse(name)
	tr, err := aras.Generate(house, aras.GeneratorConfig{Days: days, Seed: 2024})
	if err != nil {
		t.Fatal(err)
	}
	train, err := tr.SubTrace(0, trainDays)
	if err != nil {
		t.Fatal(err)
	}
	cfg := adm.DefaultConfig(adm.DBSCAN)
	cfg.MinPts = 3
	cfg.Eps = 30
	model, err := adm.Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr, model
}

// drive pulls src to end-of-stream through h, invoking observe (when
// non-nil) on each frame after Ingest rewrote it.
func drive(t *testing.T, src Source, h *Home, observe func(*Slot)) HomeResult {
	t.Helper()
	var s Slot
	for {
		if err := src.Next(&s); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Ingest(&s); err != nil {
			t.Fatal(err)
		}
		if observe != nil {
			observe(&s)
		}
	}
	res, err := h.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// verdictKey uniquely identifies an episode within a home's stream.
func verdictKey(e aras.Episode) [3]int { return [3]int{e.Day, e.Occupant, e.ArrivalSlot} }

// TestHomeStreamMatchesBatchBenign replays houses A and B through the full
// streaming pipeline (incremental generator → online detector → HVAC
// stepper) and pins everything to the batch path byte-for-byte: the ground
// truth trace, the controller's energy/cost result, and every ADM verdict.
func TestHomeStreamMatchesBatchBenign(t *testing.T) {
	params := hvac.DefaultParams()
	pricing := hvac.DefaultPricing()
	for _, name := range []string{"A", "B"} {
		const days, trainDays = 8, 6
		batchTrace, model := testWorld(t, name, days, trainDays)

		batchSim, err := hvac.Simulate(batchTrace, &hvac.SHATTERController{Params: params}, params, pricing, hvac.Options{})
		if err != nil {
			t.Fatal(err)
		}
		batchVerdicts := make(map[[3]int]adm.Verdict)
		for d := 0; d < batchTrace.NumDays(); d++ {
			for o := range batchTrace.House.Occupants {
				for _, e := range batchTrace.DayEpisodes(d, o) {
					batchVerdicts[verdictKey(e)] = adm.Verdict{Episode: e, Anomalous: model.EpisodeAnomalous(e)}
				}
			}
		}

		house := home.MustHouse(name)
		gen, err := aras.NewGenerator(house, aras.GeneratorConfig{Days: days, Seed: 2024})
		if err != nil {
			t.Fatal(err)
		}
		var streamed []adm.Verdict
		h, err := NewHome(HomeConfig{
			ID:        name,
			House:     house,
			Params:    params,
			Pricing:   pricing,
			Defender:  model,
			OnVerdict: func(v adm.Verdict) { streamed = append(streamed, v) },
		})
		if err != nil {
			t.Fatal(err)
		}
		rebuilt := &aras.Trace{House: house}
		res := drive(t, NewGeneratorSource(name, gen), h, func(s *Slot) {
			if s.Index == 0 {
				rebuilt.Days = append(rebuilt.Days, aras.NewDay(len(house.Occupants), len(house.Appliances)))
				rebuilt.Weather = append(rebuilt.Weather, aras.Weather{
					TempF:  make([]float64, aras.SlotsPerDay),
					CO2PPM: make([]float64, aras.SlotsPerDay),
				})
			}
			day := &rebuilt.Days[s.Day]
			for o, r := range s.True {
				day.Zone[o][s.Index] = r.Zone
				day.Act[o][s.Index] = r.Activity
			}
			for a, on := range s.TrueAppliance {
				day.Appliance[a][s.Index] = on
			}
			rebuilt.Weather[s.Day].TempF[s.Index] = s.OutdoorTempF
			rebuilt.Weather[s.Day].CO2PPM[s.Index] = s.OutdoorCO2PPM
		})

		// Ground truth: the streamed frames reassemble the batch trace
		// byte-for-byte (CSV encoding) including the weather series.
		var want, got bytes.Buffer
		if err := batchTrace.WriteCSV(&want); err != nil {
			t.Fatal(err)
		}
		if err := rebuilt.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("house %s: streamed trace differs from batch trace", name)
		}
		if !reflect.DeepEqual(batchTrace.Weather, rebuilt.Weather) {
			t.Errorf("house %s: streamed weather differs from batch weather", name)
		}

		// Controller accounting: bit-identical hvac.Result.
		if !reflect.DeepEqual(batchSim, res.Sim) {
			t.Errorf("house %s: streamed sim result differs from batch\nbatch:    %+v\nstreamed: %+v", name, batchSim, res.Sim)
		}

		// Detection: every online verdict matches its batch counterpart.
		if len(streamed) != len(batchVerdicts) {
			t.Fatalf("house %s: %d streamed verdicts, %d batch", name, len(streamed), len(batchVerdicts))
		}
		anomalies := int64(0)
		for _, v := range streamed {
			want, ok := batchVerdicts[verdictKey(v.Episode)]
			if !ok {
				t.Fatalf("house %s: streamed episode %+v not in batch set", name, v.Episode)
			}
			if !reflect.DeepEqual(v, want) {
				t.Fatalf("house %s: verdict mismatch\nstreamed: %+v\nbatch:    %+v", name, v, want)
			}
			if v.Anomalous {
				anomalies++
			}
		}
		if res.Verdicts != int64(len(batchVerdicts)) || res.Anomalies != anomalies {
			t.Errorf("house %s: counters %d/%d, want %d/%d", name, res.Verdicts, res.Anomalies, len(batchVerdicts), anomalies)
		}
		if res.Days != days || res.Slots != int64(days*aras.SlotsPerDay) {
			t.Errorf("house %s: %d days / %d slots, want %d / %d", name, res.Days, res.Slots, days, days*aras.SlotsPerDay)
		}
		if res.SensorEvents != res.Slots*int64(len(house.Occupants)+len(house.Appliances)) {
			t.Errorf("house %s: sensor events %d", name, res.SensorEvents)
		}
	}
}

// TestHomeStreamMatchesBatchAttacked streams a SHATTER campaign (sensor
// spoofing + appliance triggering) through the live injector and pins the
// attacked plant accounting, the per-slot falsified view, and the defender's
// injection ledger to batch attack.EvaluateImpact.
func TestHomeStreamMatchesBatchAttacked(t *testing.T) {
	params := hvac.DefaultParams()
	pricing := hvac.DefaultPricing()
	for _, name := range []string{"A", "B"} {
		const days, trainDays = 6, 4
		tr, model := testWorld(t, name, days, trainDays)
		house := tr.House
		cap := attack.Full(house)
		pl := &attack.Planner{
			Trace:     tr,
			Model:     model,
			Cost:      hvac.NewCostModel(house, params, pricing),
			Cap:       cap,
			WindowLen: 10,
		}
		plan, err := pl.PlanSHATTER()
		if err != nil {
			t.Fatal(err)
		}
		attack.TriggerAppliances(tr, plan, model, cap)

		imp, err := attack.EvaluateImpact(tr, plan, model, &hvac.SHATTERController{Params: params}, params, pricing, attack.EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		batchInjected, batchFlagged := 0, 0
		for d := 0; d < tr.NumDays(); d++ {
			for o := range house.Occupants {
				for _, e := range plan.DayReportedEpisodes(tr, d, o) {
					if !e.Injected {
						continue
					}
					batchInjected++
					if model.EpisodeAnomalous(e.Episode) {
						batchFlagged++
					}
				}
			}
		}

		inj, err := NewInjector(house, plan)
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHome(HomeConfig{
			ID:       name,
			House:    house,
			Params:   params,
			Pricing:  pricing,
			Defender: model,
			Injector: inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		view, err := attack.NewView(tr, plan)
		if err != nil {
			t.Fatal(err)
		}
		res := drive(t, NewTraceSource(name, tr), h, func(s *Slot) {
			// The rewritten frame must reproduce attack.View's semantics.
			obs := view.Occupants(s.Day, s.Index)
			for o, r := range s.Reported {
				if r.Zone != obs[o].Zone || r.Activity != obs[o].Activity {
					t.Fatalf("house %s day %d slot %d occ %d: reported %+v, view %+v", name, s.Day, s.Index, o, r, obs[o])
				}
			}
			for a := range s.ReportedAppliance {
				if s.ReportedAppliance[a] != view.ApplianceOn(s.Day, s.Index, a) {
					t.Fatalf("house %s day %d slot %d appl %d: believed status diverges from view", name, s.Day, s.Index, a)
				}
				if s.TrueAppliance[a] != view.ActualApplianceOn(s.Day, s.Index, a) {
					t.Fatalf("house %s day %d slot %d appl %d: actual status diverges from view", name, s.Day, s.Index, a)
				}
			}
		})

		if !reflect.DeepEqual(imp.Attacked, res.Sim) {
			t.Errorf("house %s: streamed attacked result differs from batch\nbatch:    %+v\nstreamed: %+v", name, imp.Attacked, res.Sim)
		}
		if int(res.Injected) != batchInjected || int(res.Flagged) != batchFlagged {
			t.Errorf("house %s: injection ledger %d/%d, batch %d/%d", name, res.Injected, res.Flagged, batchInjected, batchFlagged)
		}
		if res.DetectedDays != imp.DetectedDays {
			t.Errorf("house %s: %d detected days, batch %d", name, res.DetectedDays, imp.DetectedDays)
		}
		var rate float64
		if res.Injected > 0 {
			rate = float64(res.Flagged) / float64(res.Injected)
		}
		if rate != imp.DetectionRate {
			t.Errorf("house %s: detection rate %v, batch %v", name, rate, imp.DetectionRate)
		}
	}
}

// TestInjectorBeyondHorizon checks frames past the plan's campaign horizon
// pass through truthfully.
func TestInjectorBeyondHorizon(t *testing.T) {
	tr, model := testWorld(t, "A", 4, 2)
	short, err := tr.SubTrace(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl := &attack.Planner{
		Trace:     short,
		Model:     model,
		Cost:      hvac.NewCostModel(tr.House, hvac.DefaultParams(), hvac.DefaultPricing()),
		Cap:       attack.Full(tr.House),
		WindowLen: 10,
	}
	plan, err := pl.PlanBIoTA()
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(tr.House, plan)
	if err != nil {
		t.Fatal(err)
	}
	src := NewTraceSource("A", tr)
	var s Slot
	rewrote := false
	for {
		if err := src.Next(&s); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		inj.Rewrite(&s)
		if s.Day < 2 {
			for o := range s.Reported {
				if s.Reported[o].Zone != s.True[o].Zone {
					rewrote = true
				}
			}
			continue
		}
		for o := range s.Reported {
			if s.Reported[o] != s.True[o] {
				t.Fatalf("day %d slot %d: beyond-horizon occupancy rewritten", s.Day, s.Index)
			}
		}
		for a := range s.ReportedAppliance {
			if s.ReportedAppliance[a] != s.TrueAppliance[a] {
				t.Fatalf("day %d slot %d: beyond-horizon appliance status rewritten", s.Day, s.Index)
			}
		}
	}
	if !rewrote {
		t.Error("greedy plan never falsified a frame inside the horizon")
	}
}

// TestHomeIngestHygiene covers the runtime's stream-order cross-checks.
func TestHomeIngestHygiene(t *testing.T) {
	house := home.MustHouse("A")
	gen, err := aras.NewGenerator(house, aras.GeneratorConfig{Days: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHome(HomeConfig{ID: "A", House: house, Params: hvac.DefaultParams(), Pricing: hvac.DefaultPricing()})
	if err != nil {
		t.Fatal(err)
	}
	src := NewGeneratorSource("A", gen)
	var s Slot
	if err := src.Next(&s); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Ingest(&s); err != nil {
		t.Fatal(err)
	}
	// Replaying the same frame is out of order for the stepper.
	if _, err := h.Ingest(&s); err == nil {
		t.Error("replayed frame accepted")
	}
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Ingest(&s); err == nil {
		t.Error("Ingest after Close accepted")
	}
	if _, err := h.Close(); err == nil {
		t.Error("double Close accepted")
	}
}

// TestInjectionLedgerIsPerOccupant pins the batch DayReportedEpisodes
// semantics the ledger reproduces: a reported episode is compared against
// its OWN occupant's truth, so a falsified stay that happens to coincide
// with another occupant's real stay is still an injection.
func TestInjectionLedgerIsPerOccupant(t *testing.T) {
	h := &Home{labeling: true}
	// Occupant 1 really stayed in zone 2, arrival 480, duration 60.
	h.recordNatural(aras.Episode{Day: 0, Occupant: 1, Zone: 2, ArrivalSlot: 480, Duration: 60})
	// Occupant 0 reports the identical (zone, arrival, duration) triple —
	// absent from occupant 0's truth, hence injected.
	h.recordVerdict(adm.Verdict{
		Episode:   aras.Episode{Day: 0, Occupant: 0, Zone: 2, ArrivalSlot: 480, Duration: 60},
		Anomalous: true,
	})
	// Occupant 1 reports their own real stay — ordinary FP surface.
	h.recordVerdict(adm.Verdict{
		Episode:   aras.Episode{Day: 0, Occupant: 1, Zone: 2, ArrivalSlot: 480, Duration: 60},
		Anomalous: true,
	})
	h.resolveDaysBelow(1)
	if h.res.Injected != 1 || h.res.Flagged != 1 || h.res.DetectedDays != 1 {
		t.Fatalf("ledger %d injected / %d flagged / %d detected days, want 1/1/1: %+v",
			h.res.Injected, h.res.Flagged, h.res.DetectedDays, h.res)
	}
}

// TestStreamSlotZeroAllocsSteadyState is the allocation-regression gate for
// the per-slot streaming path: once a benign home's pipeline is warm, a
// TraceSource frame pull plus its Ingest (injector-less, detector-less)
// allocates nothing, and attaching the online detector stays within a small
// per-slot budget (episode closes allocate their verdict bookkeeping).
func TestStreamSlotZeroAllocsSteadyState(t *testing.T) {
	const days = 3
	tr, model := testWorld(t, "A", days, 2)
	params := hvac.DefaultParams()
	pricing := hvac.DefaultPricing()

	measure := func(defender *adm.Model) float64 {
		h, err := NewHome(HomeConfig{ID: "A", House: tr.House, Params: params, Pricing: pricing, Defender: defender})
		if err != nil {
			t.Fatal(err)
		}
		src := NewTraceSource("A", tr)
		var s Slot
		// Warm one full day so the frame buffers, controller scratch, and
		// detector state reach steady state.
		for i := 0; i < aras.SlotsPerDay; i++ {
			if err := src.Next(&s); err != nil {
				t.Fatal(err)
			}
			if _, err := h.Ingest(&s); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(1000, func() {
			if err := src.Next(&s); err != nil {
				t.Fatal(err)
			}
			if _, err := h.Ingest(&s); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs := measure(nil); allocs != 0 {
		t.Errorf("benign slot path: %.2f allocs/slot after warm-up, want 0", allocs)
	}
	if allocs := measure(model); allocs > 1 {
		t.Errorf("defended slot path: %.2f allocs/slot after warm-up, budget 1", allocs)
	}
}
