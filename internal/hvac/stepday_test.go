package hvac

import (
	"errors"
	"reflect"
	"testing"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
)

// dayInputFor builds the SoA columns for one trace day with independently
// suppliable believed columns (the attacked case feeds falsified ones).
func dayInputFor(tr *aras.Trace, d int, believed aras.Day, believedAppl [][]bool) *DayInput {
	return &DayInput{
		OutdoorTempF:      tr.Weather[d].TempF,
		OutdoorCO2PPM:     tr.Weather[d].CO2PPM,
		BelievedZone:      believed.Zone,
		BelievedAct:       believed.Act,
		BelievedAppliance: believedAppl,
		ActualZone:        tr.Days[d].Zone,
		ActualAct:         tr.Days[d].Act,
		ActualAppliance:   tr.Days[d].Appliance,
	}
}

// stepSlots drives sim through one trace day with per-slot Step calls — the
// equivalence reference for StepDay.
func stepSlots(sim *Sim, tr *aras.Trace, d int, believed aras.Day, believedAppl [][]bool) {
	occ, appl := len(tr.House.Occupants), len(tr.House.Appliances)
	in := StepInput{
		Believed:          make([]OccupantObs, occ),
		BelievedAppliance: make([]bool, appl),
		ActualOccupants:   make([]OccupantObs, occ),
		ActualAppliance:   make([]bool, appl),
	}
	for t := 0; t < aras.SlotsPerDay; t++ {
		in.OutdoorTempF = tr.Weather[d].TempF[t]
		in.OutdoorCO2PPM = tr.Weather[d].CO2PPM[t]
		for o := 0; o < occ; o++ {
			in.Believed[o] = OccupantObs{Zone: believed.Zone[o][t], Activity: believed.Act[o][t]}
			in.ActualOccupants[o] = OccupantObs{Zone: tr.Days[d].Zone[o][t], Activity: tr.Days[d].Act[o][t]}
		}
		for a := 0; a < appl; a++ {
			in.BelievedAppliance[a] = believedAppl[a][t]
			in.ActualAppliance[a] = tr.Days[d].Appliance[a][t]
		}
		sim.Step(in)
	}
}

// falsifiedView derives believed columns that diverge from the truth —
// occupant 0 is reported in the living room mid-day and a forged appliance
// status is flipped on — so the segmented believed/actual split is exercised
// with genuinely different column sets.
func falsifiedView(tr *aras.Trace, d int) (aras.Day, [][]bool) {
	day := aras.NewDay(len(tr.House.Occupants), len(tr.House.Appliances))
	for o := range day.Zone {
		copy(day.Zone[o], tr.Days[d].Zone[o])
		copy(day.Act[o], tr.Days[d].Act[o])
	}
	appl := make([][]bool, len(tr.House.Appliances))
	for a := range appl {
		appl[a] = append([]bool(nil), tr.Days[d].Appliance[a]...)
	}
	var living home.ZoneID
	for zi := range tr.House.Zones {
		if tr.House.Zones[zi].ID.Conditioned() {
			living = tr.House.Zones[zi].ID
			break
		}
	}
	for t := 600; t < 900; t++ {
		day.Zone[0][t] = living
		day.Act[0][t] = home.WatchingTV
	}
	if len(appl) > 0 {
		for t := 650; t < 700; t++ {
			appl[0][t] = true
		}
	}
	return day, appl
}

// TestStepDayMatchesStep pins the segment-amortized day stepper to the
// per-slot reference bit-for-bit: benign and falsified views on both paper
// houses for the SHATTER fast path, plus the ASHRAE fallback.
func TestStepDayMatchesStep(t *testing.T) {
	params := DefaultParams()
	pricing := DefaultPricing()
	for _, name := range []string{"A", "B"} {
		house := home.MustHouse(name)
		tr, err := aras.Generate(house, aras.GeneratorConfig{Days: 4, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			label     string
			ctrl      func() Controller
			falsified bool
		}{
			{"shatter-benign", func() Controller { return &SHATTERController{Params: params} }, false},
			{"shatter-attacked", func() Controller { return &SHATTERController{Params: params} }, true},
			{"ashrae-benign", func() Controller { return NewASHRAEController(params, house) }, false},
		} {
			slotSim, err := NewSim(house, tc.ctrl(), params, pricing)
			if err != nil {
				t.Fatal(err)
			}
			daySim, err := NewSim(house, tc.ctrl(), params, pricing)
			if err != nil {
				t.Fatal(err)
			}
			for d := 0; d < tr.NumDays(); d++ {
				believed, believedAppl := tr.Days[d], tr.Days[d].Appliance
				if tc.falsified {
					believed, believedAppl = falsifiedView(tr, d)
				}
				stepSlots(slotSim, tr, d, believed, believedAppl)
				if err := daySim.StepDay(dayInputFor(tr, d, believed, believedAppl)); err != nil {
					t.Fatal(err)
				}
				// Plant state must track slot-for-slot across day boundaries,
				// not just converge at the end.
				if !reflect.DeepEqual(slotSim.ZoneCO2(), daySim.ZoneCO2()) {
					t.Fatalf("house %s %s day %d: zone CO2 diverged\nslot: %v\nday:  %v",
						name, tc.label, d, slotSim.ZoneCO2(), daySim.ZoneCO2())
				}
			}
			want, got := slotSim.Result(), daySim.Result()
			if !reflect.DeepEqual(want, got) {
				t.Errorf("house %s %s: StepDay result differs from Step\nslot: %+v\nday:  %+v", name, tc.label, want, got)
			}
			if slotSim.Day() != daySim.Day() || daySim.SlotOfDay() != 0 {
				t.Errorf("house %s %s: cursor (%d,%d) vs (%d,%d)", name, tc.label,
					slotSim.Day(), slotSim.SlotOfDay(), daySim.Day(), daySim.SlotOfDay())
			}
		}
	}
}

// TestStepDayMidDayRejected locks the day-boundary precondition.
func TestStepDayMidDayRejected(t *testing.T) {
	house := home.MustHouse("A")
	tr, err := aras.Generate(house, aras.GeneratorConfig{Days: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(house, &SHATTERController{Params: DefaultParams()}, DefaultParams(), DefaultPricing())
	if err != nil {
		t.Fatal(err)
	}
	occ, appl := len(house.Occupants), len(house.Appliances)
	in := StepInput{
		Believed:          make([]OccupantObs, occ),
		BelievedAppliance: make([]bool, appl),
		ActualOccupants:   make([]OccupantObs, occ),
		ActualAppliance:   make([]bool, appl),
	}
	sim.Step(in)
	err = sim.StepDay(dayInputFor(tr, 0, tr.Days[0], tr.Days[0].Appliance))
	if !errors.Is(err, ErrNotDayBoundary) {
		t.Fatalf("mid-day StepDay: got %v, want ErrNotDayBoundary", err)
	}
}

// BenchmarkStepDay times one SHATTER-controller day of house A over the
// falsified view (believed columns differ from the actual ones), the
// attacked fleet's per-home-day plant step.
func BenchmarkStepDay(b *testing.B) {
	house := home.MustHouse("A")
	tr, err := aras.Generate(house, aras.GeneratorConfig{Days: 1, Seed: 99})
	if err != nil {
		b.Fatal(err)
	}
	params := DefaultParams()
	sim, err := NewSim(house, &SHATTERController{Params: params}, params, DefaultPricing())
	if err != nil {
		b.Fatal(err)
	}
	believed, believedAppl := falsifiedView(tr, 0)
	in := dayInputFor(tr, 0, believed, believedAppl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.StepDay(in); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStepDayZeroAllocs requires the day stepper to run allocation-free
// once its scratch is sized. The per-day result series are given room
// first, so only the kernel's own allocations count.
func TestStepDayZeroAllocs(t *testing.T) {
	house := home.MustHouse("A")
	tr, err := aras.Generate(house, aras.GeneratorConfig{Days: 1, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	sim, err := NewSim(house, &SHATTERController{Params: params}, params, DefaultPricing())
	if err != nil {
		t.Fatal(err)
	}
	believed, believedAppl := falsifiedView(tr, 0)
	in := dayInputFor(tr, 0, believed, believedAppl)
	if err := sim.StepDay(in); err != nil {
		t.Fatal(err)
	}
	sim.res.DailyCostUSD = append(make([]float64, 0, 256), sim.res.DailyCostUSD...)
	sim.res.DailyKWh = append(make([]float64, 0, 256), sim.res.DailyKWh...)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := sim.StepDay(in); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("StepDay allocates %v times per day", allocs)
	}
}
