package hvac_test

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
	"github.com/acyd-lab/shatter/internal/rng"
)

// fuzzChangeSlots are the slots where every fuzzed column is forced to
// change value: the day's first slots and the edges of the 8-slot groups
// and 64-slot words the day stepper's change mask is built from.
var fuzzChangeSlots = []int{0, 1, 7, 8, 63, 64, aras.SlotsPerDay - 1}

// fuzzDay fills in with random piecewise-constant columns for house: each
// column switches value with probability churn per slot, and at every
// fuzzChangeSlots slot.
func fuzzDay(r *rng.Source, house *home.House, churn float64, in *hvac.DayInput) {
	forced := make([]bool, aras.SlotsPerDay)
	for _, t := range fuzzChangeSlots {
		forced[t] = true
	}
	zones := func(col []home.ZoneID) {
		v := home.ZoneID(r.Intn(len(house.Zones)))
		for t := range col {
			if forced[t] || r.Bool(churn) {
				v = home.ZoneID((int(v) + 1 + r.Intn(len(house.Zones)-1)) % len(house.Zones))
			}
			col[t] = v
		}
	}
	acts := func(col []home.ActivityID) {
		v := home.ActivityID(r.Intn(home.NumActivities))
		for t := range col {
			if forced[t] || r.Bool(churn) {
				v = home.ActivityID((int(v) + 1 + r.Intn(home.NumActivities-1)) % home.NumActivities)
			}
			col[t] = v
		}
	}
	bools := func(col []bool) {
		v := r.Bool(0.5)
		for t := range col {
			if forced[t] || r.Bool(churn) {
				v = !v
			}
			col[t] = v
		}
	}
	for o := range house.Occupants {
		zones(in.BelievedZone[o])
		acts(in.BelievedAct[o])
		zones(in.ActualZone[o])
		acts(in.ActualAct[o])
	}
	for a := range house.Appliances {
		bools(in.BelievedAppliance[a])
		bools(in.ActualAppliance[a])
	}
	for t := 0; t < aras.SlotsPerDay; t++ {
		in.OutdoorTempF[t] = r.Range(40, 110)
		in.OutdoorCO2PPM[t] = r.Range(380, 520)
	}
}

func newDayInput(house *home.House) *hvac.DayInput {
	occ, appl := len(house.Occupants), len(house.Appliances)
	in := &hvac.DayInput{
		OutdoorTempF:      make([]float64, aras.SlotsPerDay),
		OutdoorCO2PPM:     make([]float64, aras.SlotsPerDay),
		BelievedZone:      make([][]home.ZoneID, occ),
		BelievedAct:       make([][]home.ActivityID, occ),
		BelievedAppliance: make([][]bool, appl),
		ActualZone:        make([][]home.ZoneID, occ),
		ActualAct:         make([][]home.ActivityID, occ),
		ActualAppliance:   make([][]bool, appl),
	}
	for o := 0; o < occ; o++ {
		in.BelievedZone[o] = make([]home.ZoneID, aras.SlotsPerDay)
		in.BelievedAct[o] = make([]home.ActivityID, aras.SlotsPerDay)
		in.ActualZone[o] = make([]home.ZoneID, aras.SlotsPerDay)
		in.ActualAct[o] = make([]home.ActivityID, aras.SlotsPerDay)
	}
	for a := 0; a < appl; a++ {
		in.BelievedAppliance[a] = make([]bool, aras.SlotsPerDay)
		in.ActualAppliance[a] = make([]bool, aras.SlotsPerDay)
	}
	return in
}

// stepOracle advances sim by one day with aras.SlotsPerDay Step calls over
// in's columns — the definition StepDay must reproduce.
func stepOracle(sim *hvac.Sim, in *hvac.DayInput) {
	occ, appl := len(in.BelievedZone), len(in.BelievedAppliance)
	st := hvac.StepInput{
		Believed:          make([]hvac.OccupantObs, occ),
		BelievedAppliance: make([]bool, appl),
		ActualOccupants:   make([]hvac.OccupantObs, occ),
		ActualAppliance:   make([]bool, appl),
	}
	for t := 0; t < aras.SlotsPerDay; t++ {
		st.OutdoorTempF, st.OutdoorCO2PPM = in.OutdoorTempF[t], in.OutdoorCO2PPM[t]
		for o := 0; o < occ; o++ {
			st.Believed[o] = hvac.OccupantObs{Zone: in.BelievedZone[o][t], Activity: in.BelievedAct[o][t]}
			st.ActualOccupants[o] = hvac.OccupantObs{Zone: in.ActualZone[o][t], Activity: in.ActualAct[o][t]}
		}
		for a := 0; a < appl; a++ {
			st.BelievedAppliance[a] = in.BelievedAppliance[a][t]
			st.ActualAppliance[a] = in.ActualAppliance[a][t]
		}
		sim.Step(st)
	}
}

// stateBits flattens a simulator's observable state — every Result float
// and the zone CO2 — to IEEE-754 bit patterns, so NaNs compare by payload
// and ±0 stay distinct.
func stateBits(sim *hvac.Sim) []uint64 {
	res := sim.Result()
	var out []uint64
	add := func(vs ...float64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	add(res.DailyCostUSD...)
	add(res.DailyKWh...)
	add(res.ZoneCoilKWh...)
	add(res.CoilKWh, res.FanKWh, res.ApplianceKWh, res.BaseKWh, res.TotalCostUSD, res.TotalKWh)
	add(sim.ZoneCO2()...)
	return append(out, uint64(sim.Day()), uint64(sim.SlotOfDay()))
}

// FuzzStepDayMatchesStep holds the change-mask day stepper to its oracle,
// aras.SlotsPerDay Step calls, under math.Float64bits over two days of
// random believed and actual columns. The houses are ARAS A and B, a
// SynthFleet home, and A with a zero-volume kitchen. Columns change at
// slots 0, 1, 7, 8, 63, 64 and 1439 on top of the fuzzed churn, and one
// fuzzed weather value is planted over a fuzzed run of day 2's slots: a
// finite one (however extreme, so sums overflow and NaNs arise inside the
// kernel) must still match bit for bit, a NaN or infinity must make
// StepDay fail with ErrNonFiniteWeather and leave the simulator untouched.
func FuzzStepDayMatchesStep(f *testing.F) {
	all := kernelHouses(f)
	houses := []*home.House{all[0], all[1], all[2], all[len(all)-1]}
	f.Add(uint8(0), uint64(1), uint8(8), uint16(600), uint8(1), true, 95.0)
	f.Add(uint8(1), uint64(2), uint8(0), uint16(0), uint8(30), false, 1e300)
	f.Add(uint8(2), uint64(3), uint8(255), uint16(1439), uint8(1), true, -1e308)
	f.Add(uint8(0), uint64(6), uint8(16), uint16(500), uint8(200), false, 1.7e308)
	f.Add(uint8(3), uint64(4), uint8(40), uint16(64), uint8(2), true, math.NaN())
	f.Add(uint8(3), uint64(5), uint8(3), uint16(7), uint8(0), false, math.Inf(1))
	f.Fuzz(func(t *testing.T, houseSel uint8, seed uint64, churn uint8, slot uint16, run uint8, tempCol bool, v float64) {
		house := houses[int(houseSel)%len(houses)]
		params := hvac.DefaultParams()
		mk := func() *hvac.Sim {
			sim, err := hvac.NewSim(house, &hvac.SHATTERController{Params: params}, params, hvac.DefaultPricing())
			if err != nil {
				t.Fatal(err)
			}
			return sim
		}
		slotSim, daySim := mk(), mk()
		r := rng.New(seed)
		in := newDayInput(house)
		for d := 0; d < 2; d++ {
			fuzzDay(r, house, float64(churn)/256, in)
			if d == 1 {
				col := in.OutdoorCO2PPM
				if tempCol {
					col = in.OutdoorTempF
				}
				for t := int(slot) % aras.SlotsPerDay; t <= int(slot)%aras.SlotsPerDay+int(run) && t < aras.SlotsPerDay; t++ {
					col[t] = v
				}
			}
			if d == 1 && (math.IsNaN(v) || math.IsInf(v, 0)) {
				before := stateBits(daySim)
				if err := daySim.StepDay(in); !errors.Is(err, hvac.ErrNonFiniteWeather) {
					t.Fatalf("weather %v at slot %d: StepDay error %v, want ErrNonFiniteWeather", v, slot, err)
				}
				if !reflect.DeepEqual(before, stateBits(daySim)) {
					t.Fatal("refused day changed the simulator")
				}
				return
			}
			stepOracle(slotSim, in)
			if err := daySim.StepDay(in); err != nil {
				t.Fatal(err)
			}
			if want, got := stateBits(slotSim), stateBits(daySim); !reflect.DeepEqual(want, got) {
				t.Fatalf("house %s day %d: StepDay state differs from Step\nslot: %x\nday:  %x", house.Name, d, want, got)
			}
		}
	})
}
