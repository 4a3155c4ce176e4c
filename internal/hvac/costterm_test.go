package hvac_test

import (
	"math"
	"testing"

	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
	"github.com/acyd-lab/shatter/internal/scenario"
)

// oracleOccupantSlotCost is the single-call occupant cost formula as it
// stood before the slot-independent term was split out, kept verbatim
// (math.Max/math.Min and all) as the reference the term must reproduce
// bit for bit.
func oracleOccupantSlotCost(house *home.House, p hvac.Params, pricing hvac.Pricing, occupant int, z home.ZoneID, act home.ActivityID, slot int, outdoorF float64) float64 {
	if !z.Conditioned() {
		return 0
	}
	zone := house.Zone(z)
	demo := house.Occupants[occupant].Demographics
	a := home.ActivityByID(act)
	heat := a.HeatW(demo) + p.EnvelopeUAWPerF2*zone.AreaFt2*math.Max(0, outdoorF-p.ZoneSetpointF)
	for _, ai := range house.AppliancesForActivity(act) {
		if house.Appliances[ai].Zone == z {
			heat += house.Appliances[ai].HeatW()
		}
	}
	qs := oracleSupplyAirForHeat(heat, p.ZoneSetpointF, p.SupplyAirTempF)
	genPPM := a.CO2Ft3PerMin(demo) * hvac.SlotMinutes / zone.VolumeFt3 * 1e6
	qf := 0.0
	if den := p.CO2SetpointPPM - 420; den > 0 {
		qf = genPPM / den * zone.VolumeFt3 / hvac.SlotMinutes
	}
	q := math.Min(math.Max(qs, qf), p.MaxZoneCFM)
	fresh := math.Min(qf, q)
	tMix := oracleMixedAirTempF(hvac.Demand{SupplyCFM: q, FreshCFM: fresh}, outdoorF, p.ZoneSetpointF)
	watts := q*math.Max(0, tMix-p.SupplyAirTempF)*hvac.SensibleHeatFactor + q*p.FanWPerCFM
	kwh := watts * hvac.SlotMinutes / 60000
	rate := pricing.OffPeakUSDPerKWh
	if pricing.InPeak(slot) {
		rate = pricing.PeakUSDPerKWh
	}
	return kwh * rate
}

func oracleSupplyAirForHeat(heatW, zoneSetF, supplyF float64) float64 {
	dt := zoneSetF - supplyF
	if dt <= 0 || heatW <= 0 {
		return 0
	}
	return heatW / (hvac.SensibleHeatFactor * dt)
}

func oracleMixedAirTempF(dem hvac.Demand, outdoorF, returnF float64) float64 {
	if dem.SupplyCFM <= 0 {
		return returnF
	}
	frac := dem.FreshCFM / dem.SupplyCFM
	frac = math.Max(0, math.Min(1, frac))
	return frac*outdoorF + (1-frac)*returnF
}

// kernelHouses returns the houses the kernel test sweeps: ARAS A and B,
// eight SynthFleet homes (4-11 zones, 1-3 occupants), and a copy of A whose
// kitchen has zero volume, which drives the fresh-air demand to NaN.
func kernelHouses(t testing.TB) []*home.House {
	t.Helper()
	houses := []*home.House{home.MustHouse("A"), home.MustHouse("B")}
	for _, sp := range scenario.SynthFleet(8, 20230427) {
		h, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		houses = append(houses, h)
	}
	hollow := *home.MustHouse("A")
	hollow.Name = "A-zero-volume-kitchen"
	hollow.Zones = append([]home.Zone(nil), hollow.Zones...)
	hollow.Zones[home.Kitchen].VolumeFt3 = 0
	return append(houses, &hollow)
}

// TestOccupantTermBitExact requires the split kernel — the per-(occupant,
// zone, activity) term and its per-slot evaluation, and the
// OccupantSlotCost wrapper over them — to reproduce the single-call
// formula bit for bit over every zone, occupant and activity (plus
// out-of-range activity IDs), outdoor temperatures below, at and above the
// setpoint, the peak-window edges, and a CO2 setpoint on either side of
// the 420 ppm outdoor floor.
func TestOccupantTermBitExact(t *testing.T) {
	pricing := hvac.DefaultPricing()
	slots := []int{0, pricing.PeakStartSlot - 1, pricing.PeakStartSlot, pricing.PeakStartSlot + 1,
		12 * 60, pricing.PeakEndSlot - 1, pricing.PeakEndSlot, 1439}
	acts := []home.ActivityID{-1, home.NumActivities, home.NumActivities + 5}
	for a := home.ActivityID(0); a < home.NumActivities; a++ {
		acts = append(acts, a)
	}
	base := hvac.DefaultParams()
	temps := []float64{40, base.ZoneSetpointF - 0.5, base.ZoneSetpointF, base.ZoneSetpointF + 1e-9, 84, 104.5}
	lowCO2, floorCO2 := base, base
	lowCO2.CO2SetpointPPM = 400
	floorCO2.CO2SetpointPPM = 420
	cells, nans := 0, 0
	for _, house := range kernelHouses(t) {
		for _, params := range []hvac.Params{base, lowCO2, floorCO2} {
			m := hvac.NewCostModel(house, params, pricing)
			for o := range house.Occupants {
				for _, zone := range house.Zones {
					for _, act := range acts {
						term := m.OccupantTerm(o, zone.ID, act)
						for _, slot := range slots {
							for _, temp := range temps {
								want := oracleOccupantSlotCost(house, params, pricing, o, zone.ID, act, slot, temp)
								got := term.Cost(slot, temp)
								wrapped := m.OccupantSlotCost(o, zone.ID, act, slot, temp)
								if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(wrapped) != math.Float64bits(want) {
									t.Fatalf("%s occupant %d zone %v act %d slot %d temp %v CO2 %v: term %v (%#x), wrapper %v (%#x), oracle %v (%#x)",
										house.Name, o, zone.ID, act, slot, temp, params.CO2SetpointPPM,
										got, math.Float64bits(got), wrapped, math.Float64bits(wrapped), want, math.Float64bits(want))
								}
								cells++
								if math.IsNaN(want) {
									nans++
								}
							}
						}
					}
				}
			}
		}
	}
	if nans == 0 {
		t.Error("the zero-volume zone never exercised the NaN path")
	}
	t.Logf("%d cells bit-identical (%d NaN)", cells, nans)
}

// TestOccupantSlotCostAllocFree keeps the per-query surrogate path (the
// case study's CostFnFor, Fig 11) allocation-free.
func TestOccupantSlotCostAllocFree(t *testing.T) {
	for _, house := range kernelHouses(t) {
		m := hvac.NewCostModel(house, hvac.DefaultParams(), hvac.DefaultPricing())
		sink := 0.0
		allocs := testing.AllocsPerRun(100, func() {
			for _, zone := range house.Zones {
				for a := home.ActivityID(0); a < home.NumActivities; a++ {
					sink += m.OccupantSlotCost(0, zone.ID, a, 18*60, 88)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: OccupantSlotCost allocates %v times per sweep", house.Name, allocs)
		}
		_ = sink
	}
}
