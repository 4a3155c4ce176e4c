package hvac

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/boolcol"
	"github.com/acyd-lab/shatter/internal/home"
)

// DayInput is one whole day of boundary conditions and observations in
// struct-of-arrays layout: per-slot weather columns plus per-occupant and
// per-appliance columns of aras.SlotsPerDay entries each. It is the HVAC
// half of the streaming layer's DayBlock — StepDay advances a full day over
// these contiguous columns without materializing 1440 per-slot StepInputs.
// All slices are read synchronously during StepDay and may be reused by the
// caller afterwards.
type DayInput struct {
	// OutdoorTempF and OutdoorCO2PPM are the day's weather columns.
	OutdoorTempF  []float64
	OutdoorCO2PPM []float64
	// BelievedZone[o][t] / BelievedAct[o][t] are the controller's per-slot
	// observation of occupant o (View semantics; falsified under attack).
	BelievedZone [][]home.ZoneID
	BelievedAct  [][]home.ActivityID
	// BelievedAppliance[a][t] is the believed status column of appliance a.
	BelievedAppliance [][]bool
	// ActualZone/ActualAct/ActualAppliance are the ground-truth columns that
	// drive the plant's CO2 mass balance and the energy metering.
	ActualZone      [][]home.ZoneID
	ActualAct       [][]home.ActivityID
	ActualAppliance [][]bool
}

// ErrNotDayBoundary is returned when StepDay is called with the simulator
// positioned mid-day; day batching only composes with whole-day advancement.
var ErrNotDayBoundary = errors.New("hvac: StepDay only at a day boundary")

// ErrNonFiniteWeather is returned when a DayInput weather column holds a
// NaN or an infinity. StepDay refuses such a day before touching any state,
// so a bad frame surfaces as a typed error instead of a NaN bill.
var ErrNonFiniteWeather = errors.New("hvac: non-finite weather")

func (in *DayInput) validate(house *home.House) error {
	if len(in.OutdoorTempF) != aras.SlotsPerDay || len(in.OutdoorCO2PPM) != aras.SlotsPerDay {
		return fmt.Errorf("hvac: DayInput weather columns sized %d/%d, want %d",
			len(in.OutdoorTempF), len(in.OutdoorCO2PPM), aras.SlotsPerDay)
	}
	occ, appl := len(house.Occupants), len(house.Appliances)
	if len(in.BelievedZone) != occ || len(in.BelievedAct) != occ ||
		len(in.ActualZone) != occ || len(in.ActualAct) != occ {
		return fmt.Errorf("hvac: DayInput occupant columns sized %d/%d/%d/%d, want %d",
			len(in.BelievedZone), len(in.BelievedAct), len(in.ActualZone), len(in.ActualAct), occ)
	}
	if len(in.BelievedAppliance) != appl || len(in.ActualAppliance) != appl {
		return fmt.Errorf("hvac: DayInput appliance columns sized %d/%d, want %d",
			len(in.BelievedAppliance), len(in.ActualAppliance), appl)
	}
	for o := 0; o < occ; o++ {
		if len(in.BelievedZone[o]) != aras.SlotsPerDay || len(in.BelievedAct[o]) != aras.SlotsPerDay ||
			len(in.ActualZone[o]) != aras.SlotsPerDay || len(in.ActualAct[o]) != aras.SlotsPerDay {
			return fmt.Errorf("hvac: DayInput occupant %d column not %d slots", o, aras.SlotsPerDay)
		}
	}
	for a := 0; a < appl; a++ {
		if len(in.BelievedAppliance[a]) != aras.SlotsPerDay || len(in.ActualAppliance[a]) != aras.SlotsPerDay {
			return fmt.Errorf("hvac: DayInput appliance %d column not %d slots", a, aras.SlotsPerDay)
		}
	}
	if t := firstNonFinite(in.OutdoorTempF); t >= 0 {
		return fmt.Errorf("%w: outdoor temperature %v at slot %d", ErrNonFiniteWeather, in.OutdoorTempF[t], t)
	}
	if t := firstNonFinite(in.OutdoorCO2PPM); t >= 0 {
		return fmt.Errorf("%w: outdoor CO2 %v at slot %d", ErrNonFiniteWeather, in.OutdoorCO2PPM[t], t)
	}
	return nil
}

// firstNonFinite returns the index of col's first NaN or ±Inf (all
// exponent bits set), or -1.
func firstNonFinite(col []float64) int {
	const exp = 0x7ff << 52
	for t, v := range col {
		if math.Float64bits(v)&exp == exp {
			return t
		}
	}
	return -1
}

// A day's columns are compared eight slots per word, so the day must be a
// whole number of 8-slot groups.
const _ uint = -(aras.SlotsPerDay % 8)

const (
	slotGroups = aras.SlotsPerDay / 8         // 8-slot groups per day
	maskWords  = (aras.SlotsPerDay + 63) / 64 // words of a one-bit-per-slot mask
)

// changeMask has bit t set when some believed or actual column of the day
// differs between slots t-1 and t, so the set bits are the starts of the
// day's constant segments (slot 0 always starts one; its bit is unused).
type changeMask [maskWords]uint64

// next returns the first slot after t whose bit is set, or
// aras.SlotsPerDay: the exclusive end of the segment holding t.
func (m *changeMask) next(t int) int {
	t++
	if t >= aras.SlotsPerDay {
		return aras.SlotsPerDay
	}
	w := t >> 6
	if word := m[w] >> (t & 63); word != 0 {
		return t + bits.TrailingZeros64(word)
	}
	for w++; w < maskWords; w++ {
		if m[w] != 0 {
			return w<<6 + bits.TrailingZeros64(m[w])
		}
	}
	return aras.SlotsPerDay
}

// build fills the mask from every believed and actual column of in. Bool
// columns are XOR-ed with themselves shifted by one slot, eight slots per
// word, into diff (byte i of diff[g] is 1 where some bool column changes
// at slot 8g+i), which is then packed into the mask; int columns set their
// bits slot by slot.
func (m *changeMask) build(in *DayInput) {
	var diff [slotGroups]uint64
	for a := range in.BelievedAppliance {
		orBoolChanges(&diff, in.BelievedAppliance[a], in.ActualAppliance[a])
	}
	*m = changeMask{}
	for g, x := range diff {
		m[g>>3] |= uint64(boolcol.Pack8(x)) << (8 * (g & 7))
	}
	for o := range in.BelievedZone {
		markChanges(m, in.BelievedZone[o])
		markChanges(m, in.BelievedAct[o])
		markChanges(m, in.ActualZone[o])
		markChanges(m, in.ActualAct[o])
	}
}

// orBoolChanges ORs the slot-to-slot changes of two bool columns into
// diff, one 8-slot group per word: each group's bytes XOR the same bytes
// one slot earlier (the group shifted up a byte, with the previous group's
// last byte below). Slot 0 is compared with itself.
func orBoolChanges(diff *[slotGroups]uint64, c1, c2 []bool) {
	b1 := boolcol.Bytes(c1)[:aras.SlotsPerDay]
	b2 := boolcol.Bytes(c2)[:aras.SlotsPerDay]
	p1, p2 := uint64(b1[0]), uint64(b2[0])
	for g := range diff {
		x1, x2 := binary.LittleEndian.Uint64(b1), binary.LittleEndian.Uint64(b2)
		diff[g] |= (x1 ^ (x1<<8 | p1)) | (x2 ^ (x2<<8 | p2))
		p1, p2 = x1>>56, x2>>56
		b1, b2 = b1[8:], b2[8:]
	}
}

// markChanges sets bit t of m wherever col[t] != col[t-1]. Columns are
// piecewise constant, so it tests eight slots with one branch and walks
// only the groups that hold a change.
func markChanges[T ~int](m *changeMask, col []T) {
	c := (*[aras.SlotsPerDay]T)(col)
	prev := c[0]
	for g := 0; g < slotGroups; g++ {
		w := (*[8]T)(c[8*g:])
		if (w[0]^prev)|(w[1]^w[0])|(w[2]^w[1])|(w[3]^w[2])|(w[4]^w[3])|(w[5]^w[4])|(w[6]^w[5])|(w[7]^w[6]) != 0 {
			for i, v := range w {
				if v != prev {
					t := 8*g + i
					m[t>>6] |= 1 << (t & 63)
				}
				prev = v
			}
		}
		prev = w[7]
	}
}

// dayScratch holds StepDay's reusable per-zone/per-appliance working state.
type dayScratch struct {
	envUA    []float64 // per zone: EnvelopeUAWPerF2·AreaFt2
	heatBase []float64 // believed occupant+appliance heat, before envelope
	genBel   []float64 // believed CO2 generation (controller's qf input), then ppm per slot
	genAct   []float64 // ground-truth CO2 generation (plant mass balance), then ppm per slot
	fresh    []float64 // delivered fresh CFM this slot, per zone
	occupied []bool
	zonesBel []int     // conditioned zones with believed occupancy, ascending
	zonesCO2 []int     // conditioned zones needing a CO2 update, ascending
	onW      []float64 // PowerW of the actually-on appliances, ascending
	onKWh    []float64 // their per-slot kWh

	// Generic-controller fallback: per-slot StepInput views over the columns.
	believed    []OccupantObs
	actual      []OccupantObs
	believedApp []bool
	actualApp   []bool
}

func (sc *dayScratch) ensure(house *home.House) {
	nz, occ, appl := len(house.Zones), len(house.Occupants), len(house.Appliances)
	if len(sc.heatBase) != nz {
		sc.envUA = make([]float64, nz)
		sc.heatBase = make([]float64, nz)
		sc.genBel = make([]float64, nz)
		sc.genAct = make([]float64, nz)
		sc.fresh = make([]float64, nz)
		sc.occupied = make([]bool, nz)
		sc.zonesBel = make([]int, 0, nz)
		sc.zonesCO2 = make([]int, 0, nz)
	}
	if len(sc.believed) != occ {
		sc.believed = make([]OccupantObs, occ)
		sc.actual = make([]OccupantObs, occ)
	}
	if len(sc.believedApp) != appl {
		sc.believedApp = make([]bool, appl)
		sc.actualApp = make([]bool, appl)
		sc.onW = make([]float64, 0, appl)
		sc.onKWh = make([]float64, 0, appl)
	}
}

// StepDay advances the plant and the accounting by one whole day over the
// struct-of-arrays columns. Results are bit-identical to aras.SlotsPerDay
// sequential Step calls over the same data: the paper-controller fast path
// re-derives per-zone loads only at slots where some believed or actual
// column changes value (occupancy and appliance schedules are piecewise-
// constant, so a day has ~10² segments rather than 1440 independent slots)
// while keeping every floating-point accumulation in the per-slot order.
// Controllers other than SHATTERController fall back to per-slot Step calls
// over reused scratch, which is the equivalence definition itself. A day
// with non-finite weather is refused with ErrNonFiniteWeather.
func (s *Sim) StepDay(in *DayInput) error {
	if s.slot != 0 {
		return fmt.Errorf("%w (day %d slot %d)", ErrNotDayBoundary, s.day, s.slot)
	}
	if err := in.validate(s.house); err != nil {
		return err
	}
	s.scratch.ensure(s.house)
	if c, ok := s.ctrl.(*SHATTERController); ok {
		s.stepDaySHATTER(c, in)
		return nil
	}
	sc := &s.scratch
	for t := 0; t < aras.SlotsPerDay; t++ {
		for o := range sc.believed {
			sc.believed[o] = OccupantObs{Zone: in.BelievedZone[o][t], Activity: in.BelievedAct[o][t]}
			sc.actual[o] = OccupantObs{Zone: in.ActualZone[o][t], Activity: in.ActualAct[o][t]}
		}
		for a := range sc.believedApp {
			sc.believedApp[a] = in.BelievedAppliance[a][t]
			sc.actualApp[a] = in.ActualAppliance[a][t]
		}
		s.Step(StepInput{
			OutdoorTempF:      in.OutdoorTempF[t],
			OutdoorCO2PPM:     in.OutdoorCO2PPM[t],
			Believed:          sc.believed,
			BelievedAppliance: sc.believedApp,
			ActualOccupants:   sc.actual,
			ActualAppliance:   sc.actualApp,
		})
	}
	return nil
}

// stepDaySHATTER is the segment-amortized day stepper for the paper's
// controller. The day's change mask splits it into segments — maximal slot
// runs where every believed and actual column is constant — over which the
// per-zone occupant/appliance loads, the active-zone sets, and the plant's
// CO2 generation terms are fixed, so they are derived once per segment
// (with additions in exactly the per-slot order) and only the weather-,
// CO2- and pricing-dependent terms run per slot. Every hoisted value is
// the same expression on the same operands as in Step and
// SHATTERController.Plan, the energy and cost sums run in locals in the
// per-slot order, and fmin/fmax are math.Min/math.Max bit for bit, so the
// results stay bit-identical.
func (s *Sim) stepDaySHATTER(c *SHATTERController, in *DayInput) {
	cp := c.Params // the controller's planning parameters
	sp := s.params // the plant's metering parameters
	pr := &s.pricing
	sc := &s.scratch
	house := s.house
	zoneCO2 := s.zoneCO2
	// Day-boundary bookkeeping, exactly as Step's slot-0 branch.
	for zi := range zoneCO2 {
		if zoneCO2[zi] == 0 {
			zoneCO2[zi] = in.OutdoorCO2PPM[0]
		}
	}
	// The day's sums start at zero like Step's freshly appended entries.
	var dayKWh, dayCost, peakKWh float64
	zoneKWh := s.res.ZoneCoilKWh
	coilKWh, fanKWh, applKWh, baseKWh := s.res.CoilKWh, s.res.FanKWh, s.res.ApplianceKWh, s.res.BaseKWh
	// supplyAirForHeat's temperature difference and divisor.
	dt := cp.ZoneSetpointF - cp.SupplyAirTempF
	heatDen := SensibleHeatFactor * dt
	baseSlotKWh := sp.BaseLoadW * SlotMinutes / 60000
	for zi := range house.Zones {
		sc.envUA[zi] = cp.EnvelopeUAWPerF2 * house.Zones[zi].AreaFt2
	}

	var mask changeMask
	mask.build(in)
	for t0 := 0; t0 < aras.SlotsPerDay; {
		t1 := mask.next(t0)
		// Per-zone believed loads, occupant adds then appliance adds — the
		// accumulation order SHATTERController.Plan uses.
		for zi := range sc.heatBase {
			sc.heatBase[zi], sc.genBel[zi], sc.genAct[zi], sc.fresh[zi] = 0, 0, 0, 0
			sc.occupied[zi] = false
		}
		for o := range in.BelievedZone {
			z := in.BelievedZone[o][t0]
			if !z.Conditioned() {
				continue
			}
			demo := house.Occupants[o].Demographics
			act := home.ActivityByID(in.BelievedAct[o][t0])
			sc.heatBase[z] += act.HeatW(demo)
			sc.genBel[z] += act.CO2Ft3PerMin(demo)
			sc.occupied[z] = true
		}
		for ai := range house.Appliances {
			if in.BelievedAppliance[ai][t0] {
				appl := &house.Appliances[ai]
				sc.heatBase[appl.Zone] += appl.HeatW()
			}
		}
		// Ground-truth CO2 generation (occupant adds in o order, as stepCO2).
		for o := range in.ActualZone {
			z := in.ActualZone[o][t0]
			if !z.Conditioned() {
				continue
			}
			demo := house.Occupants[o].Demographics
			act := home.ActivityByID(in.ActualAct[o][t0])
			sc.genAct[z] += act.CO2Ft3PerMin(demo)
		}
		// Active sets, ascending zone/appliance index so skipped entries
		// match the zero entries the per-slot loops skip. Generation is
		// converted to ppm per slot here, as freshAirForCO2 and stepCO2 do.
		sc.zonesBel, sc.zonesCO2 = sc.zonesBel[:0], sc.zonesCO2[:0]
		for zi := range house.Zones {
			z := &house.Zones[zi]
			if !z.ID.Conditioned() {
				continue
			}
			if sc.occupied[zi] {
				sc.zonesBel = append(sc.zonesBel, zi)
				if !(z.VolumeFt3 <= 0) {
					sc.genBel[zi] = sc.genBel[zi] * SlotMinutes / z.VolumeFt3 * 1e6
				}
			}
			// Zones with neither delivered fresh air nor generation keep
			// their CO2 unchanged ((1-0)·C + 0·out + 0 = C), so only zones
			// with a possible demand or positive generation need the update.
			if z.VolumeFt3 > 0 && (sc.occupied[zi] || sc.genAct[zi] != 0) {
				sc.zonesCO2 = append(sc.zonesCO2, zi)
				sc.genAct[zi] = sc.genAct[zi] * SlotMinutes / z.VolumeFt3 * 1e6
			}
		}
		sc.onW, sc.onKWh = sc.onW[:0], sc.onKWh[:0]
		for ai := range house.Appliances {
			if in.ActualAppliance[ai][t0] {
				w := house.Appliances[ai].PowerW
				sc.onW = append(sc.onW, w)
				sc.onKWh = append(sc.onKWh, w*SlotMinutes/60000)
			}
		}

		for t := t0; t < t1; t++ {
			outT, outC := in.OutdoorTempF[t], in.OutdoorCO2PPM[t]
			envDT := fmax(0, outT-cp.ZoneSetpointF)
			var slotW float64
			for _, zi := range sc.zonesBel {
				vol := house.Zones[zi].VolumeFt3
				// Plan: envelope gain on top of the segment's base load.
				heat := sc.heatBase[zi] + sc.envUA[zi]*envDT
				qs := 0.0 // supplyAirForHeat; a NaN heat divides, as there
				if !(dt <= 0 || heat <= 0) {
					qs = heat / heatDen
				}
				qf := 0.0 // freshAirForCO2
				if !(vol <= 0) {
					qf = freshAirForPPM(sc.genBel[zi], vol, zoneCO2[zi], outC, cp.CO2SetpointPPM)
				}
				q := fmin(fmax(qs, qf), cp.MaxZoneCFM)
				fresh := fmin(qf, q)
				sc.fresh[zi] = fresh
				if q <= 0 {
					continue
				}
				// Meter: Step's energy loop over the demanded zones.
				tMix := mixedAirTempF(Demand{SupplyCFM: q, FreshCFM: fresh}, outT, sp.ZoneSetpointF)
				coilW := q * fmax(0, tMix-sp.SupplyAirTempF) * SensibleHeatFactor
				fanW := q * sp.FanWPerCFM
				slotW += coilW + fanW
				kwh := (coilW + fanW) * SlotMinutes / 60000
				coilKWh += coilW * SlotMinutes / 60000
				fanKWh += fanW * SlotMinutes / 60000
				zoneKWh[zi] += kwh
			}
			for i, w := range sc.onW {
				slotW += w
				applKWh += sc.onKWh[i]
			}
			slotW += sp.BaseLoadW
			baseKWh += baseSlotKWh

			slotKWh := slotW * SlotMinutes / 60000
			rate := pr.RateAt(t, peakKWh)
			if pr.InPeak(t) {
				peakKWh += slotKWh
			}
			dayKWh += slotKWh
			dayCost += slotKWh * rate

			for _, zi := range sc.zonesCO2 {
				vol := house.Zones[zi].VolumeFt3
				r := fmin(sc.fresh[zi]*SlotMinutes/vol, 1)
				zoneCO2[zi] = (1-r)*zoneCO2[zi] + r*outC + sc.genAct[zi]
			}
		}
		t0 = t1
	}
	s.res.CoilKWh, s.res.FanKWh, s.res.ApplianceKWh, s.res.BaseKWh = coilKWh, fanKWh, applKWh, baseKWh
	s.res.DailyKWh = append(s.res.DailyKWh, dayKWh)
	s.res.DailyCostUSD = append(s.res.DailyCostUSD, dayCost)
	s.peakKWh = peakKWh
	s.res.TotalCostUSD += dayCost
	s.res.TotalKWh += dayKWh
	s.day++
}
