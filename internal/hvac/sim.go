package hvac

import (
	"errors"
	"math"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
)

// TraceView is the benign View: the controller's beliefs equal ground truth.
// The observation buffer is reused across Occupants calls, so an instance
// must not be shared between concurrent simulations.
type TraceView struct {
	Trace *aras.Trace

	obs []OccupantObs
}

var _ View = (*TraceView)(nil)

// Occupants implements View. The returned slice is valid until the next
// call.
func (v *TraceView) Occupants(day, slot int) []OccupantObs {
	d := v.Trace.Days[day]
	if cap(v.obs) < len(d.Zone) {
		v.obs = make([]OccupantObs, len(d.Zone))
	}
	obs := v.obs[:len(d.Zone)]
	for o := range d.Zone {
		obs[o] = OccupantObs{Zone: d.Zone[o][slot], Activity: d.Act[o][slot]}
	}
	return obs
}

// ApplianceOn implements View.
func (v *TraceView) ApplianceOn(day, slot, appliance int) bool {
	return v.Trace.Days[day].Appliance[appliance][slot]
}

// Options configures a simulation run.
type Options struct {
	// View supplies controller beliefs; nil means the benign TraceView.
	View View
	// ActualApplianceOn reports the true status of an appliance (actual
	// electrical draw). Nil means the trace's recorded statuses. Attacks
	// that really trigger appliances override this.
	ActualApplianceOn func(day, slot, appliance int) bool
}

// Result aggregates a simulation.
type Result struct {
	Controller string
	// DailyCostUSD and DailyKWh are per-day totals.
	DailyCostUSD []float64
	DailyKWh     []float64
	// Energy decomposition over the whole run.
	CoilKWh      float64
	FanKWh       float64
	ApplianceKWh float64
	BaseKWh      float64
	// ZoneCoilKWh attributes coil+fan energy to zones.
	ZoneCoilKWh []float64
	// TotalCostUSD and TotalKWh are run totals.
	TotalCostUSD float64
	TotalKWh     float64
}

// ErrEmptyTrace is returned when the trace has no days.
var ErrEmptyTrace = errors.New("hvac: empty trace")

// Simulate runs the controller over the full trace and returns cost/energy
// accounting per Eqs 3-4. The plant CO2 state evolves from ground-truth
// occupancy and the delivered fresh airflow; the controller acts on the
// (possibly falsified) View.
//
// Simulate is the batch shell over the incremental Sim.Step core: it builds
// one StepInput per slot from the trace and the view and drains the stepper,
// so batch and streaming execution are equivalent by construction.
func Simulate(trace *aras.Trace, ctrl Controller, params Params, pricing Pricing, opts Options) (Result, error) {
	if trace.NumDays() == 0 {
		return Result{}, ErrEmptyTrace
	}
	sim, err := NewSim(trace.House, ctrl, params, pricing)
	if err != nil {
		return Result{}, err
	}
	view := opts.View
	if view == nil {
		view = &TraceView{Trace: trace}
	}
	actualAppl := opts.ActualApplianceOn
	if actualAppl == nil {
		actualAppl = func(day, slot, a int) bool {
			return trace.Days[day].Appliance[a][slot]
		}
	}
	house := trace.House
	in := StepInput{
		BelievedAppliance: make([]bool, len(house.Appliances)),
		ActualOccupants:   make([]OccupantObs, len(house.Occupants)),
		ActualAppliance:   make([]bool, len(house.Appliances)),
	}
	for d := 0; d < trace.NumDays(); d++ {
		w := trace.Weather[d]
		day := trace.Days[d]
		for t := 0; t < aras.SlotsPerDay; t++ {
			in.OutdoorTempF = w.TempF[t]
			in.OutdoorCO2PPM = w.CO2PPM[t]
			in.Believed = view.Occupants(d, t)
			for ai := range house.Appliances {
				in.BelievedAppliance[ai] = view.ApplianceOn(d, t, ai)
				in.ActualAppliance[ai] = actualAppl(d, t, ai)
			}
			for o := range house.Occupants {
				in.ActualOccupants[o] = OccupantObs{Zone: day.Zone[o][t], Activity: day.Act[o][t]}
			}
			sim.Step(in)
		}
	}
	return sim.Result(), nil
}

// mixedAirTempF returns the AHU mixing-chamber temperature for a demand:
// the fresh fraction at outdoor temperature, the rest at return (zone
// setpoint) temperature.
func mixedAirTempF(dem Demand, outdoorF, returnF float64) float64 {
	if dem.SupplyCFM <= 0 {
		return returnF
	}
	frac := dem.FreshCFM / dem.SupplyCFM
	frac = max(0, min(1, frac))
	return frac*outdoorF + (1-frac)*returnF
}

// CostModel is the additive surrogate objective the attack optimiser
// maximises: the $ cost of one believed occupant conducting an activity in
// a zone for one minute, and of one triggered appliance running for one
// minute, each evaluated on demand. Its one precomputed table is, per
// (activity, zone), the heats of the activity's habitual appliances
// installed in that zone; it is immutable, so planners may share one model
// across workers. Exact attack costs are re-evaluated with Simulate after
// scheduling (Section V's case-study accounting).
type CostModel struct {
	house   *home.House
	params  Params
	pricing Pricing
	// applHeatW[act*len(house.Zones)+z] lists the heats of act's habitual
	// appliances installed in zone z, in AppliancesForActivity order.
	applHeatW [][]float64
}

// NewCostModel builds a CostModel.
func NewCostModel(house *home.House, params Params, pricing Pricing) *CostModel {
	nz := len(house.Zones)
	heats := make([][]float64, home.NumActivities*nz)
	for act := home.ActivityID(0); act < home.NumActivities; act++ {
		for _, ai := range house.AppliancesForActivity(act) {
			appl := house.Appliances[ai]
			if appl.Zone >= 0 && int(appl.Zone) < nz {
				i := int(act)*nz + int(appl.Zone)
				heats[i] = append(heats[i], appl.HeatW())
			}
		}
	}
	return &CostModel{house: house, params: params, pricing: pricing, applHeatW: heats}
}

// OccupantTerm is the slot-independent part of the occupant cost for one
// (occupant, zone, activity): the activity heat, the envelope coefficient,
// the zone's habitual-appliance heats and the steady-state fresh-air
// demand. Build it once and evaluate it at many slots with Cost; a term is
// a plain value, so callers keep it on the stack or in their own scratch.
type OccupantTerm struct {
	m *CostModel
	// constant marks a term that costs value at every slot.
	constant bool
	value    float64
	// actHeatW is the activity's sensible heat for the occupant (P^HR).
	actHeatW float64
	// envUA is the zone's envelope conductance UA·area, in W/°F.
	envUA float64
	// applHeatW are the heats of the activity's habitual appliances in the
	// zone, in AppliancesForActivity order (shared with the model).
	applHeatW []float64
	// freshCFM is the steady-state fresh air that holds the CO2 setpoint
	// against the occupant's generation.
	freshCFM float64
}

// OccupantTerm builds the cost term of occupant reported in zone z
// performing activity act. An unconditioned zone costs 0 at every slot. A
// zone whose fresh-air demand is undefined (zero volume) costs NaN at every
// slot, returned as math.NaN() so its bits do not depend on how min and
// max propagate NaN payloads.
func (m *CostModel) OccupantTerm(occupant int, z home.ZoneID, act home.ActivityID) OccupantTerm {
	if !z.Conditioned() {
		return OccupantTerm{constant: true}
	}
	p := m.params
	zone := m.house.Zone(z)
	demo := m.house.Occupants[occupant].Demographics
	a := home.ActivityByID(act)
	t := OccupantTerm{
		m:        m,
		actHeatW: a.HeatW(demo),
		envUA:    p.EnvelopeUAWPerF2 * zone.AreaFt2,
	}
	// The activity-appliance relationship: a reported activity carries its
	// habitual appliances' status (δ^D in the attack vector), so their heat
	// becomes believed cooling load.
	if act >= 0 && act < home.NumActivities {
		t.applHeatW = m.applHeatW[int(act)*len(m.house.Zones)+int(z)]
	}
	// Steady-state fresh air to hold the setpoint against this occupant's
	// generation: r·(set − out) = genPPM.
	genPPM := a.CO2Ft3PerMin(demo) * SlotMinutes / zone.VolumeFt3 * 1e6
	if den := p.CO2SetpointPPM - 420; den > 0 {
		t.freshCFM = genPPM / den * zone.VolumeFt3 / SlotMinutes
	}
	if math.IsNaN(t.freshCFM) {
		return OccupantTerm{constant: true, value: math.NaN()}
	}
	return t
}

// Cost returns the term's marginal per-minute USD cost at slot
// (minute-of-day) under outdoor temperature outdoorF, assuming the zone is
// otherwise unconditioned (so the envelope load activates with the
// occupant).
func (t *OccupantTerm) Cost(slot int, outdoorF float64) float64 {
	if t.constant {
		return t.value
	}
	p := &t.m.params
	heat := t.actHeatW + t.envUA*max(0, outdoorF-p.ZoneSetpointF)
	// Appliance heats are added one at a time after the envelope term and
	// never pre-summed: floating-point addition is not associative, and a
	// pre-summed total would change the surface's bits.
	for _, w := range t.applHeatW {
		heat += w
	}
	qs := supplyAirForHeat(heat, p.ZoneSetpointF, p.SupplyAirTempF)
	q := min(max(qs, t.freshCFM), p.MaxZoneCFM)
	fresh := min(t.freshCFM, q)
	tMix := mixedAirTempF(Demand{SupplyCFM: q, FreshCFM: fresh}, outdoorF, p.ZoneSetpointF)
	watts := q*max(0, tMix-p.SupplyAirTempF)*SensibleHeatFactor + q*p.FanWPerCFM
	kwh := watts * SlotMinutes / 60000
	return kwh * t.m.rateApprox(slot)
}

// OccupantSlotCost returns the marginal per-minute USD cost of a believed
// occupant in zone z performing activity act at slot (minute-of-day) under
// outdoor temperature outdoorF: OccupantTerm evaluated at one slot. It does
// not allocate.
func (m *CostModel) OccupantSlotCost(occupant int, z home.ZoneID, act home.ActivityID, slot int, outdoorF float64) float64 {
	t := m.OccupantTerm(occupant, z, act)
	return t.Cost(slot, outdoorF)
}

// ApplianceSlotCost returns the marginal per-minute USD cost of appliance
// ai running at slot: its electrical draw plus the induced coil load in its
// (conditioned) zone.
func (m *CostModel) ApplianceSlotCost(ai, slot int, outdoorF float64) float64 {
	p := m.params
	appl := m.house.Appliances[ai]
	watts := appl.PowerW
	if appl.Zone.Conditioned() {
		qs := supplyAirForHeat(appl.HeatW(), p.ZoneSetpointF, p.SupplyAirTempF)
		qs = math.Min(qs, p.MaxZoneCFM)
		tMix := mixedAirTempF(Demand{SupplyCFM: qs}, outdoorF, p.ZoneSetpointF)
		watts += qs*math.Max(0, tMix-p.SupplyAirTempF)*SensibleHeatFactor + qs*p.FanWPerCFM
	}
	kwh := watts * SlotMinutes / 60000
	return kwh * m.rateApprox(slot)
}

// rateApprox prices a slot ignoring battery state (the surrogate does not
// track cumulative peak energy; Simulate re-applies Eq 4 exactly).
func (m *CostModel) rateApprox(slot int) float64 {
	if m.pricing.InPeak(slot) {
		return m.pricing.PeakUSDPerKWh
	}
	return m.pricing.OffPeakUSDPerKWh
}
