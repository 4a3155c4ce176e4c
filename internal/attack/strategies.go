package attack

import (
	"errors"
	"fmt"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
	"github.com/acyd-lab/shatter/internal/pool"
	"github.com/acyd-lab/shatter/internal/solver"
)

// Planner bundles what every strategy needs: the ground truth, the
// attacker's (possibly partial-knowledge) ADM estimate, the cost surrogate,
// and the capability model.
type Planner struct {
	Trace *aras.Trace
	// Model is the attacker's estimate of the deployed ADM — trained on all
	// of the training data or only a subset (Table IV/V's "attacker's
	// knowledge" axis).
	Model *adm.Model
	// Cost is the marginal-cost surrogate the optimiser maximises.
	Cost *hvac.CostModel
	// Cap is the attacker's access.
	Cap Capability
	// WindowLen is the optimisation horizon I (Eq 17); the paper uses 10.
	// Defaults to 10 when zero.
	WindowLen int
	// Workers bounds the occupant-day planning fan-out: the cells of a
	// campaign (one per occupant-day for SHATTER/Greedy, one per day for
	// BIoTA) are independent and spread across a bounded worker pool.
	// 0 uses one worker per CPU; 1 forces sequential planning. Plans are
	// identical for any worker count.
	Workers int
}

// planScratch is one planning worker's reusable state: the DP workspace and
// the lazily filled cost surface. Scratch never influences results, only
// allocation counts, so sharing one per worker preserves the Workers=1 ≡
// Workers=N determinism contract.
type planScratch struct {
	ws   solver.Workspace
	surf costSurface
}

// ErrNeedModel is returned when a strategy requires an ADM estimate.
var ErrNeedModel = errors.New("attack: planner requires an ADM model")

func (pl *Planner) windowLen() int {
	if pl.WindowLen <= 0 {
		return 10
	}
	return pl.WindowLen
}

// zonesOf lists reportable zones for the house.
func zonesOf(h *home.House) []home.ZoneID {
	zs := make([]home.ZoneID, 0, len(h.Zones))
	for _, z := range h.Zones {
		zs = append(zs, z.ID)
	}
	return zs
}

// costFor builds the surrogate CostFn for one occupant and day: the
// per-minute cost of the occupant reported in a zone with that zone's most
// intense activity (or the actual activity when reporting truthfully).
func (pl *Planner) costFor(day, occupant int) solver.CostFn {
	w := pl.Trace.Weather[day]
	dd := pl.Trace.Days[day]
	house := pl.Trace.House
	return func(slot int, z home.ZoneID) float64 {
		if !z.Conditioned() {
			return 0
		}
		act := house.MostIntenseActivity(z)
		if dd.Zone[occupant][slot] == z {
			act = dd.Act[occupant][slot]
		}
		return pl.Cost.OccupantSlotCost(occupant, z, act, slot, w.TempF[slot])
	}
}

// allowedFor builds the capability AllowedFn for one occupant and day.
func (pl *Planner) allowedFor(day, occupant int) solver.AllowedFn {
	dd := pl.Trace.Days[day]
	return func(slot int, z home.ZoneID) bool {
		return pl.Cap.CanReport(occupant, slot, dd.Zone[occupant][slot], z)
	}
}

// viableTerminal builds a window terminal check: the end state must be able
// to keep earning — continue the stay stealthily, exit into some covered
// zone, or coincide with ground truth (truth-telling can always continue).
// zones is the house's reportable zone list and bands the occupant's
// tabulated stay oracle, both hoisted by the caller so the
// per-terminal-state check allocates nothing. end points at the caller's
// current window end, so one closure serves every interior window of the
// occupant-day.
func (pl *Planner) viableTerminal(day, occupant int, end *int, zones []home.ZoneID, allowed solver.AllowedFn, bands *solver.StayBands) func(home.ZoneID, int) bool {
	return func(z home.ZoneID, arr int) bool {
		e := *end
		if e >= aras.SlotsPerDay {
			return true
		}
		if z == pl.Trace.Days[day].Zone[occupant][e] {
			return true // truth state: continuation is reality's problem
		}
		dur := e - arr
		if maxStay, ok := bands.MaxStayAt(z, arr); ok && dur+1 <= maxStay {
			return true // can keep staying
		}
		if !bands.InRange(z, arr, dur) {
			return false
		}
		for _, z2 := range zones {
			if z2 == z || !allowed(e, z2) {
				continue
			}
			if _, ok := bands.MaxStayAt(z2, e); ok {
				return true // can exit into a covered zone
			}
		}
		return false
	}
}

// CostFnFor exposes the planner's surrogate cost function for external
// harnesses (e.g. the Fig 11 scalability benchmarks drive the solver
// directly with it).
func (pl *Planner) CostFnFor(day, occupant int) solver.CostFn {
	return pl.costFor(day, occupant)
}

// actualArrival returns the start slot of the in-progress actual stay at
// the slot (scanning back within the day).
func actualArrival(trace *aras.Trace, day, occupant, slot int) int {
	zones := trace.Days[day].Zone[occupant]
	z := zones[slot]
	for slot > 0 && zones[slot-1] == z {
		slot--
	}
	return slot
}

// PlanSHATTER synthesises the paper's dynamic attack schedule: per
// occupant, per day, a chain of exactly optimised windows of length I
// (Section IV-C(a)), each solved with the DP engine against the attacker's
// ADM estimate and capability. Occupant-days are independent cells fanned
// across Workers; each worker recycles one DP workspace across its cells'
// ~144 windows.
func (pl *Planner) PlanSHATTER() (*Plan, error) {
	if pl.Model == nil {
		return nil, ErrNeedModel
	}
	p := newPlan(pl.Trace, "SHATTER")
	zones := zonesOf(pl.Trace.House)
	occ := len(pl.Trace.House.Occupants)
	cells := pl.Trace.NumDays() * occ
	// Each cell reports its infeasible-window count to its own slot; the
	// plan total is folded in index order, independent of pool width.
	infeasible := make([]int, cells)
	scratch := make([]planScratch, pool.Width(pl.Workers, cells))
	err := pool.RunIndexed(pl.Workers, cells, func(worker, i int) error {
		d, o := i/occ, i%occ
		n, err := pl.shatterDay(p, &scratch[worker], d, o, zones)
		infeasible[i] = n
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, n := range infeasible {
		p.InfeasibleWindows += n
	}
	return p, nil
}

// shatterDay plans one occupant-day: the chain of optimised windows, the
// truth floor, and the sanitisation pass. It writes only the (d, o) rows of
// the plan, which is what makes occupant-days safe to fan out.
func (pl *Planner) shatterDay(p *Plan, st *planScratch, d, o int, zones []home.ZoneID) (infeasible int, err error) {
	bands := pl.Model.StayBands(o)
	iLen := pl.windowLen()
	cost := st.surf.reset(pl, d, o)
	allowed := pl.allowedFor(d, o)
	// The terminal closures are hoisted out of the window loop (one
	// allocation per occupant-day instead of per window) and read the
	// current interior-window end through this variable.
	var end int
	// Final window of the day: the midnight-cut episode the ADM will see
	// must itself lie within a cluster.
	terminalFinal := func(z home.ZoneID, arr int) bool {
		return bands.InRange(z, arr, aras.SlotsPerDay-arr)
	}
	// Interior window: score terminal states by how much the in-progress
	// stay can still earn next window, countering horizon myopia — and
	// require terminal states to be viable (able to continue or exit
	// stealthily) so a window cannot strand the next one in a dead end.
	terminalBonus := func(z home.ZoneID, arr int) float64 {
		maxStay, ok := bands.MaxStayAt(z, arr)
		if !ok {
			return 0
		}
		remaining := maxStay - (end - arr)
		if remaining <= 0 {
			return 0
		}
		if remaining > iLen {
			remaining = iLen
		}
		slot := end
		if slot >= aras.SlotsPerDay {
			slot = aras.SlotsPerDay - 1
		}
		return float64(remaining) * cost(slot, z)
	}
	terminalViable := pl.viableTerminal(d, o, &end, zones, allowed, bands)
	// Day starts truth-telling: occupants begin where they really
	// are (typically asleep), with the day-split arrival at slot 0.
	zone := pl.Trace.Days[d].Zone[o][0]
	arrival := 0
	for start := 0; start < aras.SlotsPerDay; start += iLen {
		length := iLen
		if start+length > aras.SlotsPerDay {
			length = aras.SlotsPerDay - start
		}
		w := solver.Window{
			Occupant:     o,
			StartSlot:    start,
			Length:       length,
			StartZone:    zone,
			StartArrival: arrival,
			Zones:        zones,
		}
		if start+length == aras.SlotsPerDay {
			w.TerminalOK = terminalFinal
		} else {
			end = start + length
			w.TerminalBonus = terminalBonus
			w.TerminalOK = terminalViable
		}
		sched, _, err := solver.OptimizeWindowBands(&st.ws, w, bands, cost, allowed)
		if err != nil {
			return infeasible, fmt.Errorf("attack: day %d occupant %d window %d: %w", d, o, start, err)
		}
		if !sched.Feasible && w.TerminalOK != nil && start+length != aras.SlotsPerDay {
			// No viable terminal existed; accept any terminal and
			// let the next window's fallback deal with dead ends.
			w.TerminalOK = nil
			sched, _, err = solver.OptimizeWindowBands(&st.ws, w, bands, cost, allowed)
			if err != nil {
				return infeasible, fmt.Errorf("attack: day %d occupant %d window %d: %w", d, o, start, err)
			}
		}
		if !sched.Feasible {
			infeasible++
			// Fall back to truth for this window.
			for i := 0; i < length; i++ {
				p.setReport(pl.Trace, d, o, start+i, pl.Trace.Days[d].Zone[o][start+i])
			}
			last := start + length - 1
			zone = pl.Trace.Days[d].Zone[o][last]
			arrival = actualArrival(pl.Trace, d, o, last)
			continue
		}
		for i, z := range sched.Zones {
			p.setReport(pl.Trace, d, o, start+i, z)
		}
		zone, arrival = sched.EndZone, sched.EndArrival
	}
	pl.applyTruthFloor(p, d, o, cost)
	pl.sanitizeDay(p, d, o)
	return infeasible, nil
}

// applyTruthFloor reverts an occupant-day to truth when the optimised
// schedule's surrogate value falls below simply not attacking (δ = 0 is
// always available to the attacker; hull constraints never apply to
// reality-as-reported). cost is the occupant-day surrogate, supplied by the
// caller so the lazy surface is shared with the optimiser.
func (pl *Planner) applyTruthFloor(p *Plan, day, occupant int, cost solver.CostFn) {
	var scheduled, truth float64
	for t := 0; t < aras.SlotsPerDay; t++ {
		scheduled += cost(t, p.RepZone[day][occupant][t])
		truth += cost(t, pl.Trace.Days[day].Zone[occupant][t])
	}
	if scheduled >= truth {
		return
	}
	for t := 0; t < aras.SlotsPerDay; t++ {
		p.setReport(pl.Trace, day, occupant, t, pl.Trace.Days[day].Zone[occupant][t])
	}
}

// sanitizeDay censors residual anomalies: any injected reported episode the
// attacker's own model would flag (window-boundary artefacts, lenient-start
// exits) is reverted to truth, iterating to a fixpoint since reverting can
// merge neighbouring episodes. If anomalous injections survive the
// iteration cap the whole occupant-day reverts to truth — the attacker
// never knowingly ships a flagged vector.
func (pl *Planner) sanitizeDay(p *Plan, day, occupant int) {
	// The natural-episode index and the episode buffer are invariant across
	// fixpoint iterations; build/allocate them once.
	natural := naturalEpisodeSet(pl.Trace, day, occupant)
	var episodes []ReportedEpisode
	for iter := 0; iter < 64; iter++ {
		changed := 0
		anomalous := 0
		episodes = p.appendDayReportedEpisodes(episodes[:0], pl.Trace, day, occupant, natural)
		for _, e := range episodes {
			if !e.Injected || !pl.Model.EpisodeAnomalous(e.Episode) {
				continue
			}
			anomalous++
			end := e.ArrivalSlot + e.Duration
			for t := e.ArrivalSlot; t < end; t++ {
				if p.RepZone[day][occupant][t] != pl.Trace.Days[day].Zone[occupant][t] {
					changed++
				}
				p.setReport(pl.Trace, day, occupant, t, pl.Trace.Days[day].Zone[occupant][t])
			}
		}
		if anomalous == 0 {
			return
		}
		if changed == 0 {
			break // stuck: reverting altered nothing (distorted truth episodes)
		}
	}
	// Whole-day revert.
	for t := 0; t < aras.SlotsPerDay; t++ {
		p.setReport(pl.Trace, day, occupant, t, pl.Trace.Days[day].Zone[occupant][t])
	}
}

// PlanGreedy implements Algorithm 2: whenever the in-progress reported stay
// can exit stealthily, move to the zone with the highest instantaneous cost
// and commit to its maximum stealthy stay. The strategy's weaknesses — no
// lookahead and maxStay commitments — are exactly what the Section V case
// study demonstrates: it gets trapped (e.g. Bob parked Outside) where the
// windowed SHATTER schedule keeps earning.
func (pl *Planner) PlanGreedy() (*Plan, error) {
	if pl.Model == nil {
		return nil, ErrNeedModel
	}
	p := newPlan(pl.Trace, "Greedy")
	zones := zonesOf(pl.Trace.House)
	occ := len(pl.Trace.House.Occupants)
	cells := pl.Trace.NumDays() * occ
	scratch := make([]planScratch, pool.Width(pl.Workers, cells))
	err := pool.RunIndexed(pl.Workers, cells, func(worker, i int) error {
		d, o := i/occ, i%occ
		cost := scratch[worker].surf.reset(pl, d, o)
		pl.greedyDay(p, d, o, zones, cost)
		pl.applyTruthFloor(p, d, o, cost)
		pl.sanitizeDay(p, d, o)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// greedyDay walks one occupant-day as a consistency-checked state machine.
// zones is the house's reportable zone list and cost the occupant-day
// surrogate, both hoisted by the caller.
func (pl *Planner) greedyDay(p *Plan, d, o int, zones []home.ZoneID, cost solver.CostFn) {
	bands := pl.Model.StayBands(o)
	allowed := pl.allowedFor(d, o)
	zone := pl.Trace.Days[d].Zone[o][0]
	arrival := 0
	commitUntil := 0 // committed stay end (Algorithm 2's duration)
	_, startCovered := bands.MaxStayAt(zone, arrival)
	lenient := !startCovered
	for t := 0; t < aras.SlotsPerDay; t++ {
		dur := t - arrival
		canExit := dur >= 1 && (lenient || bands.InRange(zone, arrival, dur))
		// Will the current stay still be stealthy through slot t?
		maxStay, covered := bands.MaxStayAt(zone, arrival)
		mustMove := !(lenient || (covered && dur+1 <= maxStay)) || !allowed(t, zone)
		if canExit && (t >= commitUntil || mustMove) {
			// Re-choose: the highest-paying zone whose arrival is covered.
			bestZone, bestCost := home.ZoneID(-1), -1.0
			var bestMax int
			for _, z := range zones {
				if z == zone || !allowed(t, z) {
					continue
				}
				ms, ok := bands.MaxStayAt(z, t)
				if !ok || ms < 1 {
					continue
				}
				if c := cost(t, z); c > bestCost {
					bestZone, bestCost, bestMax = z, c, ms
				}
			}
			if bestZone >= 0 && (mustMove || bestCost > cost(t, zone)) {
				zone, arrival, lenient = bestZone, t, false
				commitUntil = t + bestMax
				if commitUntil > aras.SlotsPerDay {
					commitUntil = aras.SlotsPerDay
				}
				mustMove = false
			}
		}
		if mustMove {
			// No stealthy option: fall back to reporting the truth.
			zone = pl.Trace.Days[d].Zone[o][t]
			arrival = actualArrival(pl.Trace, d, o, t)
			_, cov := bands.MaxStayAt(zone, arrival)
			lenient = !cov
			commitUntil = t
		}
		p.setReport(pl.Trace, d, o, t, zone)
	}
}

// PlanBIoTA reproduces the state-of-the-art baseline the paper compares
// against (Table V): a greedy FDI attack that maximises instantaneous
// demand subject only to rule-based verification (zone capacity, occupant
// conservation) — no behavioural ADM awareness. Its vectors keep a large
// margin from the benign distribution, which is why the clustering ADMs
// flag 60-100% of them (Section VII-A).
func (pl *Planner) PlanBIoTA() (*Plan, error) {
	p := newPlan(pl.Trace, "BIoTA")
	house := pl.Trace.House
	zones := zonesOf(house)
	// Hoist the loop invariants: zone capacities once, and per worker a
	// zone-indexed occupancy counter plus per-occupant cost surrogates
	// (rebuilt per day) in place of per-slot maps. Days are independent
	// cells — the capacity rule couples occupants within a slot, so the
	// fan-out is per day, not per occupant-day.
	maxOcc := make([]int, len(house.Zones))
	for _, z := range zones {
		maxOcc[z] = house.Zone(z).MaxOccupancy
	}
	type biotaScratch struct {
		counts []int
		costs  []solver.CostFn
		surfs  []costSurface
	}
	days := pl.Trace.NumDays()
	scratch := make([]biotaScratch, pool.Width(pl.Workers, days))
	err := pool.RunIndexed(pl.Workers, days, func(worker, d int) error {
		st := &scratch[worker]
		if st.counts == nil {
			st.counts = make([]int, len(house.Zones))
			st.costs = make([]solver.CostFn, len(house.Occupants))
			st.surfs = make([]costSurface, len(house.Occupants))
		}
		for o := range st.costs {
			st.costs[o] = st.surfs[o].reset(pl, d, o)
		}
		for t := 0; t < aras.SlotsPerDay; t++ {
			counts := st.counts
			for z := range counts {
				counts[z] = 0
			}
			for o := range house.Occupants {
				cost := st.costs[o]
				actual := pl.Trace.Days[d].Zone[o][t]
				bestZone, bestCost := actual, cost(t, actual)
				for _, z := range zones {
					if !pl.Cap.CanReport(o, t, actual, z) {
						continue
					}
					// Rule-based capacity verification.
					if counts[z]+1 > maxOcc[z] {
						continue
					}
					if c := cost(t, z); c > bestCost {
						bestZone, bestCost = z, c
					}
				}
				counts[bestZone]++
				p.setReport(pl.Trace, d, o, t, bestZone)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
