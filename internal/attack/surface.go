package attack

import (
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
	"github.com/acyd-lab/shatter/internal/solver"
)

// costSurface is a planning worker's lazily filled occupant-day cost
// surrogate: the value of costFor at each (zone, slot) cell, computed on
// the first query and cached. The schedule optimisers query the surrogate
// many times per cell but, with the DP walking only live states, read a
// fraction of the zone × SlotsPerDay cells; only those are evaluated. A
// cell's value is the same OccupantTerm.Cost call costFor makes, so its
// bits do not depend on which cells were queried before it. The cost terms
// are built once per (zone, activity) on first use. Reset it per
// occupant-day; it is not safe for concurrent use.
type costSurface struct {
	cost       *hvac.CostModel
	house      *home.House
	occupant   int
	temp       []float64
	actualZone []home.ZoneID
	actualAct  []home.ActivityID
	nz         int

	// val[c] is cell c = zone·SlotsPerDay + slot, valid when bit c of
	// computed is set.
	val      []float64
	computed []uint64
	// termIdx[zone·NumActivities + act] is 1 + the index in terms of the
	// cell's cost term, or 0 while the term is unbuilt.
	termIdx []int32
	terms   []hvac.OccupantTerm
	// fn is the surface's bound CostFn, made once per scratch.
	fn solver.CostFn
}

// reset points the surface at one occupant-day of the planner's trace,
// forgetting every computed cell and cost term, and returns its CostFn.
func (s *costSurface) reset(pl *Planner, day, occupant int) solver.CostFn {
	s.cost, s.house, s.occupant = pl.Cost, pl.Trace.House, occupant
	s.temp = pl.Trace.Weather[day].TempF
	s.actualZone = pl.Trace.Days[day].Zone[occupant]
	s.actualAct = pl.Trace.Days[day].Act[occupant]
	s.nz = len(s.house.Zones)
	cells := s.nz * aras.SlotsPerDay
	if cap(s.val) < cells {
		s.val = make([]float64, cells)
		s.computed = make([]uint64, (cells+63)/64)
	}
	s.val = s.val[:cells]
	s.computed = s.computed[:(cells+63)/64]
	clear(s.computed)
	if n := s.nz * home.NumActivities; cap(s.termIdx) < n {
		s.termIdx = make([]int32, n)
	} else {
		s.termIdx = s.termIdx[:n]
		clear(s.termIdx)
	}
	s.terms = s.terms[:0]
	if s.fn == nil {
		s.fn = s.at
	}
	return s.fn
}

// at is the surface's CostFn: the occupant's cost reported in zone z at
// slot, zero for unconditioned zones and zones outside the house.
func (s *costSurface) at(slot int, z home.ZoneID) float64 {
	if z < 0 || int(z) >= s.nz || !z.Conditioned() {
		return 0
	}
	c := int(z)*aras.SlotsPerDay + slot
	if s.computed[c>>6]&(1<<(c&63)) != 0 {
		return s.val[c]
	}
	act := s.house.MostIntenseActivity(z)
	if s.actualZone[slot] == z {
		act = s.actualAct[slot]
	}
	t := s.term(z, act)
	v := t.Cost(slot, s.temp[slot])
	s.val[c] = v
	s.computed[c>>6] |= 1 << (c & 63)
	return v
}

// term returns the occupant's cost term for (z, act), building it on first
// use. Activities outside the label set are built uncached.
func (s *costSurface) term(z home.ZoneID, act home.ActivityID) hvac.OccupantTerm {
	if act < 0 || act >= home.NumActivities {
		return s.cost.OccupantTerm(s.occupant, z, act)
	}
	k := int(z)*home.NumActivities + int(act)
	if s.termIdx[k] == 0 {
		s.terms = append(s.terms, s.cost.OccupantTerm(s.occupant, z, act))
		s.termIdx[k] = int32(len(s.terms))
	}
	return s.terms[s.termIdx[k]-1]
}
