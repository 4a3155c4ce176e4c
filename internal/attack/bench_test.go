package attack

import (
	"testing"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
)

// BenchmarkCostSurface times filling every cell of one occupant-day's lazy
// cost surface (the BIoTA worst case: every zone at every slot), cycling
// over the occupant-days of a 12-day ARAS A trace with one reused scratch.
func BenchmarkCostSurface(b *testing.B) {
	f := newFixture(b, "A", 12)
	pl := f.planner(Full(f.trace.House))
	occ := len(f.trace.House.Occupants)
	cells := f.trace.NumDays() * occ
	nz := home.ZoneID(len(f.trace.House.Zones))
	var s costSurface
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := i % cells
		cost := s.reset(pl, c/occ, c%occ)
		for t := 0; t < aras.SlotsPerDay; t++ {
			for z := home.ZoneID(0); z < nz; z++ {
				cost(t, z)
			}
		}
	}
}

// BenchmarkPlanSHATTER times a whole SHATTER campaign over a 12-day ARAS A
// trace on one worker: cost surfaces, the window DP, the truth floor and
// sanitisation.
func BenchmarkPlanSHATTER(b *testing.B) {
	f := newFixture(b, "A", 12)
	pl := f.planner(Full(f.trace.House))
	pl.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.PlanSHATTER(); err != nil {
			b.Fatal(err)
		}
	}
}
