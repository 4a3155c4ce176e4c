package attack

import "testing"

// BenchmarkCostTable times one occupant-day cost-surface tabulation (the
// zone × SlotsPerDay surrogate behind every planning cell), cycling over
// the occupant-days of a 12-day ARAS A trace with one reused scratch.
func BenchmarkCostTable(b *testing.B) {
	f := newFixture(b, "A", 12)
	pl := f.planner(Full(f.trace.House))
	occ := len(f.trace.House.Occupants)
	cells := f.trace.NumDays() * occ
	var sc surfaceScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := i % cells
		pl.costTableFn(c/occ, c%occ, &sc)
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
