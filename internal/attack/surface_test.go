package attack

import (
	"math"
	"testing"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
	"github.com/acyd-lab/shatter/internal/rng"
	"github.com/acyd-lab/shatter/internal/scenario"
)

// surfaceWorld is one cost-only planner of the surface tests.
type surfaceWorld struct {
	name string
	pl   *Planner
}

// surfaceWorlds returns cost-only planners for ARAS A and two SynthFleet
// homes over three days.
func surfaceWorlds(t *testing.T) []surfaceWorld {
	t.Helper()
	const days = 3
	a, err := aras.Generate(home.MustHouse("A"), aras.GeneratorConfig{Days: days, Seed: 777})
	if err != nil {
		t.Fatal(err)
	}
	names, traces := []string{"A"}, []*aras.Trace{a}
	for _, sp := range scenario.SynthFleet(2, 20230427) {
		tr, err := sp.Generate(days, 20230427)
		if err != nil {
			t.Fatal(err)
		}
		names, traces = append(names, sp.ID), append(traces, tr)
	}
	out := make([]surfaceWorld, len(traces))
	for i, tr := range traces {
		out[i] = surfaceWorld{names[i], &Planner{
			Trace: tr,
			Cost:  hvac.NewCostModel(tr.House, hvac.DefaultParams(), hvac.DefaultPricing()),
		}}
	}
	return out
}

// TestCostSurfaceBitExact requires the lazy surface to reproduce the eager
// costFor surrogate bit for bit at every (slot, zone) cell, whatever order
// the cells are queried in, with one scratch reused across occupant-days so
// a stale computed bit would surface as the previous day's value.
func TestCostSurfaceBitExact(t *testing.T) {
	r := rng.New(5)
	for _, w := range surfaceWorlds(t) {
		name, pl := w.name, w.pl
		nz := len(pl.Trace.House.Zones)
		type cell struct {
			slot int
			z    home.ZoneID
		}
		cells := make([]cell, 0, nz*aras.SlotsPerDay)
		for slot := 0; slot < aras.SlotsPerDay; slot++ {
			for z := 0; z < nz; z++ {
				cells = append(cells, cell{slot, home.ZoneID(z)})
			}
		}
		var s costSurface
		for d := 0; d < pl.Trace.NumDays(); d++ {
			for o := range pl.Trace.House.Occupants {
				want := pl.costFor(d, o)
				for pass := 0; pass < 2; pass++ {
					r.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
					got := s.reset(pl, d, o)
					for _, c := range cells {
						g, w := got(c.slot, c.z), want(c.slot, c.z)
						if math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%s day %d occupant %d pass %d: cell (slot %d, zone %d) = %v, costFor %v",
								name, d, o, pass, c.slot, c.z, g, w)
						}
					}
					// A second read of a computed cell returns the same bits.
					for _, c := range cells[:64] {
						if math.Float64bits(got(c.slot, c.z)) != math.Float64bits(want(c.slot, c.z)) {
							t.Fatalf("%s: cached cell (slot %d, zone %d) changed on re-read", name, c.slot, c.z)
						}
					}
				}
			}
		}
	}
}

// TestCostSurfaceZeroZones requires unconditioned zones and zones outside
// the house to cost zero, before and after the surface fills.
func TestCostSurfaceZeroZones(t *testing.T) {
	for _, w := range surfaceWorlds(t) {
		name, pl := w.name, w.pl
		nz := home.ZoneID(len(pl.Trace.House.Zones))
		var s costSurface
		cost := s.reset(pl, 1, 0)
		for _, slot := range []int{0, 600, aras.SlotsPerDay - 1} {
			for _, z := range []home.ZoneID{home.Outside, -1, nz, nz + 7} {
				if v := cost(slot, z); v != 0 {
					t.Errorf("%s: zone %d at slot %d costs %v, want 0", name, z, slot, v)
				}
			}
			for z := home.ZoneID(0); z < nz; z++ {
				cost(slot, z)
			}
			if v := cost(slot, home.Outside); v != 0 {
				t.Errorf("%s: Outside at slot %d costs %v after the fill, want 0", name, slot, v)
			}
		}
	}
}

// TestCostSurfaceZeroAllocs requires a warmed surface to reset and fill
// every cell of an occupant-day without allocating.
func TestCostSurfaceZeroAllocs(t *testing.T) {
	pl := surfaceWorlds(t)[0].pl
	nz := home.ZoneID(len(pl.Trace.House.Zones))
	var s costSurface
	day := 0
	fill := func() {
		cost := s.reset(pl, day%pl.Trace.NumDays(), day%len(pl.Trace.House.Occupants))
		day++
		for slot := 0; slot < aras.SlotsPerDay; slot++ {
			for z := home.ZoneID(0); z < nz; z++ {
				cost(slot, z)
			}
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(5, fill); allocs != 0 {
		t.Errorf("%.1f allocs per occupant-day fill after warm-up, want 0", allocs)
	}
}
