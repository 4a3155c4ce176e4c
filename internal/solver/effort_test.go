package solver

import (
	"testing"

	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/rng"
)

// effortCase is one window whose DP effort is pinned.
type effortCase struct {
	name    string
	w       Window
	oracle  mapOracle
	allowed AllowedFn
	// nodes is Stats.NodesExpanded, identical for both forward passes.
	nodes int
}

// effortCases builds the fixed windows of TestDPNodesExpandedPinned: the
// hand-written cases first, then seeded random windows drawn like
// TestBandsDPMatchesOracleDP's.
func effortCases() []effortCase {
	covered := mapOracle{
		home.Outside:    {1, 600},
		home.Bedroom:    {2, 60},
		home.Livingroom: {2, 60},
		home.Kitchen:    {2, 60},
		home.Bathroom:   {2, 60},
	}
	bounce := mapOracle{
		home.Kitchen:    {2, 4},
		home.Livingroom: {2, 60},
		home.Bedroom:    {2, 60},
		home.Outside:    {2, 60},
		home.Bathroom:   {2, 60},
	}
	never := func(int, home.ZoneID) bool { return false }
	noKitchen := func(_ int, z home.ZoneID) bool { return z != home.Kitchen }
	cases := []effortCase{
		{name: "covered", oracle: covered, allowed: allAllowed, nodes: 226, w: Window{
			StartSlot: 100, Length: 10, StartZone: home.Bedroom, StartArrival: 95, Zones: allZones}},
		{name: "max-stay-bounce", oracle: bounce, allowed: allAllowed, nodes: 293, w: Window{
			StartSlot: 50, Length: 12, StartZone: home.Livingroom, StartArrival: 45, Zones: allZones}},
		{name: "long", oracle: bounce, allowed: noKitchen, nodes: 1629, w: Window{
			StartSlot: 300, Length: 30, StartZone: home.Kitchen, StartArrival: 298, Zones: allZones}},
		{name: "start-lenient", allowed: allAllowed, nodes: 36,
			oracle: mapOracle{home.Kitchen: {2, 30}, home.Outside: {1, 600}},
			w:      Window{StartSlot: 20, Length: 6, StartZone: home.Bedroom, StartArrival: 15, Zones: allZones}},
		{name: "start-lenient-tight", allowed: noKitchen, nodes: 69,
			oracle: mapOracle{home.Outside: {3, 5}, home.Bathroom: {2, 3}},
			w:      Window{StartSlot: 700, Length: 10, StartZone: home.Livingroom, StartArrival: 690, Zones: allZones}},
		{name: "infeasible-nothing-allowed", oracle: mapOracle{}, allowed: never, nodes: 1, w: Window{
			StartSlot: 10, Length: 5, StartZone: home.Bedroom, StartArrival: 8, Zones: allZones}},
		{name: "infeasible-terminal", oracle: covered, allowed: allAllowed, nodes: 226, w: Window{
			StartSlot: 100, Length: 10, StartZone: home.Bedroom, StartArrival: 95, Zones: allZones,
			TerminalOK: func(home.ZoneID, int) bool { return false }}},
		{name: "infeasible-overstay", oracle: mapOracle{home.Bedroom: {1, 3}}, allowed: allAllowed, nodes: 2, w: Window{
			StartSlot: 40, Length: 8, StartZone: home.Bedroom, StartArrival: 38, Zones: allZones}},
		{name: "terminal-bonus", oracle: bounce, allowed: noKitchen, nodes: 173, w: Window{
			StartSlot: 1000, Length: 10, StartZone: home.Outside, StartArrival: 990, Zones: allZones,
			TerminalBonus: func(z home.ZoneID, arr int) float64 { return float64(int(z) * (arr % 7)) }}},
	}
	random := []int{123, 182, 168, 244, 102, 85, 3, 135, 35, 206, 38, 124}
	r := rng.New(1234)
	for i, nodes := range random {
		oracle := mapOracle{}
		for _, z := range allZones {
			if r.Intn(4) == 0 && z != home.Outside {
				continue
			}
			lo := 1 + r.Intn(3)
			oracle[z] = [2]int{lo, lo + r.Intn(20)}
		}
		blocked := allZones[r.Intn(len(allZones))]
		start := 60 + r.Intn(1200)
		length := 3 + r.Intn(12)
		w := Window{
			StartSlot:    start,
			Length:       length,
			StartZone:    allZones[r.Intn(len(allZones))],
			StartArrival: start - r.Intn(10),
			Zones:        allZones,
		}
		cases = append(cases, effortCase{
			name:    "random-" + string(rune('a'+i)),
			w:       w,
			oracle:  oracle,
			allowed: func(_ int, z home.ZoneID) bool { return z != blocked },
			nodes:   nodes,
		})
	}
	return cases
}

// TestDPNodesExpandedPinned pins Stats.NodesExpanded of both forward
// passes on fixed windows, including lenient starts and infeasible
// windows. The counts were taken from the dense (t, z, a) scan; a pass
// that visits only live states must expand exactly the same cells.
func TestDPNodesExpandedPinned(t *testing.T) {
	var wsA, wsB Workspace
	for _, c := range effortCases() {
		bands := bandsFromMap(c.oracle, len(allZones), 1440)
		sa, sta, err := OptimizeWindowWS(&wsA, c.w, c.oracle, zoneCost, c.allowed)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_, stb, err := OptimizeWindowBands(&wsB, c.w, bands, zoneCost, c.allowed)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if sta.NodesExpanded != c.nodes || stb.NodesExpanded != c.nodes {
			t.Errorf("%s: NodesExpanded oracle %d, bands %d, want %d (feasible=%v)",
				c.name, sta.NodesExpanded, stb.NodesExpanded, c.nodes, sa.Feasible)
		}
	}
}
