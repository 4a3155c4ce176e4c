package solver

import (
	"math"
	"reflect"
	"testing"

	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/rng"
)

// bandsFromMap tabulates a mapOracle over nSlots arrival slots so the
// specialized band pass can be cross-validated against the interface pass
// on identical stay semantics.
func bandsFromMap(o mapOracle, nZones, nSlots int) *StayBands {
	b := &StayBands{
		Slots:   nSlots,
		Covered: make([]bool, nZones*nSlots),
		MinStay: make([]int32, nZones*nSlots),
		MaxStay: make([]int32, nZones*nSlots),
		IvOff:   make([]int32, nZones*nSlots+1),
		Tol:     1e-9,
	}
	for z := 0; z < nZones; z++ {
		band, ok := o[home.ZoneID(z)]
		for t := 0; t < nSlots; t++ {
			c := z*nSlots + t
			b.IvOff[c] = int32(len(b.IvLo))
			if !ok {
				continue
			}
			b.Covered[c] = true
			b.MinStay[c] = int32(band[0])
			b.MaxStay[c] = int32(band[1])
			b.IvLo = append(b.IvLo, float64(band[0]))
			b.IvHi = append(b.IvHi, float64(band[1]))
		}
	}
	b.IvOff[nZones*nSlots] = int32(len(b.IvLo))
	return b
}

// TestBandsQueriesMatchOracle locks the StayBands accessors to the oracle
// they tabulate.
func TestBandsQueriesMatchOracle(t *testing.T) {
	oracle := mapOracle{
		home.Outside:    {1, 600},
		home.Bedroom:    {2, 14},
		home.Kitchen:    {3, 7},
		home.Livingroom: {2, 25},
	}
	b := bandsFromMap(oracle, len(allZones), 300)
	for _, z := range allZones {
		for arr := 0; arr < 300; arr += 13 {
			wantMax, wantOK := oracle.MaxStay(0, z, arr)
			gotMax, gotOK := b.MaxStayAt(z, arr)
			if gotOK != wantOK || (wantOK && gotMax != wantMax) {
				t.Fatalf("z=%v arr=%d: MaxStayAt (%d,%v) != oracle (%d,%v)", z, arr, gotMax, gotOK, wantMax, wantOK)
			}
			for stay := 0; stay < 30; stay++ {
				if got, want := b.InRange(z, arr, stay), oracle.InRangeStay(0, z, arr, stay); got != want {
					t.Fatalf("z=%v arr=%d stay=%d: InRange %v != oracle %v", z, arr, stay, got, want)
				}
			}
		}
	}
	// Out-of-table queries read as uncovered, never panic.
	if _, ok := b.MaxStayAt(home.Bedroom, -1); ok {
		t.Error("negative arrival should be uncovered")
	}
	if _, ok := b.MaxStayAt(home.Bedroom, 300); ok {
		t.Error("past-table arrival should be uncovered")
	}
	if _, ok := b.MaxStayAt(home.ZoneID(99), 10); ok {
		t.Error("zone beyond the table should be uncovered")
	}
	if b.InRange(home.ZoneID(99), 10, 5) {
		t.Error("zone beyond the table should never be in range")
	}
}

// TestBandsDPMatchesOracleDP is the lock between the two forward passes:
// over randomized stay bands, windows, and capabilities, OptimizeWindowBands
// must reproduce OptimizeWindowWS exactly — value, feasibility, schedule,
// end state, and node count.
func TestBandsDPMatchesOracleDP(t *testing.T) {
	r := rng.New(42)
	const nSlots = 400
	var wsA, wsB Workspace
	for trial := 0; trial < 40; trial++ {
		oracle := mapOracle{}
		for _, z := range allZones {
			if r.Intn(6) == 0 && z != home.Outside {
				continue // leave the zone uncovered
			}
			lo := 1 + r.Intn(3)
			oracle[z] = [2]int{lo, lo + r.Intn(25)}
		}
		costTbl := map[home.ZoneID]float64{}
		for _, z := range allZones {
			costTbl[z] = r.Range(0, 10)
		}
		cost := func(_ int, z home.ZoneID) float64 { return costTbl[z] }
		blocked := allZones[r.Intn(len(allZones))]
		allowed := func(_ int, z home.ZoneID) bool { return z != blocked }
		start := 50 + r.Intn(200)
		w := Window{
			Occupant:     0,
			StartSlot:    start,
			Length:       4 + r.Intn(9),
			StartZone:    allZones[r.Intn(len(allZones))],
			StartArrival: start - r.Intn(8),
			Zones:        allZones,
		}
		if trial%3 == 0 {
			w.TerminalOK = func(z home.ZoneID, arr int) bool { return z != home.Kitchen }
		}
		if trial%4 == 0 {
			w.TerminalBonus = func(z home.ZoneID, arr int) float64 { return costTbl[z] * float64(arr%5) }
		}
		bands := bandsFromMap(oracle, len(allZones), nSlots)
		sa, sta, errA := OptimizeWindowWS(&wsA, w, oracle, cost, allowed)
		sb, stb, errB := OptimizeWindowBands(&wsB, w, bands, cost, allowed)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("trial %d: error mismatch %v vs %v", trial, errA, errB)
		}
		if errA != nil {
			continue
		}
		if sta != stb {
			t.Fatalf("trial %d: stats %+v != %+v", trial, sta, stb)
		}
		if sa.Feasible != sb.Feasible || math.Abs(sa.Value-sb.Value) > 1e-12 ||
			sa.EndZone != sb.EndZone || sa.EndArrival != sb.EndArrival ||
			!reflect.DeepEqual(sa.Zones, sb.Zones) {
			t.Fatalf("trial %d: schedules diverge:\noracle: %+v\nbands:  %+v", trial, sa, sb)
		}
	}
}

// TestWorkspaceEpochReuse asserts the reused workspace gives the
// same answers across a chain of windows of varying sizes as fresh
// workspaces do — stale cells from earlier (including larger) windows must
// never leak into a later solve.
func TestWorkspaceEpochReuse(t *testing.T) {
	oracle := mapOracle{
		home.Outside:    {1, 600},
		home.Bedroom:    {2, 20},
		home.Livingroom: {2, 30},
		home.Kitchen:    {2, 6},
		home.Bathroom:   {2, 9},
	}
	var shared Workspace
	r := rng.New(7)
	for trial := 0; trial < 25; trial++ {
		start := 100 + r.Intn(500)
		w := Window{
			StartSlot:    start,
			Length:       2 + r.Intn(12), // varying sizes force regrowth and shrink
			StartZone:    home.Bedroom,
			StartArrival: start - 1 - r.Intn(5),
			Zones:        allZones,
		}
		got, _, err := OptimizeWindowWS(&shared, w, oracle, zoneCost, allAllowed)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := OptimizeWindow(w, oracle, zoneCost, allAllowed)
		if err != nil {
			t.Fatal(err)
		}
		if got.Feasible != want.Feasible || math.Abs(got.Value-want.Value) > 1e-12 ||
			!reflect.DeepEqual(got.Zones, want.Zones) {
			t.Fatalf("trial %d: shared workspace diverges: %+v vs %+v", trial, got, want)
		}
	}
}

// TestWorkspaceClearsLiveSet solves a long window that reaches many cells,
// then a shorter window on the same workspace: the second solve must match
// a fresh workspace's, so no live bit of the longer window survives into
// the shorter one's (smaller) table.
func TestWorkspaceClearsLiveSet(t *testing.T) {
	oracle := mapOracle{
		home.Outside:    {1, 600},
		home.Bedroom:    {1, 40},
		home.Livingroom: {1, 40},
		home.Kitchen:    {1, 40},
		home.Bathroom:   {1, 40},
	}
	bands := bandsFromMap(oracle, len(allZones), 1440)
	long := Window{
		StartSlot: 200, Length: 40,
		StartZone: home.Bedroom, StartArrival: 190,
		Zones: allZones,
	}
	short := Window{
		StartSlot: 900, Length: 7,
		StartZone: home.Kitchen, StartArrival: 899,
		Zones: allZones,
	}
	shortOracle := mapOracle{home.Kitchen: {1, 3}, home.Bathroom: {2, 30}}
	shortBands := bandsFromMap(shortOracle, len(allZones), 1440)
	var ws Workspace
	_, stLong, err := OptimizeWindowWS(&ws, long, oracle, zoneCost, allAllowed)
	if err != nil {
		t.Fatal(err)
	}
	if stLong.NodesExpanded < 1000 {
		t.Fatalf("long window expanded only %d nodes; it must fill the live set", stLong.NodesExpanded)
	}
	got, st, err := OptimizeWindowWS(&ws, short, shortOracle, zoneCost, allAllowed)
	if err != nil {
		t.Fatal(err)
	}
	want, wantSt, err := OptimizeWindow(short, shortOracle, zoneCost, allAllowed)
	if err != nil {
		t.Fatal(err)
	}
	if st != wantSt || got.Feasible != want.Feasible || got.Value != want.Value ||
		got.EndZone != want.EndZone || got.EndArrival != want.EndArrival ||
		!reflect.DeepEqual(got.Zones, want.Zones) {
		t.Fatalf("reused workspace diverges: %+v %+v vs fresh %+v %+v", got, st, want, wantSt)
	}
	// The same order through the tabulated pass.
	if _, _, err := OptimizeWindowBands(&ws, long, bands, zoneCost, allAllowed); err != nil {
		t.Fatal(err)
	}
	got, st, err = OptimizeWindowBands(&ws, short, shortBands, zoneCost, allAllowed)
	if err != nil {
		t.Fatal(err)
	}
	var fresh Workspace
	want, wantSt, err = OptimizeWindowBands(&fresh, short, shortBands, zoneCost, allAllowed)
	if err != nil {
		t.Fatal(err)
	}
	if st != wantSt || got.Feasible != want.Feasible || got.Value != want.Value ||
		got.EndZone != want.EndZone || got.EndArrival != want.EndArrival ||
		!reflect.DeepEqual(got.Zones, want.Zones) {
		t.Fatalf("reused bands workspace diverges: %+v %+v vs fresh %+v %+v", got, st, want, wantSt)
	}
}

// TestDPWindowZeroAllocs is the allocation-regression gate for the DP hot
// path: after warm-up, a window solve (both passes) allocates nothing.
func TestDPWindowZeroAllocs(t *testing.T) {
	oracle := mapOracle{
		home.Outside:    {1, 600},
		home.Bedroom:    {2, 20},
		home.Livingroom: {2, 30},
		home.Kitchen:    {2, 6},
		home.Bathroom:   {2, 9},
	}
	bands := bandsFromMap(oracle, len(allZones), 1440)
	w := Window{
		StartSlot: 600, Length: 10,
		StartZone: home.Bedroom, StartArrival: 595,
		Zones: allZones,
	}
	var ws Workspace
	solveOracle := func() {
		if _, _, err := OptimizeWindowWS(&ws, w, oracle, zoneCost, allAllowed); err != nil {
			t.Fatal(err)
		}
	}
	solveBands := func() {
		if _, _, err := OptimizeWindowBands(&ws, w, bands, zoneCost, allAllowed); err != nil {
			t.Fatal(err)
		}
	}
	solveOracle() // warm the workspace
	if allocs := testing.AllocsPerRun(50, solveOracle); allocs != 0 {
		t.Errorf("OptimizeWindowWS: %.1f allocs/window after warm-up, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, solveBands); allocs != 0 {
		t.Errorf("OptimizeWindowBands: %.1f allocs/window after warm-up, want 0", allocs)
	}
}
