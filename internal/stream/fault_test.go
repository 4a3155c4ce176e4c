package stream

import (
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
)

// traceSrc builds a small deterministic source for fault-layer tests.
func traceSrc(t *testing.T, days int) *TraceSource {
	t.Helper()
	house := home.MustHouse("A")
	tr, err := aras.Generate(house, aras.GeneratorConfig{Days: days, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return NewTraceSource("A", tr)
}

// TestFaultPlanDeterminism: the fault schedule is a pure function of
// (config, home, attempt, day) — two plans for the same coordinates roll
// the same sequence, and different homes or attempts diverge.
func TestFaultPlanDeterminism(t *testing.T) {
	cfg := &FaultConfig{Seed: 42, Drop: 0.1, Duplicate: 0.1, Delay: 0.1, Corrupt: 0.1}
	roll := func(home string, attempt, n int) []FaultClass {
		p := cfg.Plan(home, attempt)
		if p == nil {
			t.Fatalf("plan (%s,%d) unexpectedly clean", home, attempt)
		}
		out := make([]FaultClass, n)
		for i := range out {
			out[i], _ = p.RollDay(i)
		}
		return out
	}
	a := roll("h1", 0, 500)
	b := roll("h1", 0, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("roll %d diverges for identical coordinates", i)
		}
	}
	diff := func(x, y []FaultClass) bool {
		for i := range x {
			if x[i] != y[i] {
				return true
			}
		}
		return false
	}
	if !diff(a, roll("h2", 0, 500)) {
		t.Fatal("different homes share a schedule")
	}
	if !diff(a, roll("h1", 1, 500)) {
		t.Fatal("different attempts share a schedule")
	}
}

// TestFaultPlanCleanAttempt pins the retry-escape hatch: attempts past
// CleanAttempt run fault-free, the default is two faulty attempts, and a
// negative value keeps every attempt faulty.
func TestFaultPlanCleanAttempt(t *testing.T) {
	cfg := &FaultConfig{Seed: 1, Drop: 1}
	if cfg.Plan("h", 0) == nil || cfg.Plan("h", 1) == nil {
		t.Fatal("default faulty attempts missing")
	}
	if cfg.Plan("h", 2) != nil {
		t.Fatal("default clean attempt still faulty")
	}
	cfg.CleanAttempt = 1
	if cfg.Plan("h", 0) == nil || cfg.Plan("h", 1) != nil {
		t.Fatal("CleanAttempt=1 schedule wrong")
	}
	cfg.CleanAttempt = -1
	if cfg.Plan("h", 10) == nil {
		t.Fatal("negative CleanAttempt produced a clean attempt")
	}
	var nilCfg *FaultConfig
	if nilCfg.Plan("h", 0) != nil {
		t.Fatal("nil config produced a plan")
	}
}

// plan1 returns a plan whose every roll is the given class.
func plan1(t *testing.T, set func(*FaultConfig)) *FaultPlan {
	t.Helper()
	cfg := &FaultConfig{Seed: 3, CleanAttempt: -1, MaxDelay: 100 * time.Microsecond}
	set(cfg)
	p := cfg.Plan("h", 0)
	if p == nil {
		t.Fatal("nil plan")
	}
	return p
}

// TestFaultSourceClasses drives each fault class through the direct-path
// day-block wrapper and checks the manufactured failure mode.
func TestFaultSourceClasses(t *testing.T) {
	t.Run("drop", func(t *testing.T) {
		// Dropping every day frame consumes the stream to its end — but
		// losing the tail must never complete the home silently short, so
		// EOF after an unsurfaced drop is an injected-fault error.
		fs := NewFaultSource(traceSrc(t, 2), plan1(t, func(c *FaultConfig) { c.Drop = 1 }), nil)
		var b DayBlock
		if err := fs.NextBlock(&b); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("err = %v, want injected fault (tail dropped)", err)
		}
	})
	t.Run("drop-final-day", func(t *testing.T) {
		// Only the last day is lost: every delivered frame is in sequence,
		// so the loss surfaces as an error at EOF instead of a gap.
		plan := dayPlan(t, func(c *FaultConfig) { c.Drop = 0.5 }, FaultNone, FaultDrop)
		fs := NewFaultSource(traceSrc(t, 2), plan, nil)
		var b DayBlock
		if err := fs.NextBlock(&b); err != nil || b.Day != 0 {
			t.Fatalf("first frame: day %d, err %v; want day 0", b.Day, err)
		}
		if err := fs.NextBlock(&b); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("err = %v, want injected fault (final day dropped)", err)
		}
	})
	t.Run("duplicate", func(t *testing.T) {
		fs := NewFaultSource(traceSrc(t, 2), plan1(t, func(c *FaultConfig) { c.Duplicate = 1 }), nil)
		var a, b, c DayBlock
		for _, dst := range []*DayBlock{&a, &b, &c} {
			if err := fs.NextBlock(dst); err != nil {
				t.Fatal(err)
			}
		}
		if a.Day != 0 || b.Day != 0 || c.Day != 1 {
			t.Fatalf("days %d,%d,%d, want 0,0,1", a.Day, b.Day, c.Day)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatal("duplicated day frame differs from the original")
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		fs := NewFaultSource(traceSrc(t, 1), plan1(t, func(c *FaultConfig) { c.Corrupt = 1 }), nil)
		var b DayBlock
		if err := fs.NextBlock(&b); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("err = %v, want injected fault", err)
		}
	})
	t.Run("truncate", func(t *testing.T) {
		fs := NewFaultSource(traceSrc(t, 1), plan1(t, func(c *FaultConfig) { c.Truncate = 1 }), nil)
		var b DayBlock
		if err := fs.NextBlock(&b); err != nil {
			t.Fatal(err)
		}
		house := home.MustHouse("A")
		occ, apps := len(house.Occupants), len(house.Appliances)
		if got := len(b.TrueZone) + len(b.TrueAppliance); got != occ+apps-1 {
			t.Fatalf("block carries %d columns, want %d (one sliced off)", got, occ+apps-1)
		}
		h, err := NewHome(HomeConfig{ID: "A", House: house, Params: hvac.DefaultParams(), Pricing: hvac.DefaultPricing()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.IngestDay(&b); err == nil {
			t.Fatal("home ingested a truncated day frame")
		}
	})
	t.Run("disconnect", func(t *testing.T) {
		fs := NewFaultSource(traceSrc(t, 1), plan1(t, func(c *FaultConfig) { c.Disconnect = 1 }), nil)
		var b DayBlock
		if err := fs.NextBlock(&b); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("err = %v, want injected fault", err)
		}
		// The connection stays dead.
		if err := fs.NextBlock(&b); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("second read: %v, want injected fault", err)
		}
	})
	t.Run("delay", func(t *testing.T) {
		// Delays perturb latency only: every day frame arrives intact, in
		// order, and the clock served each stall.
		clock := NewVirtualClock()
		const days = 3
		fs := NewFaultSource(traceSrc(t, days), plan1(t, func(c *FaultConfig) { c.Delay = 1 }), clock)
		want := traceSrc(t, days)
		var got, ref DayBlock
		n := 0
		for {
			if err := fs.NextBlock(&got); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if err := want.NextBlock(&ref); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("day %d altered by a delay fault", got.Day)
			}
			n++
		}
		if n != days {
			t.Fatalf("delivered %d day frames, want %d", n, days)
		}
		if clock.Advanced() == 0 {
			t.Fatal("delay faults served no stall")
		}
	})
}

// dayPlan searches seeds for a plan whose first days roll exactly the given
// classes — a deterministic fixture for faults that must land on one day.
func dayPlan(t *testing.T, set func(*FaultConfig), classes ...FaultClass) *FaultPlan {
	t.Helper()
	cfg := &FaultConfig{CleanAttempt: -1}
	set(cfg)
	for seed := uint64(1); seed < 1000; seed++ {
		cfg.Seed = seed
		p := cfg.Plan("h", 0)
		match := true
		for d, want := range classes {
			if c, _ := p.RollDay(d); c != want {
				match = false
				break
			}
		}
		if match {
			return p
		}
	}
	t.Fatalf("no seed below 1000 rolls %v", classes)
	return nil
}

// TestFaultPlanRollDayKeying: the block schedule is keyed by
// (home, attempt, day), not by call order — querying days in any order, or
// only a suffix (a resumed attempt), yields the same classes — while
// different homes, attempts, and days still diverge.
func TestFaultPlanRollDayKeying(t *testing.T) {
	cfg := &FaultConfig{Seed: 99, Drop: 0.15, Duplicate: 0.15, Delay: 0.15,
		Corrupt: 0.15, Truncate: 0.15, Disconnect: 0.1, MaxDelay: time.Millisecond}
	const days = 64
	rollAll := func(home string, attempt int, order []int) map[int]FaultClass {
		p := cfg.Plan(home, attempt)
		if p == nil {
			t.Fatalf("plan (%s,%d) unexpectedly clean", home, attempt)
		}
		out := make(map[int]FaultClass, len(order))
		for _, d := range order {
			c, stall := p.RollDay(d)
			if (c == FaultDelay) != (stall > 0) {
				t.Fatalf("day %d: class %v with stall %v", d, c, stall)
			}
			out[d] = c
		}
		return out
	}
	fwd := make([]int, days)
	rev := make([]int, days)
	for i := range fwd {
		fwd[i], rev[i] = i, days-1-i
	}
	a, b := rollAll("h1", 0, fwd), rollAll("h1", 0, rev)
	for d := 0; d < days; d++ {
		if a[d] != b[d] {
			t.Fatalf("day %d class depends on query order: %v vs %v", d, a[d], b[d])
		}
	}
	// A resumed attempt that only queries the tail sees the same suffix.
	tail := rollAll("h1", 0, fwd[days/2:])
	for d := days / 2; d < days; d++ {
		if a[d] != tail[d] {
			t.Fatalf("day %d class depends on resume point", d)
		}
	}
	diff := func(x, y map[int]FaultClass) bool {
		for d := 0; d < days; d++ {
			if x[d] != y[d] {
				return true
			}
		}
		return false
	}
	if !diff(a, rollAll("h2", 0, fwd)) {
		t.Fatal("different homes share a block schedule")
	}
	if !diff(a, rollAll("h1", 1, fwd)) {
		t.Fatal("different attempts share a block schedule")
	}
	varies := false
	for d := 1; d < days; d++ {
		if a[d] != a[0] {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("every day rolled the same class — day keying inert?")
	}
}

// TestFaultSourceSeekDay: the wrapper forwards seeks so faulty retry
// attempts can still resume from a checkpoint.
func TestFaultSourceSeekDay(t *testing.T) {
	fs := NewFaultSource(traceSrc(t, 3), plan1(t, func(c *FaultConfig) { c.Delay = 0.001 }), NewVirtualClock())
	seeker, ok := fs.(DaySeeker)
	if !ok {
		t.Fatal("fault wrapper cannot seek")
	}
	if err := seeker.SeekDay(2); err != nil {
		t.Fatal(err)
	}
	var b DayBlock
	if err := fs.NextBlock(&b); err != nil {
		t.Fatal(err)
	}
	if b.Day != 2 {
		t.Fatalf("post-seek frame for day %d, want day 2", b.Day)
	}
}
