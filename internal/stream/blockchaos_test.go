package stream

import (
	"os"
	"testing"
	"time"

	"github.com/acyd-lab/shatter/internal/mqtt"
)

// goldenJobs builds the registry-golden fleet the two-leg equivalence
// tests run: named scenarios with pinned seeds, so the clean baseline is a
// stable fixture rather than a synthetic one.
func goldenJobs(t *testing.T, days int) []Job {
	t.Helper()
	specs := registrySpecs(t, "B", "studio", "family4", "nightshift")
	jobs := make([]Job, len(specs))
	for i, sp := range specs {
		jobs[i] = specJob(sp, days, uint64(900+i))
	}
	return jobs
}

// TestFleetChaosTwoLegEquivalence is the per-class equivalence lock on the
// registry goldens: for every fault class, a supervised day-block chaos run
// and the clean unsupervised baseline must agree on every per-home result
// and deterministic aggregate — chaos changes nothing but the resilience
// counters. CHAOS_CLASS narrows the sweep to one class (the CI matrix
// drives it).
func TestFleetChaosTwoLegEquivalence(t *testing.T) {
	const days = 2
	jobs := goldenJobs(t, days)
	clean, err := RunFleet(jobs, FleetOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	only := os.Getenv("CHAOS_CLASS")
	for name, cfg := range blockChaosClasses() {
		if only != "" && only != name {
			continue
		}
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			got, err := RunFleet(jobs, FleetOptions{
				Workers: 2, Recover: true, Chaos: &cfg,
				CheckpointDir: t.TempDir(),
				RetryBackoff:  mqtt.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats.Quarantined != 0 {
				t.Fatalf("recoverable chaos quarantined %d homes: %+v", got.Stats.Quarantined, got.Outcomes)
			}
			checkSameHomes(t, got, clean)
			if name != "delay" && got.Stats.Retries == 0 {
				t.Fatalf("%s: chaos caused no retries", name)
			}
		})
	}
}

// TestFleetChaosTwoLegEquivalenceMQTT repeats the two-leg lock over a real
// broker for the mixed class: the day-block chaos run and the clean
// baseline must coincide when every fault class is in play at once on the
// wire.
func TestFleetChaosTwoLegEquivalenceMQTT(t *testing.T) {
	const days = 2
	jobs := goldenJobs(t, days)
	clean, err := RunFleet(jobs, FleetOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	cfg := blockChaosClasses()["mixed"]
	got, err := RunFleet(jobs, FleetOptions{
		Workers: 2, Broker: broker.Addr(), Recover: true, Chaos: &cfg,
		CheckpointDir:  t.TempDir(),
		RetryBackoff:   mqtt.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		ReceiveTimeout: 2 * time.Second,
		DrainTimeout:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Quarantined != 0 {
		t.Fatalf("recoverable chaos quarantined %d homes: %+v", got.Stats.Quarantined, got.Outcomes)
	}
	checkSameHomes(t, got, clean)
	if got.Stats.Retries == 0 {
		t.Fatalf("mixed mqtt chaos too tame: %d retries", got.Stats.Retries)
	}
}

// TestFleetChaosVirtualClock: under a VirtualClock, a mixed-chaos fleet is
// byte-identical across worker counts and identical to the same run under
// real time — retries, restores, outcomes and all — while the clock records
// the virtual waits the run skipped. This is what makes chaos benchmarks
// compute-bound.
func TestFleetChaosVirtualClock(t *testing.T) {
	jobs := chaosJobs(4, 2)
	cfg := blockChaosClasses()["mixed"]
	// Real backoff sizes so skipping them is observable in virtual time.
	backoff := mqtt.Backoff{Base: 20 * time.Millisecond, Max: 100 * time.Millisecond}
	run := func(workers int, clock Clock) FleetResult {
		t.Helper()
		got, err := RunFleet(jobs, FleetOptions{
			Workers: workers, Recover: true, Chaos: &cfg, Clock: clock,
			CheckpointDir: t.TempDir(),
			RetryBackoff:  backoff,
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	vc1, vc8 := NewVirtualClock(), NewVirtualClock()
	seq := run(1, vc1)
	par := run(8, vc8)
	real := run(2, nil)
	sameOutcomes := func(a, b FleetResult, label string) {
		t.Helper()
		checkDeterministic(t, a, b)
		for i := range a.Outcomes {
			x, y := a.Outcomes[i], b.Outcomes[i]
			x.Duration, y.Duration = 0, 0
			if x != y {
				t.Fatalf("%s: outcome %d diverges:\n%+v\nvs\n%+v", label, i, x, y)
			}
		}
	}
	sameOutcomes(seq, par, "virtual workers 1 vs 8")
	sameOutcomes(seq, real, "virtual vs real clock")
	if seq.Stats.Retries == 0 {
		t.Fatalf("fixture too tame: %+v", seq.Stats)
	}
	if vc1.Advanced() == 0 || vc8.Advanced() == 0 {
		t.Fatalf("virtual clocks recorded no waits: %s, %s", vc1.Advanced(), vc8.Advanced())
	}
	// Virtual waits are schedule-determined, so both worker counts skipped
	// the same amount of virtual time.
	if vc1.Advanced() != vc8.Advanced() {
		t.Fatalf("virtual waits diverge across worker counts: %s vs %s", vc1.Advanced(), vc8.Advanced())
	}
}
