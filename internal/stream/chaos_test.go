package stream

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/acyd-lab/shatter/internal/mqtt"
	"github.com/acyd-lab/shatter/internal/scenario"
)

// chaosJobs builds a small procedurally generated fleet.
func chaosJobs(n, days int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		sp := scenario.Synth(4+i%5, 1+i%2, uint64(500+i))
		jobs[i] = specJob(sp, days, uint64(77+i))
	}
	return jobs
}

// checkSameHomes compares per-home results and the deterministic aggregate
// counters, ignoring the wall-clock and resilience-bookkeeping stats (a
// chaos run retries; a clean baseline does not).
func checkSameHomes(t *testing.T, got, want FleetResult) {
	t.Helper()
	zero := func(r FleetResult) FleetResult {
		r.Outcomes = nil
		r.Stats.Elapsed, r.Stats.HomesPerSec, r.Stats.EventsPerSec = 0, 0, 0
		r.Stats.BusFrames, r.Stats.Retries, r.Stats.Restores, r.Stats.Quarantined = 0, 0, 0, 0
		return r
	}
	checkDeterministic(t, zero(got), zero(want))
}

// blockChaosClasses is the fault matrix, one config per class, sized for
// day-block framing: a 2-day home publishes 2 frames per attempt, so
// per-frame probabilities are ~0.5 to make first attempts virtually always
// fail while CleanAttempt still guarantees completion.
func blockChaosClasses() map[string]FaultConfig {
	return map[string]FaultConfig{
		"drop":       {Seed: 201, Drop: 0.5},
		"duplicate":  {Seed: 202, Duplicate: 0.5},
		"delay":      {Seed: 203, Delay: 0.5, MaxDelay: 100 * time.Microsecond},
		"corrupt":    {Seed: 204, Corrupt: 0.5},
		"truncate":   {Seed: 205, Truncate: 0.5},
		"disconnect": {Seed: 206, Disconnect: 0.5},
		"mixed": {Seed: 207, Drop: 0.12, Duplicate: 0.12, Delay: 0.1,
			Corrupt: 0.08, Truncate: 0.08, Disconnect: 0.06, MaxDelay: 100 * time.Microsecond},
	}
}

// TestFleetChaosMatrix runs a supervised fleet under every fault class, on
// both the direct path and a real MQTT broker, and requires byte-identical
// per-home results against the clean unsupervised baseline: recoverable
// faults must change *nothing* but the retry counters. CHAOS_CLASS narrows
// the sweep to one class and CHAOS_SEED reseeds the schedule (the CI matrix
// drives both).
func TestFleetChaosMatrix(t *testing.T) {
	const homes, days = 4, 2
	jobs := chaosJobs(homes, days)
	baseline, err := RunFleet(jobs, FleetOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	only := os.Getenv("CHAOS_CLASS")
	var seed uint64
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		s, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED: %v", err)
		}
		seed = s
	}
	for name, cfg := range blockChaosClasses() {
		if only != "" && only != name {
			continue
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		cfg := cfg
		// Direct-path expectations: delay only slows frames down; every
		// other class (duplicates included — the direct path has no dedup
		// layer) must force retries.
		t.Run("block/"+name+"/direct", func(t *testing.T) {
			got, err := RunFleet(jobs, FleetOptions{
				Workers: 3, Recover: true, Chaos: &cfg,
				CheckpointDir: t.TempDir(),
				RetryBackoff:  mqtt.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats.Quarantined != 0 {
				t.Fatalf("recoverable chaos quarantined %d homes: %+v", got.Stats.Quarantined, got.Outcomes)
			}
			checkSameHomes(t, got, baseline)
			switch name {
			case "delay":
				if got.Stats.Retries != 0 {
					t.Fatalf("delay-only chaos caused %d retries", got.Stats.Retries)
				}
			default:
				if got.Stats.Retries == 0 {
					t.Fatalf("%s chaos caused no retries (faults not reaching the stream?)", name)
				}
			}
		})
		t.Run("block/"+name+"/mqtt", func(t *testing.T) {
			broker, err := mqtt.NewBroker("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer broker.Close()
			got, err := RunFleet(jobs, FleetOptions{
				Workers: 3, Broker: broker.Addr(), Recover: true, Chaos: &cfg,
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
			checkSameHomes(t, got, baseline)
			switch name {
			case "delay":
				if got.Stats.Retries != 0 {
					t.Fatalf("delay-only chaos caused %d retries", got.Stats.Retries)
				}
			case "duplicate":
				// The pipe's position tracking absorbs duplicates entirely.
				if got.Stats.Retries != 0 {
					t.Fatalf("transport failed to dedup: %d retries", got.Stats.Retries)
				}
				// A clean bus moves one frame per home-day.
				if got.Stats.BusFrames <= got.Stats.Days {
					t.Fatalf("duplicates missing from the bus: %d frames for %d home-days", got.Stats.BusFrames, got.Stats.Days)
				}
			default:
				if got.Stats.Retries == 0 {
					t.Fatalf("%s chaos caused no retries (faults not reaching the transport?)", name)
				}
			}
		})
	}
}

// TestFleetChaosWorkerDeterminism: the chaos schedule is keyed by
// (home, attempt), never by worker interleaving, so a supervised chaos run
// is byte-identical across worker counts — retries, restores, and all.
func TestFleetChaosWorkerDeterminism(t *testing.T) {
	jobs := chaosJobs(4, 2)
	cfg := blockChaosClasses()["mixed"]
	run := func(workers int) FleetResult {
		t.Helper()
		got, err := RunFleet(jobs, FleetOptions{
			Workers: workers, Recover: true, Chaos: &cfg,
			CheckpointDir: t.TempDir(),
			RetryBackoff:  mqtt.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	seq, par := run(1), run(4)
	checkDeterministic(t, seq, par)
	for i := range seq.Outcomes {
		// Duration is wall-clock and legitimately varies across runs.
		seq.Outcomes[i].Duration, par.Outcomes[i].Duration = 0, 0
		if seq.Outcomes[i] != par.Outcomes[i] {
			t.Fatalf("outcome %d diverges across worker counts:\n%+v\nvs\n%+v", i, seq.Outcomes[i], par.Outcomes[i])
		}
	}
	if seq.Stats.Retries == 0 {
		t.Fatalf("fixture too tame: %+v", seq.Stats)
	}
}

// TestFleetChaosSoakMQTT is the acceptance soak: a large MQTT fleet under
// mixed recoverable chaos must complete every home with byte-identical
// results and no frame lost for good — every home-day reached the bus at
// least once.
func TestFleetChaosSoakMQTT(t *testing.T) {
	homes, days := 100, 2
	if testing.Short() {
		homes = 10
	}
	jobs := chaosJobs(homes, days)
	baseline, err := RunFleet(jobs, FleetOptions{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	// Day-frame probabilities: each home publishes `days` frames per
	// attempt.
	cfg := FaultConfig{Seed: 2023, Drop: 0.04, Duplicate: 0.06, Delay: 0.05,
		Corrupt: 0.02, Truncate: 0.02, Disconnect: 0.01, MaxDelay: 100 * time.Microsecond}
	got, err := RunFleet(jobs, FleetOptions{
		Workers: 0, Broker: broker.Addr(), Recover: true, Chaos: &cfg,
		CheckpointDir:  t.TempDir(),
		RetryBackoff:   mqtt.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		ReceiveTimeout: 5 * time.Second,
		DrainTimeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Quarantined != 0 {
		t.Fatalf("soak quarantined %d homes: %+v", got.Stats.Quarantined, got.Outcomes)
	}
	checkSameHomes(t, got, baseline)
	// On the block transport each home-day is one frame; at-least-once
	// delivery means the bus saw at least the fleet's day count.
	if got.Stats.BusFrames < got.Stats.Days {
		t.Fatalf("frames lost for good: %d on the bus, %d home-days", got.Stats.BusFrames, got.Stats.Days)
	}
	if !testing.Short() && got.Stats.Restores == 0 {
		t.Fatalf("soak exercised no checkpoint restores: %+v", got.Stats)
	}
}

// brokenSource fails every read with the given error.
type brokenSource struct{ err error }

func (b *brokenSource) NextBlock(*DayBlock) error { return b.err }
func (b *brokenSource) Next(*Slot) error          { return b.err }

// TestFleetQuarantineGracefulDegradation: a home that fails past its retry
// budget is quarantined with its error recorded, while the rest of the
// fleet completes untouched; FailFast instead aborts the run.
func TestFleetQuarantineGracefulDegradation(t *testing.T) {
	sick := errors.New("sensor bus on fire")
	good := chaosJobs(2, 1)
	jobs := append(good, Job{ID: "sick", Open: func() (Source, *Home, error) {
		src, h, err := good[0].Open()
		if err != nil {
			return nil, nil, err
		}
		closeSource(src)
		return &brokenSource{err: sick}, h, nil
	}})

	solo, err := RunFleet(good, FleetOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFleet(jobs, FleetOptions{
		Workers: 2, Recover: true, MaxRetries: 2,
		RetryBackoff: mqtt.Backoff{Base: time.Millisecond, Max: time.Millisecond},
	})
	if err != nil {
		t.Fatalf("quarantine leaked into the fleet error: %v", err)
	}
	out := res.Outcomes[2]
	if out.Status != OutcomeQuarantined || out.Attempts != 3 || !strings.Contains(out.Err, "on fire") {
		t.Fatalf("sick home outcome: %+v", out)
	}
	if res.Stats.Quarantined != 1 || res.Stats.Retries != 2 {
		t.Fatalf("stats: %+v", res.Stats)
	}
	for i := range good {
		if res.Outcomes[i].Status != OutcomeCompleted {
			t.Fatalf("healthy home %d: %+v", i, res.Outcomes[i])
		}
		if !equalHomeResult(res.Homes[i], solo.Homes[i]) {
			t.Fatalf("healthy home %d diverged under degradation", i)
		}
	}
	// The quarantined home contributes nothing to the aggregate.
	if res.Stats.Days != solo.Stats.Days || res.Stats.Slots != solo.Stats.Slots {
		t.Fatalf("quarantined home leaked into aggregate: %+v vs %+v", res.Stats, solo.Stats)
	}

	// FailFast turns the quarantine into a fleet abort.
	if _, err := RunFleet(jobs, FleetOptions{
		Workers: 2, Recover: true, MaxRetries: 1, FailFast: true,
		RetryBackoff: mqtt.Backoff{Base: time.Millisecond, Max: time.Millisecond},
	}); !errors.Is(err, sick) || !strings.Contains(err.Error(), "sick") {
		t.Fatalf("FailFast err = %v, want wrapped source failure naming the home", err)
	}

	// A negative retry budget quarantines on the first failure.
	res, err = RunFleet(jobs, FleetOptions{Workers: 1, Recover: true, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[2].Attempts != 1 || res.Outcomes[2].Status != OutcomeQuarantined {
		t.Fatalf("MaxRetries<0 outcome: %+v", res.Outcomes[2])
	}
}

// equalHomeResult compares the deterministic fields of two home results.
func equalHomeResult(a, b HomeResult) bool {
	return a.ID == b.ID && a.Days == b.Days && a.Slots == b.Slots &&
		a.SensorEvents == b.SensorEvents && a.ActionEvents == b.ActionEvents &&
		a.Verdicts == b.Verdicts && a.Anomalies == b.Anomalies &&
		a.Injected == b.Injected && a.Flagged == b.Flagged &&
		a.Sim.TotalKWh == b.Sim.TotalKWh && a.Sim.TotalCostUSD == b.Sim.TotalCostUSD
}

// outOfOrderSource emits a day-block at the wrong position to trip the
// home's sequence check mid-stream. The fleet engines pull day-blocks only;
// Next is the embedded source's.
type outOfOrderSource struct {
	Source
	n int
}

func (o *outOfOrderSource) NextBlock(dst *DayBlock) error {
	if err := o.Source.NextBlock(dst); err != nil {
		return err
	}
	o.n++
	if o.n > 1 {
		dst.Day++ // manufacture a gap
	}
	return nil
}

// TestRunFleetMidStreamFailure: an unsupervised fleet propagates a
// mid-stream ingest failure (sequence gap) as a first-error-wins abort.
func TestRunFleetMidStreamFailure(t *testing.T) {
	base := chaosJobs(1, 3)[0]
	job := Job{ID: base.ID, Open: func() (Source, *Home, error) {
		src, h, err := base.Open()
		if err != nil {
			return nil, nil, err
		}
		return &outOfOrderSource{Source: src}, h, nil
	}}
	_, err := RunFleet([]Job{job}, FleetOptions{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "stepper position") {
		t.Fatalf("err = %v, want sequence-gap ingest failure", err)
	}
}

// flakyAtSource fails deterministically once it reaches a day. The fleet
// engines pull day-blocks only; Next is the embedded source's.
type flakyAtSource struct {
	Source
	day int
}

func (f *flakyAtSource) NextBlock(dst *DayBlock) error {
	if err := f.Source.NextBlock(dst); err != nil {
		return err
	}
	if dst.Day >= f.day {
		return fmt.Errorf("%w: link died at day %d", ErrInjectedFault, dst.Day)
	}
	return nil
}

// TestFleetRetryRestoresFromCheckpoint is the deterministic supervisor
// lock: a home whose first attempt dies on its day-1 frame must be retried
// from its day-boundary checkpoint (one restore, two attempts) and finish
// with a result byte-identical to an uninterrupted run.
func TestFleetRetryRestoresFromCheckpoint(t *testing.T) {
	base := chaosJobs(1, 3)[0]
	baseline, err := RunFleet([]Job{base}, FleetOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	job := Job{ID: base.ID, Open: func() (Source, *Home, error) {
		src, h, err := base.Open()
		if err != nil {
			return nil, nil, err
		}
		calls++
		if calls == 1 {
			// First attempt dies on day 1, after the day-0 checkpoint was
			// persisted.
			return &flakyAtSource{Source: src, day: 1}, h, nil
		}
		return src, h, nil
	}}
	res, err := RunFleet([]Job{job}, FleetOptions{
		Workers: 1, Recover: true, CheckpointDir: t.TempDir(),
		RetryBackoff: mqtt.Backoff{Base: time.Millisecond, Max: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outcomes[0]
	if out.Status != OutcomeRetried || out.Attempts != 2 || out.Restores != 1 {
		t.Fatalf("outcome: %+v", out)
	}
	if !equalHomeResult(res.Homes[0], baseline.Homes[0]) {
		t.Fatalf("restored run diverges from uninterrupted:\n%+v\nvs\n%+v", res.Homes[0], baseline.Homes[0])
	}
	if res.Stats.Restores != 1 || res.Stats.Retries != 1 {
		t.Fatalf("stats: %+v", res.Stats)
	}
}

// closableSource records whether the fleet released it.
type closableSource struct {
	Source
	closed bool
}

func (c *closableSource) Close() error {
	c.closed = true
	return nil
}

// TestRunAttemptClosesSourceOnPipeFailure: when OpenPipe fails (dead
// broker), the shared attempt opener must still release the freshly opened
// source — the leak its error paths exist to prevent, for both fleet
// engines.
func TestRunAttemptClosesSourceOnPipeFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	src := &closableSource{Source: traceSrc(t, 1)}
	base := chaosJobs(1, 1)[0]
	_, h, err := base.Open()
	if err != nil {
		t.Fatal(err)
	}
	job := Job{ID: "x", Open: func() (Source, *Home, error) { return src, h, nil }}
	p := FleetOptions{Broker: dead, Dial: mqtt.DialOptions{Timeout: 200 * time.Millisecond}}.AttemptPolicy(false)
	if _, err := p.Open(job, &HomeOutcome{ID: job.ID}, nil, nil); err == nil {
		t.Fatal("dead broker accepted")
	}
	if !src.closed {
		t.Fatal("source leaked after OpenPipe failure")
	}
}

// TestFleetMonitorDrainLostSentinel: when end-of-stream sentinels never
// arrive, drain falls back to bounded quiescence — it returns the frame
// count within the drain deadline instead of hanging.
func TestFleetMonitorDrainLostSentinel(t *testing.T) {
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	opts := FleetOptions{
		DrainTimeout: 300 * time.Millisecond,
		QuiescePoll:  10 * time.Millisecond,
	}.withDefaults()
	m, err := newFleetMonitor(broker.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()

	pub, err := mqtt.Dial(broker.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	// Binary day-block frames, the only data framing on the bus.
	src := traceSrc(t, 5)
	var blk DayBlock
	const frames = 5
	for i := 0; i < frames; i++ {
		if err := src.NextBlock(&blk); err != nil {
			t.Fatal(err)
		}
		frame, err := AppendBlockFrame(nil, &blk, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := pub.PublishRaw(SensorTopic("ghost"), frame); err != nil {
			t.Fatal(err)
		}
	}
	// No sentinel is ever published: the expected-sentinel wait must time
	// out and the quiescence fallback must return the observed frames.
	start := time.Now()
	n := m.drain(1, opts)
	elapsed := time.Since(start)
	if n != frames {
		t.Fatalf("drain counted %d frames, want %d", n, frames)
	}
	if elapsed < opts.DrainTimeout {
		t.Fatalf("drain returned in %s, before the %s sentinel deadline", elapsed, opts.DrainTimeout)
	}
	if elapsed > opts.DrainTimeout+2*time.Second {
		t.Fatalf("drain took %s — quiescence loop not bounded", elapsed)
	}
}

// TestPipeReceiveTimeout: a silent publisher surfaces as ErrReceiveTimeout
// instead of a hang — the supervised fleet's escape from a lost sentinel.
func TestPipeReceiveTimeout(t *testing.T) {
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	// A source that delivers one day-block and then blocks forever.
	stall := &stallingSource{src: traceSrc(t, 2), after: 1, release: make(chan struct{})}
	pipe, err := OpenPipeOptions(broker.Addr(), SensorTopic("slow"), stall, PipeOptions{
		ReceiveTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(stall.release)
		pipe.Close()
	}()
	var blk DayBlock
	if err := pipe.NextBlock(&blk); err != nil {
		t.Fatal(err)
	}
	if err := pipe.NextBlock(&blk); !errors.Is(err, ErrReceiveTimeout) {
		t.Fatalf("err = %v, want receive timeout", err)
	}
}

// stallingSource delivers `after` day-blocks then blocks until released.
type stallingSource struct {
	src     BlockSource
	after   int
	n       int
	release chan struct{}
}

func (s *stallingSource) NextBlock(dst *DayBlock) error {
	if s.n >= s.after {
		<-s.release
		return io.EOF
	}
	s.n++
	return s.src.NextBlock(dst)
}
