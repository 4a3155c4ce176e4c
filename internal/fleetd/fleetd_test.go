package fleetd

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/hvac"
	"github.com/acyd-lab/shatter/internal/mqtt"
	"github.com/acyd-lab/shatter/internal/scenario"
	"github.com/acyd-lab/shatter/internal/stream"
)

// specJob builds a fleet job streaming a scenario spec's world, mirroring
// the job shape core.FleetJobs assembles (construction inside Open).
func specJob(sp scenario.Spec, days int, seed uint64) stream.Job {
	return stream.Job{ID: sp.ID, Open: func() (stream.Source, *stream.Home, error) {
		house, err := sp.Build()
		if err != nil {
			return nil, nil, err
		}
		gen, err := aras.NewGenerator(house, sp.GeneratorConfig(days, seed))
		if err != nil {
			return nil, nil, err
		}
		h, err := stream.NewHome(stream.HomeConfig{
			ID:      sp.ID,
			House:   house,
			Params:  hvac.DefaultParams(),
			Pricing: hvac.DefaultPricing(),
		})
		if err != nil {
			return nil, nil, err
		}
		return stream.NewGeneratorSource(sp.ID, gen), h, nil
	}}
}

// synthJobs builds n procedurally generated benign homes.
func synthJobs(n, days int, seed uint64) []stream.Job {
	jobs := make([]stream.Job, n)
	for i, sp := range scenario.SynthFleet(n, seed) {
		jobs[i] = specJob(sp, days, seed+uint64(i))
	}
	return jobs
}

// checkHomesEqual requires byte-identical per-home results in job order.
func checkHomesEqual(t *testing.T, got, want []stream.HomeResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d vs %d home results", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("home %s diverges:\n%+v\nvs\n%+v", want[i].ID, got[i], want[i])
		}
	}
}

// checkStatsEqual compares aggregates with wall-clock fields (and, when
// ignoreSupervision is set, the supervision counters a drain/rehydrate
// cycle legitimately changes) zeroed.
func checkStatsEqual(t *testing.T, got, want stream.FleetStats, ignoreSupervision bool) {
	t.Helper()
	zero := func(s stream.FleetStats) stream.FleetStats {
		s.Elapsed, s.HomesPerSec, s.EventsPerSec, s.BusFrames = 0, 0, 0, 0
		if ignoreSupervision {
			s.Retries, s.Restores = 0, 0
		}
		return s
	}
	if zero(got) != zero(want) {
		t.Fatalf("aggregate stats diverge:\n%+v\nvs\n%+v", got, want)
	}
}

// TestServiceMatchesRunFleet is the core equivalence gate: the multiplexed
// sharded scheduler must produce byte-identical per-home results to a
// one-shot RunFleet over the same jobs — on the A/B goldens plus synthetic
// homes, with the admission window far smaller than the fleet, over both
// the direct and the MQTT frame transport.
func TestServiceMatchesRunFleet(t *testing.T) {
	const days = 2
	var jobs []stream.Job
	for _, id := range []string{"A", "B", "studio"} {
		sp, ok := scenario.Get(id)
		if !ok {
			t.Fatalf("unknown scenario %q", id)
		}
		jobs = append(jobs, specJob(sp, days, 7))
	}
	jobs = append(jobs, synthJobs(3, days, 1234)...)

	run := func(t *testing.T, jobs []stream.Job, opts ShardOptions) {
		want, err := stream.RunFleet(jobs, stream.FleetOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewService(Config{Shards: 2, Shard: opts})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close(false)
		if err := svc.Add(jobs); err != nil {
			t.Fatal(err)
		}
		svc.WaitIdle()
		got := svc.Result()
		checkHomesEqual(t, got.Homes, want.Homes)
		checkStatsEqual(t, got.Stats, want.Stats, false)
		for i, o := range got.Outcomes {
			if o.Status != stream.OutcomeCompleted || o.Attempts != 1 || o.Days != days {
				t.Fatalf("outcome %d: %+v", i, o)
			}
			if o.Duration <= 0 {
				t.Fatalf("outcome %s missing wall-clock duration", o.ID)
			}
		}
	}
	t.Run("direct", func(t *testing.T) {
		run(t, jobs, ShardOptions{Workers: 2, MaxResident: 2})
	})
	t.Run("mqtt", func(t *testing.T) {
		broker, err := mqtt.NewBroker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer broker.Close()
		// MQTT pipes are slow under the race detector; the three registry
		// goldens alone still cover the full frame transport path.
		run(t, jobs[:3], ShardOptions{Workers: 2, MaxResident: 2, Broker: broker.Addr()})
	})
}

// TestServiceDrainRehydrateMatchesUninterrupted stops a shard mid-run,
// verifies it holds no live pipelines, rehydrates it from the checkpoints,
// and requires the finished fleet to be byte-identical to an uninterrupted
// run — with in-memory checkpoints, on-disk checkpoints, and over MQTT.
func TestServiceDrainRehydrateMatchesUninterrupted(t *testing.T) {
	const homes, days = 16, 6
	run := func(t *testing.T, jobs []stream.Job, opts ShardOptions) {
		want, err := stream.RunFleet(jobs, stream.FleetOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewService(Config{Shards: 2, Shard: opts})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close(false)
		if err := svc.Add(jobs); err != nil {
			t.Fatal(err)
		}
		// Let the fleet make some progress, then stop it mid-flight.
		// Draining once the first home-day lands, rather than after a
		// fixed sleep, keeps the drain inside the run however fast the
		// host steps homes; the byte-identical guarantee holds wherever
		// it lands.
		deadline := time.Now().Add(10 * time.Second)
		for svc.Snapshot().Days == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("fleet made no progress: %+v", svc.Snapshot())
			}
			time.Sleep(time.Millisecond)
		}
		for i := 0; i < 2; i++ {
			if err := svc.DrainShard(i); err != nil {
				t.Fatal(err)
			}
		}
		snap := svc.Snapshot()
		if snap.HomesActive == 0 {
			t.Fatalf("fleet finished before the drain; nothing was interrupted")
		}
		for _, sh := range snap.Shards {
			if !sh.Drained || sh.Resident != 0 || sh.Running != 0 {
				t.Fatalf("shard %d not quiesced after drain: %+v", sh.Shard, sh)
			}
		}
		for i := 0; i < 2; i++ {
			if err := svc.RehydrateShard(i); err != nil {
				t.Fatal(err)
			}
		}
		svc.WaitIdle()
		got := svc.Result()
		checkHomesEqual(t, got.Homes, want.Homes)
		checkStatsEqual(t, got.Stats, want.Stats, true)
	}
	jobs := synthJobs(homes, days, 77)
	t.Run("memory", func(t *testing.T) {
		run(t, jobs, ShardOptions{Workers: 2, MaxResident: 4})
	})
	t.Run("disk", func(t *testing.T) {
		run(t, jobs, ShardOptions{Workers: 2, MaxResident: 4, CheckpointDir: t.TempDir()})
	})
	t.Run("mqtt", func(t *testing.T) {
		broker, err := mqtt.NewBroker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer broker.Close()
		// Day-block pipes move whole home-days per frame, so the MQTT variant
		// keeps pace with the direct ones and the full fleet stays fast even
		// race-instrumented; the full size keeps the drain landing mid-run.
		run(t, jobs, ShardOptions{Workers: 2, MaxResident: 4, Broker: broker.Addr(), CheckpointDir: t.TempDir()})
	})
}

// TestServicePauseResume parks one home, lets the rest of the fleet finish,
// and checks the paused home completes identically after Resume.
func TestServicePauseResume(t *testing.T) {
	const homes, days = 4, 2
	jobs := synthJobs(homes, days, 55)
	want, err := stream.RunFleet(jobs, stream.FleetOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(Config{Shards: 1, Shard: ShardOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(false)
	target := jobs[homes-1].ID
	if err := svc.Add(jobs); err != nil {
		t.Fatal(err)
	}
	if err := svc.Pause(target); err != nil {
		t.Fatal(err)
	}
	// The paused home must not finish while the rest of the fleet does.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := svc.Snapshot()
		if snap.HomesCompleted == homes-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet stuck: %+v", snap)
		}
		time.Sleep(time.Millisecond)
	}
	if snap := svc.Snapshot(); snap.HomesActive != 1 {
		t.Fatalf("want exactly the paused home active, got %+v", snap)
	}
	if err := svc.Resume(target); err != nil {
		t.Fatal(err)
	}
	svc.WaitIdle()
	got := svc.Result()
	checkHomesEqual(t, got.Homes, want.Homes)
}

// TestShardAdmissionWindow checks backpressure: live pipelines never exceed
// MaxResident even with the whole fleet admitted at once.
func TestShardAdmissionWindow(t *testing.T) {
	const homes, maxResident = 12, 2
	svc, err := NewService(Config{Shards: 1, Shard: ShardOptions{Workers: 2, MaxResident: maxResident}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(false)
	if err := svc.Add(synthJobs(homes, 1, 31)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		svc.WaitIdle()
		close(done)
	}()
	for {
		select {
		case <-done:
			snap := svc.Snapshot()
			if snap.HomesCompleted != homes {
				t.Fatalf("completed %d of %d homes: %+v", snap.HomesCompleted, homes, snap)
			}
			return
		default:
			if st := svc.shards[0].Status(); st.Resident > maxResident {
				t.Fatalf("admission window breached: %+v", st)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// flakySource fails its stream with a transport error when asked for the
// given absolute day, passing every earlier day-block through. SeekDay keeps
// the day counter absolute, so a restored attempt hits the same failure
// point again. The shard pulls day-blocks only; Next is the embedded
// source's.
type flakySource struct {
	stream.Source
	failAt int
	n      int
}

func (f *flakySource) NextBlock(dst *stream.DayBlock) error {
	if f.n == f.failAt {
		return errors.New("flaky transport: connection lost")
	}
	f.n++
	return f.Source.NextBlock(dst)
}

func (f *flakySource) SeekDay(day int) error {
	s, ok := f.Source.(stream.DaySeeker)
	if !ok {
		return fmt.Errorf("flaky source cannot seek")
	}
	if err := s.SeekDay(day); err != nil {
		return err
	}
	f.n = day
	return nil
}

// flakyJob wraps a spec job so the given attempts fail on day 2: attempt
// indexes below cleanFrom lose the connection at day index 1 (past the
// day-1 checkpoint boundary), later attempts run clean.
func flakyJob(sp scenario.Spec, days int, seed uint64, cleanFrom int) stream.Job {
	base := specJob(sp, days, seed)
	attempt := 0
	return stream.Job{ID: base.ID, Open: func() (stream.Source, *stream.Home, error) {
		src, h, err := base.Open()
		if err != nil {
			return nil, nil, err
		}
		a := attempt
		attempt++
		if a < cleanFrom {
			return &flakySource{Source: src, failAt: 1}, h, nil
		}
		return src, h, nil
	}}
}

// TestShardRetryAndQuarantine drives the supervision path: a flaky home
// retries from its day-1 checkpoint and completes; a persistently failing
// home exhausts the budget and is quarantined without sinking the fleet.
func TestShardRetryAndQuarantine(t *testing.T) {
	const days = 2
	specs := scenario.SynthFleet(3, 404)
	jobs := []stream.Job{
		flakyJob(specs[0], days, 11, 1), // one bad attempt, then clean
		flakyJob(specs[1], days, 12, 99), // every attempt fails
		specJob(specs[2], days, 13),
	}
	svc, err := NewService(Config{Shards: 1, Shard: ShardOptions{
		Workers:      2,
		Recover:      true,
		MaxRetries:   2,
		RetryBackoff: mqtt.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(false)
	if err := svc.Add(jobs); err != nil {
		t.Fatal(err)
	}
	svc.WaitIdle()
	res := svc.Result()
	byID := map[string]stream.HomeOutcome{}
	for _, o := range res.Outcomes {
		byID[o.ID] = o
	}
	flaky := byID[specs[0].ID]
	if flaky.Status != stream.OutcomeRetried || flaky.Attempts != 2 || flaky.Restores != 1 || flaky.Days != days {
		t.Fatalf("flaky outcome: %+v", flaky)
	}
	dead := byID[specs[1].ID]
	if dead.Status != stream.OutcomeQuarantined || dead.Attempts != 3 || !strings.Contains(dead.Err, "flaky transport") {
		t.Fatalf("quarantined outcome: %+v", dead)
	}
	if dead.Days != 1 {
		t.Fatalf("quarantined home's day progress = %d, want 1 (failed mid-day-2)", dead.Days)
	}
	clean := byID[specs[2].ID]
	if clean.Status != stream.OutcomeCompleted || clean.Attempts != 1 {
		t.Fatalf("clean outcome: %+v", clean)
	}
	if res.Stats.Quarantined != 1 || res.Stats.Retries != 3 || res.Stats.Restores < 1 {
		t.Fatalf("aggregate supervision counters: %+v", res.Stats)
	}
}

// TestServiceChaosMatchesRunFleet locks the service's supervised chaos path
// to RunFleet's: same seeded fault schedule, same disk checkpoints, so the
// retry sequence — and therefore every result and outcome counter — must
// coincide exactly.
func TestServiceChaosMatchesRunFleet(t *testing.T) {
	const homes, days = 6, 2
	jobs := synthJobs(homes, days, 909)
	// Block-scale probabilities: each 2-day home publishes two day frames
	// per attempt, so per-frame rates must be large to force retries.
	chaos := &stream.FaultConfig{
		Seed: 909, Drop: 0.2, Duplicate: 0.2, Corrupt: 0.1,
		Disconnect: 0.1, MaxDelay: time.Microsecond,
	}
	want, err := stream.RunFleet(jobs, stream.FleetOptions{
		Workers: 2, Recover: true, CheckpointDir: t.TempDir(), Chaos: chaos,
		RetryBackoff: mqtt.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(Config{Shards: 2, Shard: ShardOptions{
		Workers: 2, Recover: true, CheckpointDir: t.TempDir(), Chaos: chaos,
		RetryBackoff: mqtt.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(false)
	if err := svc.Add(jobs); err != nil {
		t.Fatal(err)
	}
	svc.WaitIdle()
	got := svc.Result()
	checkHomesEqual(t, got.Homes, want.Homes)
	checkStatsEqual(t, got.Stats, want.Stats, false)
	for i := range got.Outcomes {
		g, w := got.Outcomes[i], want.Outcomes[i]
		g.Duration, w.Duration = 0, 0
		if g != w {
			t.Fatalf("outcome %s diverges:\n%+v\nvs\n%+v", w.ID, g, w)
		}
	}
	if want.Stats.Retries == 0 {
		t.Fatalf("fixture too tame — chaos never forced a retry: %+v", want.Stats)
	}
}

// TestServiceChaosVirtualClockAsyncCheckpoints: the service's fast chaos
// configuration — virtual clock for delay faults and retry timers, async
// day-boundary checkpoint writes — must produce results byte-identical to
// the plain wall-clock, synchronous-checkpoint run.
func TestServiceChaosVirtualClockAsyncCheckpoints(t *testing.T) {
	const homes, days = 6, 2
	jobs := synthJobs(homes, days, 909)
	chaos := &stream.FaultConfig{
		Seed: 909, Drop: 0.2, Duplicate: 0.2, Delay: 0.15, Corrupt: 0.1,
		Disconnect: 0.1, MaxDelay: 200 * time.Microsecond,
	}
	run := func(clock stream.Clock, async bool) stream.FleetResult {
		t.Helper()
		svc, err := NewService(Config{Shards: 2, Shard: ShardOptions{
			Workers: 2, Recover: true, CheckpointDir: t.TempDir(), Chaos: chaos,
			Clock: clock, AsyncCheckpoints: async,
			RetryBackoff: mqtt.Backoff{Base: 10 * time.Millisecond, Max: 40 * time.Millisecond},
		}})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close(false)
		if err := svc.Add(jobs); err != nil {
			t.Fatal(err)
		}
		svc.WaitIdle()
		return svc.Result()
	}
	vc := stream.NewVirtualClock()
	fast := run(vc, true)
	plain := run(nil, false)
	checkHomesEqual(t, fast.Homes, plain.Homes)
	checkStatsEqual(t, fast.Stats, plain.Stats, false)
	for i := range fast.Outcomes {
		g, w := fast.Outcomes[i], plain.Outcomes[i]
		g.Duration, w.Duration = 0, 0
		if g != w {
			t.Fatalf("outcome %s diverges:\n%+v\nvs\n%+v", w.ID, g, w)
		}
	}
	if plain.Stats.Retries == 0 {
		t.Fatalf("fixture too tame: %+v", plain.Stats)
	}
	if vc.Advanced() == 0 {
		t.Fatal("virtual clock recorded no skipped waits")
	}
}

// TestServiceRemove evicts one pending and one mid-run home; the rest of
// the fleet finishes and the removed homes report the removed outcome.
func TestServiceRemove(t *testing.T) {
	const homes, days = 6, 2
	jobs := synthJobs(homes, days, 21)
	svc, err := NewService(Config{Shards: 1, Shard: ShardOptions{Workers: 1, MaxResident: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(false)
	if err := svc.Add(jobs); err != nil {
		t.Fatal(err)
	}
	// The last home sits beyond the admission window: removing it drops it
	// before it ever opens.
	if err := svc.Remove(jobs[homes-1].ID); err != nil {
		t.Fatal(err)
	}
	svc.WaitIdle()
	res := svc.Result()
	removed := 0
	for _, o := range res.Outcomes {
		if o.Status == OutcomeRemoved {
			removed++
		}
	}
	if removed != 1 {
		t.Fatalf("removed %d homes, want 1: %+v", removed, res.Outcomes)
	}
	if got := svc.Snapshot(); got.HomesCompleted != homes-1 || got.HomesRemoved != 1 {
		t.Fatalf("snapshot after removal: %+v", got)
	}
	if err := svc.Remove(jobs[0].ID); err == nil {
		t.Fatalf("removing a finished home should error")
	}
}

// TestServiceControlPlane exercises the full MQTT admin loop: add through
// the job factory, status, pause/resume, drain/rehydrate, the metrics
// broadcast, and stop.
func TestServiceControlPlane(t *testing.T) {
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	const days = 1
	factory := func(req AddRequest) ([]stream.Job, error) {
		if req.Synth <= 0 {
			return nil, fmt.Errorf("test factory wants synth > 0")
		}
		jobs := synthJobs(req.Synth, days, req.Seed)
		for i := range jobs {
			if req.Prefix != "" {
				jobs[i].ID = req.Prefix + jobs[i].ID
			}
		}
		return jobs, nil
	}
	svc, err := NewService(Config{
		Shards:       2,
		Shard:        ShardOptions{Workers: 1},
		Broker:       broker.Addr(),
		MetricsEvery: 20 * time.Millisecond,
		Jobs:         factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(false)

	a, err := NewAdmin(broker.Addr(), mqtt.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	feed, err := a.Watch()
	if err != nil {
		t.Fatal(err)
	}
	n, err := a.Add(AddRequest{Synth: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("added %d homes, want 4", n)
	}
	if _, err := a.Add(AddRequest{Synth: 4, Seed: 5}); err == nil {
		t.Fatal("duplicate add should fail without a prefix")
	}
	if n, err = a.Add(AddRequest{Synth: 2, Seed: 5, Prefix: "again-"}); err != nil || n != 2 {
		t.Fatalf("prefixed re-add: n=%d err=%v", n, err)
	}
	if err := a.Pause("no-such-home"); err == nil {
		t.Fatal("pausing an unknown home should fail")
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, err := a.Status()
		if err != nil {
			t.Fatal(err)
		}
		if snap.HomesCompleted == 6 {
			if len(snap.Shards) != 2 || snap.HomesAdded != 6 || snap.Slots != 6*int64(aras.SlotsPerDay) {
				t.Fatalf("status snapshot: %+v", snap)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never finished: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := a.Drain(0); err != nil {
		t.Fatal(err)
	}
	if err := a.Drain(7); err == nil {
		t.Fatal("draining an out-of-range shard should fail")
	}
	if err := a.Rehydrate(0); err != nil {
		t.Fatal(err)
	}
	select {
	case snap, ok := <-feed:
		if !ok {
			t.Fatal("metrics feed closed early")
		}
		if snap.HomesAdded == 0 {
			t.Fatalf("metrics broadcast missing counters: %+v", snap)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no metrics broadcast arrived")
	}
	if err := a.Stop(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-svc.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("stop request never tripped Done")
	}
}

// TestShardWorkerDeterminism pins Workers=1 ≡ Workers=N through the
// multiplexed scheduler.
func TestShardWorkerDeterminism(t *testing.T) {
	const homes, days = 8, 2
	jobs := synthJobs(homes, days, 61)
	run := func(workers int) stream.FleetResult {
		t.Helper()
		svc, err := NewService(Config{Shards: 2, Shard: ShardOptions{Workers: workers, MaxResident: 3}})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close(false)
		if err := svc.Add(jobs); err != nil {
			t.Fatal(err)
		}
		svc.WaitIdle()
		return svc.Result()
	}
	seq, par := run(1), run(4)
	checkHomesEqual(t, par.Homes, seq.Homes)
	checkStatsEqual(t, par.Stats, seq.Stats, false)
}
