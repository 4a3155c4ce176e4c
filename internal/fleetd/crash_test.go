package fleetd

import (
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/acyd-lab/shatter/internal/mqtt"
	"github.com/acyd-lab/shatter/internal/scenario"
	"github.com/acyd-lab/shatter/internal/stream"
)

// synthFactory is a deterministic JobFactory over the synthetic fleet —
// replaying the same AddRequest always resolves the same jobs, which is the
// property manifest replay depends on.
func synthFactory(req AddRequest) ([]stream.Job, error) {
	jobs := synthJobs(req.Synth, req.Days, req.Seed)
	for i := range jobs {
		jobs[i].ID = req.Prefix + jobs[i].ID
	}
	return jobs, nil
}

// waitIdleTimeout bounds WaitIdle so a recovery bug fails the test instead
// of hanging it.
func waitIdleTimeout(t *testing.T, svc *Service, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		svc.WaitIdle()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("fleet never went idle: %+v", svc.Snapshot())
	}
}

// TestServiceCrashRestartMatchesUninterrupted is the crash-injection gate:
// a service killed without drain (Close(false) drops every in-flight home
// exactly as a kill -9 would — no persistence pass, only the day-boundary
// checkpoints already on disk) and restarted on the same state dir must
// finish with per-home results byte-identical to an uninterrupted run.
func TestServiceCrashRestartMatchesUninterrupted(t *testing.T) {
	run := func(t *testing.T, homes, days int, mqttFrames bool) {
		req := AddRequest{Synth: homes, Seed: 42, Days: days}
		jobs, err := synthFactory(req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := stream.RunFleet(jobs, stream.FleetOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}

		var broker *mqtt.Broker
		if mqttFrames {
			broker, err = mqtt.NewBroker("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer broker.Close()
		}
		stateDir := t.TempDir()
		boot := func() *Service {
			t.Helper()
			opts := ShardOptions{Workers: 2, MaxResident: 3, Recover: true,
				RetryBackoff: mqtt.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond}}
			if mqttFrames {
				opts.Broker = broker.Addr()
				opts.Dial = mqtt.DialOptions{Redial: true}
			}
			svc, err := NewService(Config{Shards: 2, Shard: opts, StateDir: stateDir, Jobs: synthFactory})
			if err != nil {
				t.Fatal(err)
			}
			return svc
		}

		svc := boot()
		if n, err := svc.AddSpec(req); err != nil || n != homes {
			t.Fatalf("AddSpec: n=%d err=%v", n, err)
		}
		kills := 0
		for {
			// Randomized-by-scheduling kill points: the sleep lands the kill
			// wherever the fleet happens to be; correctness may not depend on
			// where. The window widens with each kill so progress always
			// outpaces the replay overhead.
			time.Sleep(time.Duration(4+4*kills) * time.Millisecond)
			if svc.Snapshot().HomesActive == 0 {
				break
			}
			svc.Close(false) // kill: no drain, no persistence pass
			kills++
			if kills > 100 {
				t.Fatalf("fleet makes no progress across restarts: %+v", svc.Snapshot())
			}
			svc = boot()
			done, live := svc.Resumed()
			if done+live != homes {
				t.Fatalf("restart %d resumed %d+%d homes, want %d", kills, done, live, homes)
			}
		}
		defer svc.Close(false)
		if kills < 2 {
			t.Fatalf("fleet finished after only %d kills; fixture too small to exercise recovery", kills)
		}
		waitIdleTimeout(t, svc, 2*time.Minute)
		got := svc.Result()
		checkHomesEqual(t, got.Homes, want.Homes)
		checkStatsEqual(t, got.Stats, want.Stats, true)
		if got.Stats.Quarantined != 0 {
			t.Fatalf("crash-restart quarantined homes: %+v", got.Stats)
		}
	}
	t.Run("direct", func(t *testing.T) { run(t, 24, 8, false) })
	t.Run("mqtt", func(t *testing.T) { run(t, 8, 5, true) })
}

// TestServicePausePersistsAcrossRestart: an admin pause is part of the
// durable fleet shape — after a crash-restart the home is still paused, and
// resuming it completes the fleet identically.
func TestServicePausePersistsAcrossRestart(t *testing.T) {
	const homes, days = 4, 2
	req := AddRequest{Synth: homes, Seed: 55, Days: days}
	jobs, err := synthFactory(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stream.RunFleet(jobs, stream.FleetOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	boot := func() *Service {
		t.Helper()
		svc, err := NewService(Config{Shards: 1,
			Shard:    ShardOptions{Workers: 1},
			StateDir: stateDir, Jobs: synthFactory})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	svc := boot()
	if _, err := svc.AddSpec(req); err != nil {
		t.Fatal(err)
	}
	target := jobs[homes-1].ID
	if err := svc.Pause(target); err != nil {
		t.Fatal(err)
	}
	svc.Close(false)

	svc = boot()
	defer svc.Close(false)
	// Everything except the paused home finishes.
	deadline := time.Now().Add(time.Minute)
	for {
		snap := svc.Snapshot()
		if snap.HomesCompleted == homes-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet stuck after restart: %+v", snap)
		}
		time.Sleep(time.Millisecond)
	}
	if snap := svc.Snapshot(); snap.HomesActive != 1 {
		t.Fatalf("want exactly the replayed pause active, got %+v", snap)
	}
	if err := svc.Resume(target); err != nil {
		t.Fatal(err)
	}
	waitIdleTimeout(t, svc, time.Minute)
	got := svc.Result()
	checkHomesEqual(t, got.Homes, want.Homes)
}

// TestServiceRemovedAndFinishedSurviveRestart: removed homes stay removed
// and finished homes are served from their journaled results (not re-run)
// after a restart.
func TestServiceRemovedAndFinishedSurviveRestart(t *testing.T) {
	const homes, days = 4, 1
	req := AddRequest{Synth: homes, Seed: 21, Days: days}
	jobs, err := synthFactory(req)
	if err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	boot := func() *Service {
		t.Helper()
		svc, err := NewService(Config{Shards: 1,
			Shard:    ShardOptions{Workers: 1, MaxResident: 2},
			StateDir: stateDir, Jobs: synthFactory})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	svc := boot()
	if _, err := svc.AddSpec(req); err != nil {
		t.Fatal(err)
	}
	// The last home waits beyond the admission window; remove it outright.
	if err := svc.Remove(jobs[homes-1].ID); err != nil {
		t.Fatal(err)
	}
	waitIdleTimeout(t, svc, time.Minute)
	first := svc.Result()
	svc.Close(false)

	svc = boot()
	defer svc.Close(false)
	done, live := svc.Resumed()
	if done != homes || live != 0 {
		t.Fatalf("restart resumed %d done / %d live, want %d done", done, live, homes)
	}
	waitIdleTimeout(t, svc, time.Minute)
	second := svc.Result()
	checkHomesEqual(t, second.Homes, first.Homes)
	for i := range second.Outcomes {
		g, w := second.Outcomes[i], first.Outcomes[i]
		if g.Status != w.Status || g.Days != w.Days {
			t.Fatalf("outcome %s changed across restart:\n%+v\nvs\n%+v", w.ID, g, w)
		}
	}
	if snap := svc.Snapshot(); snap.HomesRemoved != 1 || snap.HomesCompleted != homes-1 {
		t.Fatalf("restored counters: %+v", snap)
	}
	if err := svc.Remove(jobs[0].ID); err == nil {
		t.Fatal("mutating a manifest-restored home should error")
	}
}

// TestServiceBrokerOutageChaos runs the fleet's MQTT frame transport through
// repeated broker crash/restart cycles: session-resume pipes plus supervised
// retries must land every home, byte-identical to an undisturbed run.
func TestServiceBrokerOutageChaos(t *testing.T) {
	const homes, days = 6, 5
	req := AddRequest{Synth: homes, Seed: 77, Days: days}
	jobs, err := synthFactory(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stream.RunFleet(jobs, stream.FleetOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	svc, err := NewService(Config{Shards: 2, Shard: ShardOptions{
		Workers: 2, Recover: true, MaxRetries: 1000, CheckpointDir: t.TempDir(),
		Broker:         broker.Addr(),
		Dial:           mqtt.DialOptions{Redial: true, Backoff: mqtt.Backoff{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond}},
		RetryBackoff:   mqtt.Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond},
		ReceiveTimeout: 500 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(false)
	if err := svc.Add(jobs); err != nil {
		t.Fatal(err)
	}
	// One outage is guaranteed to land mid-flight: the broker goes dark the
	// moment the fleet is admitted — workers are dialing or streaming — and
	// stays down long enough that a fast machine cannot finish around it.
	broker.Suspend()
	time.Sleep(30 * time.Millisecond)
	if err := broker.Resume(); err != nil {
		t.Fatal(err)
	}
	// Then randomized outages keep cycling for the rest of the run.
	outages := stream.StartBrokerOutages(broker, stream.OutageSchedule{
		Every: 20 * time.Millisecond, Down: 15 * time.Millisecond, Seed: 5,
	}, nil)
	waitIdleTimeout(t, svc, 3*time.Minute)
	outages.Stop()
	got := svc.Result()
	if got.Stats.Retries == 0 {
		t.Fatal("fixture too tame: no home ever retried across the outages")
	}
	if got.Stats.Quarantined != 0 {
		t.Fatalf("broker chaos lost homes: %+v", got.Stats)
	}
	checkHomesEqual(t, got.Homes, want.Homes)
	checkStatsEqual(t, got.Stats, want.Stats, true)
}

// TestAdminRidesBrokerRestart covers the control plane across an outage:
// verbs fail fast (no hangs) while the broker is down, and the same Admin —
// without redialing by hand — works again once the broker is back.
func TestAdminRidesBrokerRestart(t *testing.T) {
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	svc, err := NewService(Config{
		Shards:       1,
		Shard:        ShardOptions{Workers: 1},
		Broker:       broker.Addr(),
		MetricsEvery: 20 * time.Millisecond,
		Jobs:         synthFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(false)
	a, err := NewAdmin(broker.Addr(), mqtt.DialOptions{
		Backoff: mqtt.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Timeout = 2 * time.Second
	if _, err := a.Status(); err != nil {
		t.Fatal(err)
	}

	broker.Suspend()
	time.Sleep(30 * time.Millisecond) // let both sessions notice the cut
	start := time.Now()
	if _, err := a.Status(); err == nil {
		t.Fatal("status during the outage should fail")
	}
	if took := time.Since(start); took > a.Timeout+2*time.Second {
		t.Fatalf("status during the outage hung for %v", took)
	}

	if err := broker.Resume(); err != nil {
		t.Fatal(err)
	}
	// Both the admin session and the service's control plane resubscribe on
	// their own; poll until the round trip works again.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := a.Status(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("control plane never recovered after broker restart")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The full verb set works across the restart, not just status.
	if n, err := a.Add(AddRequest{Synth: 2, Seed: 3, Days: 1}); err != nil || n != 2 {
		t.Fatalf("add after restart: n=%d err=%v", n, err)
	}
	if err := a.Pause("no-such-home"); err == nil || !strings.Contains(err.Error(), "unknown home") {
		t.Fatalf("pause round trip after restart: %v", err)
	}
	deadline = time.Now().Add(time.Minute)
	for {
		snap, err := a.Status()
		if err != nil {
			t.Fatal(err)
		}
		if snap.HomesCompleted == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-restart fleet never finished: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The metrics broadcast is alive again too.
	feed, err := a.Watch()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case snap, ok := <-feed:
		if !ok || snap.HomesAdded == 0 {
			t.Fatalf("metrics broadcast dead after restart: ok=%v %+v", ok, snap)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("no metrics broadcast after broker restart")
	}
}

// stallSource streams normally until an absolute day, then blocks until the
// test releases it — the wedged-transport fixture for the liveness
// watchdog. SeekDay keeps the day counter absolute, so every restored
// attempt wedges at the same place. The shard pulls day-blocks only; Next
// is the embedded source's.
type stallSource struct {
	stream.Source
	stallAt int
	n       int
	unblock chan struct{}
}

func (s *stallSource) NextBlock(dst *stream.DayBlock) error {
	if s.n == s.stallAt {
		<-s.unblock
		return errors.New("stalled transport released")
	}
	s.n++
	return s.Source.NextBlock(dst)
}

func (s *stallSource) SeekDay(day int) error {
	sk, ok := s.Source.(stream.DaySeeker)
	if !ok {
		return errors.New("stall source cannot seek")
	}
	if err := sk.SeekDay(day); err != nil {
		return err
	}
	s.n = day
	return nil
}

// TestShardWatchdogQuarantinesStalledHome: a home whose transport stops
// producing day boundaries is force-failed by the progress watchdog, retried
// from its checkpoint, and — still wedged — quarantined, while the rest of
// the fleet finishes untouched.
func TestShardWatchdogQuarantinesStalledHome(t *testing.T) {
	const days = 2
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	specs := scenario.SynthFleet(2, 404)
	unblock := make(chan struct{})
	t.Cleanup(func() { close(unblock) }) // release wedged publisher goroutines
	base := specJob(specs[0], days, 11)
	stalled := stream.Job{ID: base.ID, Open: func() (stream.Source, *stream.Home, error) {
		src, h, err := base.Open()
		if err != nil {
			return nil, nil, err
		}
		// Wedge on day 2, past the day-1 checkpoint boundary.
		return &stallSource{Source: src, stallAt: 1, unblock: unblock}, h, nil
	}}
	jobs := []stream.Job{stalled, specJob(specs[1], days, 12)}

	svc, err := NewService(Config{Shards: 1, Shard: ShardOptions{
		Workers: 2, Broker: broker.Addr(),
		Recover: true, MaxRetries: 1,
		RetryBackoff:     mqtt.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		ProgressDeadline: 200 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(false)
	if err := svc.Add(jobs); err != nil {
		t.Fatal(err)
	}
	waitIdleTimeout(t, svc, 2*time.Minute)
	res := svc.Result()
	byID := map[string]stream.HomeOutcome{}
	for _, o := range res.Outcomes {
		byID[o.ID] = o
	}
	dead := byID[specs[0].ID]
	if dead.Status != stream.OutcomeQuarantined {
		t.Fatalf("stalled home outcome: %+v", dead)
	}
	if !strings.Contains(dead.Err, "watchdog") {
		t.Fatalf("quarantine error does not name the watchdog: %q", dead.Err)
	}
	if dead.Attempts != 2 {
		t.Fatalf("stalled home attempts = %d, want 2 (one retry from checkpoint)", dead.Attempts)
	}
	clean := byID[specs[1].ID]
	if clean.Status != stream.OutcomeCompleted {
		t.Fatalf("clean home outcome: %+v", clean)
	}
	if snap := svc.Snapshot(); snap.WatchdogTrips < 2 {
		t.Fatalf("watchdog trips = %d, want >= 2", snap.WatchdogTrips)
	}
}

// TestServiceRestartOutcomesMatchJournal: the outcome a finishing home
// journals is the outcome the live service reports, Duration included — so
// a service restarted from the same state dir serves identical Outcomes().
// Chaos on a virtual clock drives homes through retries and quarantine, so
// the fail path's hand-back is covered as well as completion's.
func TestServiceRestartOutcomesMatchJournal(t *testing.T) {
	req := AddRequest{Synth: 8, Seed: 77, Days: 3}
	stateDir := t.TempDir()
	boot := func() *Service {
		t.Helper()
		svc, err := NewService(Config{Shards: 2, StateDir: stateDir, Jobs: synthFactory,
			Shard: ShardOptions{
				Workers: 2, Recover: true, MaxRetries: 1, Clock: stream.NewVirtualClock(),
				Chaos: &stream.FaultConfig{Seed: 77, Drop: 0.15, Duplicate: 0.15, Disconnect: 0.1},
			}})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	svc := boot()
	if _, err := svc.AddSpec(req); err != nil {
		t.Fatal(err)
	}
	waitIdleTimeout(t, svc, time.Minute)
	live := svc.Outcomes()
	svc.Close(false)

	svc = boot()
	defer svc.Close(false)
	if done, active := svc.Resumed(); done != req.Synth || active != 0 {
		t.Fatalf("restart resumed %d done + %d live homes, want %d done", done, active, req.Synth)
	}
	replayed := svc.Outcomes()
	if len(replayed) != len(live) {
		t.Fatalf("restart serves %d outcomes, want %d", len(replayed), len(live))
	}
	var retried, quarantined int
	for i := range live {
		if live[i].Duration <= 0 {
			t.Fatalf("home %s finished with no drive time: %+v", live[i].ID, live[i])
		}
		if replayed[i] != live[i] {
			t.Fatalf("journaled outcome differs from the live one:\n%+v\nvs\n%+v", replayed[i], live[i])
		}
		switch live[i].Status {
		case stream.OutcomeRetried:
			retried++
		case stream.OutcomeQuarantined:
			quarantined++
		}
	}
	if retried == 0 || quarantined == 0 {
		t.Fatalf("fixture too tame: %d retried, %d quarantined homes", retried, quarantined)
	}
}

// blockingSource parks its first NextBlock until released and then fails:
// a quantum that is running when the admin's Remove lands and fails after
// it.
type blockingSource struct {
	stream.Source
	entered chan struct{}
	release chan struct{}
}

func (b *blockingSource) NextBlock(*stream.DayBlock) error {
	close(b.entered)
	<-b.release
	return errors.New("link lost after remove")
}

// TestShardRemoveDuringFailingQuantum: a Remove issued while a home's
// quantum runs ends the home removed even when the quantum then fails — no
// retry, no quarantine, and no quarantine record that would outrank the
// journaled removal on restart.
func TestShardRemoveDuringFailingQuantum(t *testing.T) {
	req := AddRequest{Synth: 2, Seed: 31, Days: 2}
	entered, release := make(chan struct{}), make(chan struct{})
	var victim string
	factory := func(r AddRequest) ([]stream.Job, error) {
		jobs, err := synthFactory(r)
		if err != nil {
			return nil, err
		}
		base := jobs[0]
		victim = base.ID
		jobs[0].Open = func() (stream.Source, *stream.Home, error) {
			src, h, err := base.Open()
			if err != nil {
				return nil, nil, err
			}
			return &blockingSource{Source: src, entered: entered, release: release}, h, nil
		}
		return jobs, nil
	}
	stateDir := t.TempDir()
	boot := func() *Service {
		t.Helper()
		svc, err := NewService(Config{Shards: 1, StateDir: stateDir, Jobs: factory,
			Shard: ShardOptions{Workers: 2, Recover: true, MaxRetries: 2,
				RetryBackoff: mqtt.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond}}})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	svc := boot()
	if _, err := svc.AddSpec(req); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(time.Minute):
		t.Fatal("victim never started streaming")
	}
	if err := svc.Remove(victim); err != nil {
		t.Fatal(err)
	}
	close(release)
	waitIdleTimeout(t, svc, time.Minute)
	if _, out, _ := svc.shards[0].Outcome(victim); out.Status != OutcomeRemoved {
		t.Fatalf("live outcome: %+v", out)
	}
	if snap := svc.Snapshot(); snap.HomesRemoved != 1 || snap.HomesFailed != 0 || snap.HomesCompleted != 1 || snap.Retries != 0 {
		t.Fatalf("snapshot: %+v", snap)
	}
	svc.Close(false)

	svc = boot()
	defer svc.Close(false)
	for _, out := range svc.Outcomes() {
		want := stream.OutcomeCompleted
		if out.ID == victim {
			want = OutcomeRemoved
		}
		if out.Status != want {
			t.Fatalf("restarted outcome %+v, want %s", out, want)
		}
	}
}

// TestServiceRestoreFallback: a checkpoint dir seeded with corrupt files
// makes every home start fresh instead of failing, and the fleet matches a
// clean RunFleet.
func TestServiceRestoreFallback(t *testing.T) {
	const homes, days = 3, 2
	jobs := synthJobs(homes, days, 57)
	want, err := stream.RunFleet(jobs, stream.FleetOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, j := range jobs {
		if err := os.WriteFile(stream.CheckpointPath(dir, j.ID), []byte("not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	svc, err := NewService(Config{Shards: 1, Shard: ShardOptions{Workers: 2, Recover: true, CheckpointDir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(false)
	if err := svc.Add(jobs); err != nil {
		t.Fatal(err)
	}
	waitIdleTimeout(t, svc, time.Minute)
	got := svc.Result()
	checkHomesEqual(t, got.Homes, want.Homes)
	for _, out := range got.Outcomes {
		if out.Status != stream.OutcomeCompleted || out.Attempts != 1 || out.Restores != 0 {
			t.Fatalf("outcome: %+v", out)
		}
		if ck, err := stream.LoadCheckpoint(dir, out.ID); ck != nil || err != nil {
			t.Fatalf("completed home %s left a checkpoint: %+v, %v", out.ID, ck, err)
		}
	}
}
