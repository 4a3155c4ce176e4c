package fleetd

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/mqtt"
	"github.com/acyd-lab/shatter/internal/stream"
)

// ShardOptions configures one shard's scheduler and transport. The zero
// value multiplexes over one worker per CPU with a 4096-home admission
// window, one-day quanta, direct (in-process) day-block transport, and no
// supervision.
type ShardOptions struct {
	// Workers is the shard's worker-goroutine count; 0 selects one per CPU.
	// Homes vastly outnumber workers — the scheduler multiplexes them.
	Workers int
	// MaxResident bounds how many homes hold live pipeline state at once
	// (the admission window); 0 defaults to 4096. Homes beyond the window
	// wait unopened on the pending queue, which is what keeps a 100k-home
	// shard's memory proportional to the window, not the fleet.
	MaxResident int
	// QuantumDays is how many days a home advances per scheduling turn
	// before yielding its worker at a day boundary; 0 defaults to 1. Larger
	// quanta amortize scheduling overhead; smaller ones tighten pause/drain
	// latency.
	QuantumDays int

	// Recover enables supervised retries: a failed home reopens from its
	// last day-boundary checkpoint up to MaxRetries times (0 defaults to 3,
	// negative disables) before it is quarantined.
	Recover bool
	// MaxRetries is the retry budget per home (see Recover).
	MaxRetries int
	// RetryBackoff schedules the pause before each retry; retries wait on a
	// timer, never on a worker.
	RetryBackoff mqtt.Backoff
	// CheckpointDir persists day-boundary checkpoints (cadence
	// CheckpointEvery, default 1) so drains and retries survive the
	// process; empty keeps checkpoints in memory, which still supports
	// in-process drain/rehydrate and retry.
	CheckpointDir   string
	CheckpointEvery int
	// AsyncCheckpoints moves day-boundary disk writes onto a background
	// sink; drain, stop, restore, and completion barrier the sink before
	// they read or finalize disk state (see stream.FleetOptions).
	AsyncCheckpoints bool
	// Chaos injects the seeded fault schedule into every home's transport.
	Chaos *stream.FaultConfig
	// Clock times chaos delay faults and retry backoff timers; nil (the
	// default, kept by the live service) is real wall-clock time.
	Clock stream.Clock

	// ProgressDeadline arms the liveness watchdog: a running home whose
	// transport produces no day-boundary advance within this window has the
	// transport force-closed and takes the supervised fault path — retry
	// from its last checkpoint, then quarantine. 0 disables. The watchdog
	// guards transports that can stall (the MQTT pipe during a broker hang);
	// direct in-process sources are pull-driven and never wedge, so it does
	// not arm on them. Deadlines are scheduled on Clock — a VirtualClock
	// fires timers immediately, so virtual-time runs should leave this off.
	ProgressDeadline time.Duration

	// Broker, when non-empty, routes every home's day-block frames through
	// the MQTT broker at this address (per-home home/<id>/sensor topics),
	// exactly like stream.RunFleet's MQTT mode.
	Broker string
	// Dial, ProbeTimeout, and ReceiveTimeout configure the broker
	// connections (see stream.FleetOptions).
	Dial           mqtt.DialOptions
	ProbeTimeout   time.Duration
	ReceiveTimeout time.Duration

	// onDone, when set, observes every home reaching a terminal state on
	// this shard with its final result and supervision record — the
	// service's manifest hook. Called off the shard lock, on the worker (or
	// failing goroutine) that finished the home.
	onDone func(res stream.HomeResult, out stream.HomeOutcome)
}

// withDefaults resolves the documented option defaults.
func (o ShardOptions) withDefaults() ShardOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxResident <= 0 {
		o.MaxResident = 4096
	}
	if o.QuantumDays <= 0 {
		o.QuantumDays = 1
	}
	if o.Recover && o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.Recover && o.ReceiveTimeout == 0 && o.Broker != "" {
		o.ReceiveTimeout = 10 * time.Second
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 1
	}
	if o.Clock == nil {
		o.Clock = stream.RealClock
	}
	return o
}

// supervised reports whether the shard keeps day-boundary checkpoints as
// it runs (for retries and/or persistence).
func (o ShardOptions) supervised() bool { return o.Recover || o.CheckpointDir != "" }

// homeState is a home's position in the shard lifecycle.
type homeState uint8

const (
	// statePending: admitted to the shard but holding no pipeline state —
	// freshly added, awaiting a retry timer, or waiting out the admission
	// window.
	statePending homeState = iota
	// stateReady: resident at a day boundary, queued for a worker.
	stateReady
	// stateRunning: a worker is driving the home's quantum.
	stateRunning
	// stateParked: resident at a day boundary, held off the run queue by a
	// drain in progress.
	stateParked
	// statePaused: resident (or pending) and explicitly paused.
	statePaused
	// stateDrained: progress persisted to a checkpoint, pipeline released;
	// Rehydrate readmits the home.
	stateDrained
	// stateDone, stateFailed, stateRemoved are terminal.
	stateDone
	stateFailed
	stateRemoved
)

// homeRun is one home's scheduling record. Pipeline fields (src, drive,
// home, pos, days, …) are only touched by the worker currently driving the
// home or, for parked/drained homes, under the shard lock with no worker
// attached — a home is never on two workers at once.
type homeRun struct {
	job   stream.Job
	state homeState

	src   stream.Source      // as returned by job.Open (owns real resources)
	drive stream.BlockSource // transport-wrapped day-block source the scheduler pulls

	home *stream.Home
	pos  int // last ingested absolute slot, for verdict latency
	days int // completed days

	opens    int // pipeline openings (attempt epoch for the MQTT pipe)
	failures int
	restores int
	lastCk   *stream.Checkpoint // newest day-boundary checkpoint
	ckDay    int                // highest day boundary ever checkpointed

	pauseReq  bool
	removeReq bool
	err       error
	result    stream.HomeResult
	elapsed   time.Duration

	wd *watchdog // liveness watchdog (nil unless ProgressDeadline armed it)
}

// outcome assembles the home's supervision record. Callers own the home
// (its worker, or the shard lock for idle homes).
func (h *homeRun) outcome(status stream.OutcomeStatus) stream.HomeOutcome {
	out := stream.HomeOutcome{
		ID:       h.job.ID,
		Status:   status,
		Attempts: h.opens,
		Restores: h.restores,
		Days:     h.days,
		Duration: h.elapsed,
	}
	out.CheckpointDay = h.ckDay
	if h.err != nil {
		out.Err = h.err.Error()
	}
	return out
}

// Shard multiplexes many homes over a small worker pool: homes advance one
// quantum (QuantumDays, ending at a day boundary) per scheduling turn and
// then requeue, so thousands of homes share a handful of goroutines and
// every resident home is always at a day boundary when it is not actively
// running — the invariant that makes pause, drain, and checkpointing safe
// at any moment. Backpressure is structural: the bounded admission window
// caps live pipelines (injector→detector→controller state), and the ready
// queue only ever holds admitted homes.
type Shard struct {
	id   int
	opts ShardOptions
	met  *Metrics
	// ckSink is the async checkpoint writer (nil unless CheckpointDir and
	// AsyncCheckpoints are both set).
	ckSink *stream.CheckpointSink

	mu      sync.Mutex
	cond    *sync.Cond
	homes   map[string]*homeRun
	pending []*homeRun
	ready   []*homeRun
	// resident counts homes holding pipeline state; running the homes on a
	// worker right now; outstanding the homes not yet in a terminal state.
	resident    int
	running     int
	outstanding int
	done        int
	failed      int
	draining    bool
	drained     bool
	stopped     bool

	wg sync.WaitGroup
}

// newShard starts the shard's worker pool.
func newShard(id int, opts ShardOptions, met *Metrics) *Shard {
	sh := &Shard{
		id:    id,
		opts:  opts.withDefaults(),
		met:   met,
		homes: make(map[string]*homeRun),
	}
	if sh.opts.CheckpointDir != "" && sh.opts.AsyncCheckpoints {
		sh.ckSink = stream.NewCheckpointSink(sh.opts.CheckpointDir)
	}
	sh.cond = sync.NewCond(&sh.mu)
	for w := 0; w < sh.opts.Workers; w++ {
		sh.wg.Add(1)
		go sh.worker()
	}
	return sh
}

// Add admits jobs to the shard's pending queue. Duplicate IDs (including
// completed ones) are rejected — they would collide on checkpoint files
// and MQTT topics.
func (sh *Shard) Add(jobs []stream.Job) error {
	return sh.add(jobs, nil)
}

// add is Add plus the manifest-replay path's pre-paused set: homes in it
// are admitted with their pause request already standing, so a fast worker
// cannot race them past the pause a prior process lifetime recorded.
func (sh *Shard) add(jobs []stream.Job, paused map[string]bool) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.stopped {
		return fmt.Errorf("fleetd: shard %d is stopped", sh.id)
	}
	for _, j := range jobs {
		if _, dup := sh.homes[j.ID]; dup {
			return fmt.Errorf("fleetd: duplicate home ID %q on shard %d", j.ID, sh.id)
		}
	}
	for _, j := range jobs {
		h := &homeRun{job: j, state: statePending, pauseReq: paused[j.ID]}
		sh.homes[j.ID] = h
		sh.pending = append(sh.pending, h)
		sh.outstanding++
	}
	sh.met.homesAdded.Add(int64(len(jobs)))
	sh.cond.Broadcast()
	return nil
}

// worker is one scheduling loop: claim the next runnable home, drive one
// quantum, repeat. The day-block buffer is reused across homes (sources
// size it per home).
func (sh *Shard) worker() {
	defer sh.wg.Done()
	var blk stream.DayBlock
	for {
		h := sh.next()
		if h == nil {
			return
		}
		sh.drive(h, &blk)
	}
}

// next blocks until a home is runnable (ready first, then admission from
// pending) or the shard stops.
func (sh *Shard) next() *homeRun {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		if sh.stopped {
			return nil
		}
		if !sh.draining {
			if h := sh.claimLocked(); h != nil {
				return h
			}
		}
		sh.cond.Wait()
	}
}

// claimLocked pops the next runnable home under the shard lock. Queue
// entries whose state moved on since they were enqueued (removed, drained)
// are stale and skipped.
func (sh *Shard) claimLocked() *homeRun {
	for len(sh.ready) > 0 {
		h := sh.ready[0]
		sh.ready = sh.ready[1:]
		switch {
		case h.state != stateReady:
			// stale entry
		case h.removeReq:
			sh.discardLocked(h)
		case h.pauseReq:
			h.state = statePaused
		default:
			h.state = stateRunning
			sh.running++
			return h
		}
	}
	for sh.resident < sh.opts.MaxResident && len(sh.pending) > 0 {
		h := sh.pending[0]
		sh.pending = sh.pending[1:]
		switch {
		case h.state != statePending:
			// stale entry
		case h.removeReq:
			sh.discardLocked(h)
		case h.pauseReq:
			h.state = statePaused
		default:
			h.state = stateRunning
			sh.resident++ // admission: the worker will open the pipeline
			sh.running++
			return h
		}
	}
	return nil
}

// drive advances one home by one quantum (or to end-of-stream) and hands
// it back to the scheduler. The quantum's time is folded into the home's
// elapsed total before the hand-back: yield, complete, and fail release the
// home to the scheduler (complete and fail also journal its outcome), so
// nothing may touch it afterwards.
func (sh *Shard) drive(h *homeRun, blk *stream.DayBlock) {
	began := time.Now()
	done, err := sh.quantum(h, blk)
	h.elapsed += time.Since(began)
	switch {
	case err != nil:
		sh.fail(h, err)
	case done:
		sh.complete(h)
	default:
		sh.yield(h)
	}
}

// quantum opens the home's pipeline if needed and drives up to QuantumDays
// day-blocks: one frame per home-day, day-boundary checkpoints at the
// configured cadence, and event metrics from IngestDay's accounting. It
// reports whether the home reached end-of-stream (h.result then holds the
// closed home's result). The verdict-latency position advances to the
// day's last slot before ingesting — a whole day arrives at once, so the
// latency metric is day-granular.
func (sh *Shard) quantum(h *homeRun, blk *stream.DayBlock) (bool, error) {
	if h.home == nil {
		if err := sh.open(h); err != nil {
			return false, err
		}
	}
	// The watchdog covers the running quantum only: between quanta the home
	// sits at a day boundary waiting for a worker, and scheduler latency is
	// not a stall. Every exit path (yield/complete/fail) disarms it.
	sh.armWatchdog(h)
	var slots, sensor, action int64
	defer func() {
		sh.met.slots.Add(slots)
		sh.met.sensorEvents.Add(sensor)
		sh.met.actionEvents.Add(action)
	}()
	for d := 0; d < sh.opts.QuantumDays; d++ {
		err := h.drive.NextBlock(blk)
		if err == io.EOF {
			res, err := h.home.Close()
			if err != nil {
				return false, err
			}
			h.result = res
			return true, nil
		}
		if err != nil {
			return false, err
		}
		h.pos = blk.Day*aras.SlotsPerDay + aras.SlotsPerDay - 1
		st, err := h.home.IngestDay(blk)
		if err != nil {
			return false, err
		}
		slots += int64(aras.SlotsPerDay)
		sensor += st.SensorEvents
		action += st.ActionEvents
		h.days = blk.Day + 1
		sh.met.days.Add(1)
		h.wd.feed()
		if sh.opts.supervised() && h.days%sh.opts.CheckpointEvery == 0 {
			if err := sh.checkpoint(h, false); err != nil {
				return false, err
			}
		}
	}
	return false, nil
}

// open builds (or rebuilds) a home's pipeline on the claiming worker,
// restoring from the newest checkpoint when one exists — the same
// open/restore/transport sequence as stream.RunFleet's supervised attempt.
func (sh *Shard) open(h *homeRun) error {
	src, home, err := h.job.Open()
	if err != nil {
		return err
	}
	sh.wireVerdicts(h, home)
	ck := h.lastCk
	if sh.opts.CheckpointDir != "" {
		if sh.ckSink != nil {
			// The restore decision reads the disk; queued async writes must
			// land first, and a recorded write failure fails this attempt
			// (retrying re-runs the flush) instead of resuming stale.
			if ferr := sh.ckSink.Flush(h.job.ID); ferr != nil {
				closeSource(src)
				return ferr
			}
		}
		if disk, lerr := stream.LoadCheckpoint(sh.opts.CheckpointDir, h.job.ID); lerr == nil && disk != nil {
			ck = disk
		}
		// Load errors (corrupt file) fall back to the in-memory checkpoint
		// or a fresh start; the next save overwrites the bad file.
	}
	if ck != nil && ck.Days > 0 {
		if rerr := stream.RestoreFrom(src, home, ck); rerr == nil {
			h.days = ck.Days
			h.restores++
			sh.met.restores.Add(1)
		} else {
			// A checkpoint that does not fit restarts the home from scratch
			// on fresh components — a half-restored home must never stream.
			closeSource(src)
			if src, home, err = h.job.Open(); err != nil {
				return err
			}
			sh.wireVerdicts(h, home)
			h.days = 0
		}
	}
	h.opens++
	// Same wiring as stream.RunFleet: faults perturb whole day frames on the
	// (home, attempt, day)-keyed schedule, in the pipe or around the source.
	plan := sh.opts.Chaos.Plan(h.job.ID, h.opens-1)
	var drive stream.BlockSource
	if sh.opts.Broker != "" {
		pipe, perr := stream.OpenPipeOptions(sh.opts.Broker, stream.SensorTopic(h.job.ID), src, stream.PipeOptions{
			Dial:           sh.opts.Dial,
			ProbeTimeout:   sh.opts.ProbeTimeout,
			ReceiveTimeout: sh.opts.ReceiveTimeout,
			Faults:         plan,
			Epoch:          h.opens - 1,
			Clock:          sh.opts.Clock,
		})
		if perr != nil {
			closeSource(src)
			return perr
		}
		drive = pipe
	} else {
		drive = stream.NewFaultSource(src, plan, sh.opts.Clock)
	}
	h.src, h.drive, h.home = src, drive, home
	return nil
}

// wireVerdicts points the home's verdict hook at the shard metrics. Must
// run before any restore (the hook cannot be installed on a home that has
// already streamed).
func (sh *Shard) wireVerdicts(h *homeRun, home *stream.Home) {
	_ = home.SetOnVerdict(func(v adm.Verdict) {
		end := v.Episode.Day*aras.SlotsPerDay + v.Episode.ArrivalSlot + v.Episode.Duration - 1
		sh.met.observeVerdict(int64(h.pos-end), v.Anomalous)
	})
}

// checkpoint snapshots a home at its current day boundary: always into
// memory (the retry path), and onto disk when a checkpoint dir is set.
// Drive-path saves (direct=false) may route through the async sink;
// finalizing saves (drain, stop) pass direct=true, which barriers the sink
// first — so a stale queued write can never land after the newer
// synchronous one — and then writes in place.
func (sh *Shard) checkpoint(h *homeRun, direct bool) error {
	ck, err := h.home.Checkpoint()
	if err != nil {
		return err
	}
	h.lastCk = ck
	if ck.Days > h.ckDay {
		h.ckDay = ck.Days
	}
	if sh.opts.CheckpointDir != "" {
		if sh.ckSink != nil && !direct {
			if err := sh.ckSink.Save(ck); err != nil {
				return err
			}
		} else {
			if sh.ckSink != nil {
				if err := sh.ckSink.Flush(h.job.ID); err != nil {
					return err
				}
			}
			if err := stream.SaveCheckpoint(sh.opts.CheckpointDir, ck); err != nil {
				return err
			}
		}
	}
	sh.met.checkpoints.Add(1)
	return nil
}

// teardown releases a home's pipeline state. Safe on partially opened
// homes.
func (h *homeRun) teardown() {
	if h.drive != nil && h.drive != h.src {
		closeSource(h.drive) // MQTT pipe: closes pump + subscriptions
	}
	closeSource(h.src)
	h.src, h.drive, h.home = nil, nil, nil
}

// closeSource releases a source's resources when it holds any.
func closeSource(src stream.BlockSource) {
	if c, ok := src.(io.Closer); ok {
		c.Close()
	}
}

// watchdog is one home's liveness deadline: armed for the duration of a
// running quantum, fed at every day boundary, and tripped when a deadline
// elapses with no advance — at which point it force-closes the home's
// transport so the blocked worker unwedges into the ordinary supervised
// fault path (fail → retry from checkpoint → quarantine). Scheduling uses
// Clock.AfterFunc, which has no cancellation, so stale timers are defeated
// by a generation counter: every feed/disarm bumps the generation and a
// firing timer whose generation moved on is a no-op.
type watchdog struct {
	deadline time.Duration
	clock    stream.Clock
	met      *Metrics

	mu      sync.Mutex
	gen     int
	armed   bool
	tripped bool
	target  io.Closer
}

// arm starts a deadline against target (the home's transport).
func (w *watchdog) arm(target io.Closer) {
	w.mu.Lock()
	w.target = target
	w.tripped = false
	w.armed = true
	w.gen++
	gen := w.gen
	w.mu.Unlock()
	w.schedule(gen)
}

func (w *watchdog) schedule(gen int) {
	w.clock.AfterFunc(w.deadline, func() { w.fire(gen) })
}

// fire trips the watchdog if its generation is still current.
func (w *watchdog) fire(gen int) {
	w.mu.Lock()
	if !w.armed || gen != w.gen {
		w.mu.Unlock()
		return
	}
	w.armed = false
	w.tripped = true
	target := w.target
	w.target = nil
	w.mu.Unlock()
	w.met.watchdogTrips.Add(1)
	switch t := target.(type) {
	case nil:
	case interface{ Sever() }:
		// Pipes expose a non-waiting teardown: a stalled transport may have
		// its pump wedged inside the source, and a blocking Close here would
		// stall the timer goroutine behind the very hang being policed.
		t.Sever()
	default:
		target.Close() // unwedges the worker blocked in NextBlock
	}
}

// feed restarts the deadline after a day-boundary advance. Nil-safe.
func (w *watchdog) feed() {
	if w == nil {
		return
	}
	w.mu.Lock()
	if !w.armed {
		w.mu.Unlock()
		return
	}
	w.gen++
	gen := w.gen
	w.mu.Unlock()
	w.schedule(gen)
}

// disarm stops the deadline and reports (consuming) whether the watchdog
// tripped since it was armed. Nil-safe.
func (w *watchdog) disarm() bool {
	if w == nil {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.gen++
	w.armed = false
	w.target = nil
	tripped := w.tripped
	w.tripped = false
	return tripped
}

// armWatchdog arms h's watchdog for the quantum the worker is about to
// drive. Only closable transports are guarded — a direct in-process source
// is pull-driven and cannot stall, and closing is the only lever the
// watchdog has.
func (sh *Shard) armWatchdog(h *homeRun) {
	if sh.opts.ProgressDeadline <= 0 {
		return
	}
	target, ok := h.drive.(io.Closer)
	if !ok {
		return
	}
	if h.wd == nil {
		h.wd = &watchdog{deadline: sh.opts.ProgressDeadline, clock: sh.opts.Clock, met: sh.met}
	}
	h.wd.arm(target)
}

// yield hands a home back to the scheduler at a day boundary.
func (sh *Shard) yield(h *homeRun) {
	h.wd.disarm()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.running--
	switch {
	case h.removeReq:
		sh.discardLocked(h)
	case h.pauseReq:
		h.state = statePaused
	case sh.draining:
		h.state = stateParked
	default:
		h.state = stateReady
		sh.ready = append(sh.ready, h)
	}
	sh.cond.Broadcast()
}

// complete finishes a home successfully. The completion hook runs before
// the checkpoint is removed: if the process dies between them, the replayed
// manifest both restores the result and deletes the now-stale checkpoint —
// whereas the reverse order could lose a finished home's result entirely.
func (sh *Shard) complete(h *homeRun) {
	h.wd.disarm()
	h.teardown()
	if sh.opts.onDone != nil {
		status := stream.OutcomeCompleted
		if h.failures > 0 {
			status = stream.OutcomeRetried
		}
		sh.opts.onDone(h.result, h.outcome(status))
	}
	if sh.opts.CheckpointDir != "" {
		// Barrier any queued async write, then remove: the checkpoint served
		// its purpose, and a later fresh run must not resume from it.
		if sh.ckSink != nil {
			if ferr := sh.ckSink.Flush(h.job.ID); ferr != nil && h.err == nil {
				h.err = ferr
			}
		}
		if rerr := stream.RemoveCheckpoint(sh.opts.CheckpointDir, h.job.ID); rerr != nil && h.err == nil {
			h.err = rerr
		}
	}
	h.lastCk = nil
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.running--
	sh.resident--
	h.state = stateDone
	sh.done++
	sh.outstanding--
	sh.met.homesCompleted.Add(1)
	sh.cond.Broadcast()
}

// fail handles an attempt failure: tear the pipeline down, then either
// schedule a retry (off-worker, on a backoff timer) or quarantine the home.
// A watchdog trip is folded into the error here — the trip closed the
// transport, so the proximate error is a closed-pipe read, and the wrapped
// message keeps the real cause visible in the outcome.
func (sh *Shard) fail(h *homeRun, err error) {
	if h.wd.disarm() {
		err = fmt.Errorf("fleetd: home %q made no day-boundary progress within %s (watchdog): %w",
			h.job.ID, sh.opts.ProgressDeadline, err)
	}
	h.teardown()
	sh.mu.Lock()
	sh.running--
	sh.resident--
	h.failures++
	h.err = err
	retries := 0
	if sh.opts.Recover && sh.opts.MaxRetries > 0 {
		retries = sh.opts.MaxRetries
	}
	if h.failures <= retries && !sh.stopped && !h.removeReq {
		sh.met.retries.Add(1)
		h.state = statePending
		delay := sh.opts.RetryBackoff.Delay(h.failures - 1)
		// The retry waits on a timer, not a worker: the home re-enters the
		// pending queue when the backoff elapses and reopens from its last
		// checkpoint on whichever worker claims it.
		sh.opts.Clock.AfterFunc(delay, func() { sh.requeue(h) })
		sh.cond.Broadcast()
		sh.mu.Unlock()
		return
	}
	h.state = stateFailed
	sh.failed++
	sh.outstanding--
	sh.met.homesFailed.Add(1)
	sh.cond.Broadcast()
	sh.mu.Unlock()
	if sh.opts.onDone != nil {
		// Quarantine is terminal: journal it (off the shard lock) so a
		// restart does not resurrect a home the supervisor gave up on.
		sh.opts.onDone(stream.HomeResult{ID: h.job.ID}, h.outcome(stream.OutcomeQuarantined))
	}
}

// requeue readmits a retry-scheduled home once its backoff elapses.
func (sh *Shard) requeue(h *homeRun) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.stopped || h.state != statePending {
		return
	}
	if h.removeReq {
		sh.discardLocked(h)
		sh.cond.Broadcast()
		return
	}
	sh.pending = append(sh.pending, h)
	sh.cond.Broadcast()
}

// discardLocked finalizes a removal. The home holds no pipeline state on
// every path that reaches here (pending homes never opened; ready/parked
// homes are torn down by the caller that observed removeReq… see Remove).
func (sh *Shard) discardLocked(h *homeRun) {
	if h.state == stateRemoved {
		return
	}
	if h.home != nil {
		h.teardown()
		sh.resident--
	}
	h.state = stateRemoved
	sh.outstanding--
	sh.met.homesRemoved.Add(1)
}

// Pause parks a home at its next day boundary (immediately when it is not
// running). Paused homes stay resident; Resume requeues them.
func (sh *Shard) Pause(homeID string) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	h, ok := sh.homes[homeID]
	if !ok {
		return fmt.Errorf("fleetd: unknown home %q", homeID)
	}
	return sh.pauseLocked(h)
}

func (sh *Shard) pauseLocked(h *homeRun) error {
	switch h.state {
	case stateDone, stateFailed, stateRemoved, stateDrained:
		return fmt.Errorf("fleetd: home %q cannot pause (terminal or drained)", h.job.ID)
	}
	h.pauseReq = true
	// Ready/pending homes flip lazily when the dispatcher pops them;
	// running homes park at the end of their quantum.
	return nil
}

// Resume lifts a pause; the home requeues where it left off.
func (sh *Shard) Resume(homeID string) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	h, ok := sh.homes[homeID]
	if !ok {
		return fmt.Errorf("fleetd: unknown home %q", homeID)
	}
	sh.resumeLocked(h)
	return nil
}

func (sh *Shard) resumeLocked(h *homeRun) {
	h.pauseReq = false
	if h.state != statePaused {
		return
	}
	switch {
	case h.home != nil && sh.draining:
		// Mid-drain a resumed resident home parks like every other one, so
		// the drain finalizer checkpoints it instead of racing dispatch.
		h.state = stateParked
	case h.home != nil:
		h.state = stateReady
		sh.ready = append(sh.ready, h)
	default:
		h.state = statePending
		sh.pending = append(sh.pending, h)
	}
	sh.cond.Broadcast()
}

// PauseAll / ResumeAll apply Pause/Resume to every non-terminal home.
func (sh *Shard) PauseAll() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, h := range sh.homes {
		_ = sh.pauseLocked(h)
	}
}

func (sh *Shard) ResumeAll() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, h := range sh.homes {
		sh.resumeLocked(h)
	}
}

// Remove evicts a home from the shard: pending homes are dropped, resident
// ones are torn down at their next safe point.
func (sh *Shard) Remove(homeID string) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	h, ok := sh.homes[homeID]
	if !ok {
		return fmt.Errorf("fleetd: unknown home %q", homeID)
	}
	switch h.state {
	case stateDone, stateFailed, stateRemoved:
		return fmt.Errorf("fleetd: home %q already finished", homeID)
	case stateRunning:
		h.removeReq = true // the worker discards it at yield/fail
	default:
		h.removeReq = true
		sh.discardLocked(h)
		sh.cond.Broadcast()
	}
	return nil
}

// Drain quiesces the shard and persists it: dispatch stops, running quanta
// finish at their day boundaries, and then every resident home is
// checkpointed (to CheckpointDir when set, in memory otherwise) and its
// pipeline released. A drained shard holds no live state; Rehydrate
// rebuilds it byte-identically from the checkpoints. Homes that fail to
// checkpoint are quarantined rather than silently lost.
func (sh *Shard) Drain() error {
	sh.mu.Lock()
	if sh.stopped {
		sh.mu.Unlock()
		return fmt.Errorf("fleetd: shard %d is stopped", sh.id)
	}
	if sh.draining {
		sh.mu.Unlock()
		return fmt.Errorf("fleetd: shard %d already draining", sh.id)
	}
	sh.draining = true
	sh.cond.Broadcast()
	for sh.running > 0 {
		sh.cond.Wait()
	}
	// All resident homes are now parked at day boundaries (ready-queue
	// entries included — dispatch is off), so checkpointing them is safe.
	// The lock is held across the finalize: the shard is quiesced anyway,
	// and it keeps concurrent admin verbs from mutating a home mid-teardown.
	for _, h := range sh.homes {
		switch h.state {
		case stateReady, stateParked, statePaused:
		default:
			continue
		}
		if h.home == nil {
			continue
		}
		err := sh.checkpoint(h, true)
		h.teardown()
		sh.resident--
		if err != nil {
			h.err = fmt.Errorf("fleetd: drain checkpoint: %w", err)
			h.state = stateFailed
			sh.failed++
			sh.outstanding--
			sh.met.homesFailed.Add(1)
		} else {
			h.state = stateDrained
		}
	}
	sh.ready = nil
	sh.drained = true
	sh.cond.Broadcast()
	sh.mu.Unlock()
	return nil
}

// Rehydrate readmits a drained shard's homes: each reopens on a worker and
// restores from its drain checkpoint, resuming exactly where Drain stopped
// it.
func (sh *Shard) Rehydrate() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.stopped {
		return fmt.Errorf("fleetd: shard %d is stopped", sh.id)
	}
	if !sh.drained {
		return fmt.Errorf("fleetd: shard %d is not drained", sh.id)
	}
	for _, h := range sh.homes {
		if h.state == stateDrained {
			h.state = statePending
			sh.pending = append(sh.pending, h)
		}
	}
	sh.draining, sh.drained = false, false
	sh.cond.Broadcast()
	return nil
}

// WaitIdle blocks until every admitted home reached a terminal state (or
// the shard stops). Paused and drained homes keep the shard busy — they
// have not finished.
func (sh *Shard) WaitIdle() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for sh.outstanding > 0 && !sh.stopped {
		sh.cond.Wait()
	}
}

// Stop shuts the shard down: workers finish their current quantum and
// exit, then every still-resident home is checkpointed (when persist) and
// torn down. Idempotent.
func (sh *Shard) Stop(persist bool) {
	sh.mu.Lock()
	if sh.stopped {
		sh.mu.Unlock()
		sh.wg.Wait()
		return
	}
	sh.stopped = true
	sh.cond.Broadcast()
	sh.mu.Unlock()
	sh.wg.Wait()
	sh.mu.Lock()
	for _, h := range sh.homes {
		if h.home == nil {
			continue
		}
		if persist {
			if err := sh.checkpoint(h, true); err != nil && h.err == nil {
				h.err = err
			}
		}
		h.teardown()
		sh.resident--
	}
	sh.mu.Unlock()
	if sh.ckSink != nil {
		// Final barrier: every queued write lands before Stop returns.
		sh.ckSink.Close()
	}
}

// Status reports the shard's gauges.
func (sh *Shard) Status() ShardStatus {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := ShardStatus{
		Shard:    sh.id,
		Resident: sh.resident,
		Running:  sh.running,
		Done:     sh.done,
		Failed:   sh.failed,
		Drained:  sh.drained,
	}
	for _, h := range sh.homes {
		switch h.state {
		case statePending:
			st.Pending++
		case stateReady:
			st.Ready++
		case statePaused:
			st.Paused++
		}
	}
	return st
}

// Outcome reports one home's supervision record and result. The result is
// only meaningful for completed homes.
func (sh *Shard) Outcome(homeID string) (stream.HomeResult, stream.HomeOutcome, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	h, ok := sh.homes[homeID]
	if !ok {
		return stream.HomeResult{}, stream.HomeOutcome{}, false
	}
	status := OutcomeActive
	switch h.state {
	case stateDone:
		status = stream.OutcomeCompleted
		if h.failures > 0 {
			status = stream.OutcomeRetried
		}
	case stateFailed:
		status = stream.OutcomeQuarantined
	case stateRemoved:
		status = OutcomeRemoved
	}
	out := h.outcome(status)
	res := h.result
	if h.state != stateDone {
		res = stream.HomeResult{ID: h.job.ID}
	}
	return res, out, true
}

// OutcomeRemoved and OutcomeActive extend the stream outcome vocabulary
// for the long-running service: removed homes were evicted by an admin,
// active ones have not finished yet.
const (
	OutcomeRemoved stream.OutcomeStatus = "removed"
	OutcomeActive  stream.OutcomeStatus = "active"
)
