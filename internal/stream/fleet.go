package stream

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/acyd-lab/shatter/internal/mqtt"
	"github.com/acyd-lab/shatter/internal/pool"
)

// Job is one home's entry in a fleet run. Open constructs the home's source
// and runtime lazily on the worker that picks the job up, so a thousand-home
// fleet does not hold a thousand idle pipelines. Open may be called again
// when the supervisor retries the home from a checkpoint.
type Job struct {
	ID   string
	Open func() (Source, *Home, error)
}

// FleetOptions configures a fleet run. The zero value runs one worker per
// CPU over the direct (in-process) day-block transport, unsupervised (the
// first error aborts the fleet), with no checkpoints and no chaos.
type FleetOptions struct {
	// Workers bounds the pool. 0 uses one worker per CPU; 1 forces
	// sequential execution. Per-home results are deterministic either way.
	Workers int
	// Broker, when non-empty, routes every home's frames through the MQTT
	// broker at this address: each home publishes on home/<id>/sensor and
	// its runtime consumes the subscribed stream, with per-home
	// backpressure from the bounded subscription buffer and TCP flow
	// control. A fleet-wide monitor subscribed to home/+/sensor tallies the
	// bus traffic.
	Broker string

	// Recover enables the supervisor: failed homes are retried (from their
	// last checkpoint when CheckpointDir is set) up to MaxRetries, and homes
	// that exhaust the budget are quarantined instead of failing the fleet
	// (unless FailFast). Without Recover the first error aborts the run.
	Recover bool
	// MaxRetries is the retry budget per home; 0 defaults to 3, negative
	// disables retries (a home's first failure quarantines it).
	MaxRetries int
	// FailFast makes a quarantined home abort the whole fleet; the default
	// (false) records the quarantine and lets the rest of the fleet finish.
	FailFast bool
	// RetryBackoff schedules the pause before each retry attempt.
	RetryBackoff mqtt.Backoff

	// CheckpointDir, when non-empty, persists each home's progress at day
	// boundaries so retries resume from the last completed day instead of
	// replaying the whole stream. Checkpoints of completed homes are removed.
	CheckpointDir string
	// CheckpointEvery is the checkpoint cadence in days; 0 defaults to 1.
	CheckpointEvery int
	// AsyncCheckpoints moves checkpoint writes off the drive hot path onto a
	// background sink with flush barriers before every restore, completion,
	// and at fleet drain — durability moves from "at the day boundary" to
	// "by the next barrier", which is when staleness would be observable.
	AsyncCheckpoints bool

	// Chaos, when non-nil, injects the seeded fault schedule into every
	// home's transport (see FaultConfig).
	Chaos *FaultConfig

	// Clock times chaos delay faults and supervised-retry backoff. Nil (the
	// default) is real wall-clock time; a VirtualClock makes a chaos run
	// compute-bound while producing byte-identical results.
	Clock Clock

	// Dial configures every fleet broker connection (dial deadline, redial
	// attempts with exponential backoff, per-frame write deadline).
	Dial mqtt.DialOptions
	// ProbeTimeout bounds each subscription-registration handshake; 0
	// defaults to 5s.
	ProbeTimeout time.Duration
	// ReceiveTimeout bounds each consumer wait for the next frame; 0 waits
	// forever, except that supervised broker runs default to 10s so a lost
	// end-of-stream sentinel surfaces as a retryable error instead of a hang.
	ReceiveTimeout time.Duration
	// DrainTimeout bounds the monitor's wait for the fleet's end-of-stream
	// sentinels; 0 defaults to 10s.
	DrainTimeout time.Duration
	// QuiescePoll is the bus stillness window the monitor requires before
	// giving up on lost sentinels; 0 defaults to 20ms. The stillness wait is
	// bounded by a second DrainTimeout.
	QuiescePoll time.Duration
}

// withDefaults resolves the option defaults documented on FleetOptions.
func (o FleetOptions) withDefaults() FleetOptions {
	if o.Recover {
		if o.MaxRetries == 0 {
			o.MaxRetries = 3
		}
		if o.ReceiveTimeout == 0 && o.Broker != "" {
			o.ReceiveTimeout = 10 * time.Second
		}
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 1
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 5 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	if o.QuiescePoll <= 0 {
		o.QuiescePoll = 20 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = RealClock
	}
	return o
}

// OutcomeStatus classifies how a home's supervised run ended.
type OutcomeStatus string

const (
	// OutcomeCompleted: the home reached end-of-stream on its first attempt.
	OutcomeCompleted OutcomeStatus = "completed"
	// OutcomeRetried: the home failed at least once but a retry completed it.
	OutcomeRetried OutcomeStatus = "retried"
	// OutcomeQuarantined: the home exhausted its retry budget; its result is
	// excluded from the fleet aggregate and Err records the last failure.
	OutcomeQuarantined OutcomeStatus = "quarantined"
)

// HomeOutcome is one home's supervision record.
type HomeOutcome struct {
	ID     string        `json:"id"`
	Status OutcomeStatus `json:"status"`
	// Attempts counts runs of the home's pipeline (1 for a clean first run).
	Attempts int `json:"attempts"`
	// Restores counts attempts that resumed from a checkpoint.
	Restores int `json:"restores"`
	// CheckpointDay is the highest day boundary persisted for the home.
	CheckpointDay int `json:"checkpoint_day,omitempty"`
	// Days is the home's day progress when supervision ended: the streamed
	// day count for a completed home, and the furthest full day any attempt
	// reached for a quarantined one — so a quarantine record shows how far
	// the home got without re-running it.
	Days int `json:"days,omitempty"`
	// Duration is the wall-clock time spent driving the home's pipeline
	// across all attempts (retry backoff waits excluded).
	Duration time.Duration `json:"duration_ns,omitempty"`
	// Err is the final error of a quarantined home (or the last retried
	// failure's message for a home that eventually completed).
	Err string `json:"err,omitempty"`
}

// FleetStats aggregates a fleet run.
type FleetStats struct {
	Homes        int           `json:"homes"`
	Days         int64         `json:"days"`
	Slots        int64         `json:"slots"`
	SensorEvents int64         `json:"sensor_events"`
	ActionEvents int64         `json:"action_events"`
	Verdicts     int64         `json:"verdicts"`
	Events       int64         `json:"events"`
	TotalKWh     float64       `json:"total_kwh"`
	TotalCostUSD float64       `json:"total_cost_usd"`
	Injected     int64         `json:"injected"`
	Flagged      int64         `json:"flagged"`
	Elapsed      time.Duration `json:"elapsed_ns"`
	HomesPerSec  float64       `json:"homes_per_sec"`
	EventsPerSec float64       `json:"events_per_sec"`
	// BusFrames counts the data frames the fleet-wide home/+/sensor monitor
	// saw (zero without a broker). Each home-day is one binary frame, so a
	// clean fleet tallies its Days here and a chaos fleet an at-least-once
	// count of Days (retried attempts republish, and a corrupt marker stands
	// in for the day frame it replaced).
	BusFrames int64 `json:"bus_frames"`
	// Retries counts extra attempts across the fleet; Restores counts the
	// attempts that resumed from a checkpoint; Quarantined counts homes
	// that exhausted their retry budget.
	Retries     int64 `json:"retries"`
	Restores    int64 `json:"restores"`
	Quarantined int64 `json:"quarantined"`
}

// FleetResult is a fleet run's outcome: per-home results and supervision
// records in job order plus the aggregate. Quarantined homes contribute an
// ID-only HomeResult and are excluded from the aggregate. Everything except
// wall-clock fields (Stats' Elapsed/rates, each Outcome's Duration, and,
// under chaos, BusFrames) is deterministic for a fixed job list,
// independent of Workers and transport.
type FleetResult struct {
	Homes    []HomeResult
	Outcomes []HomeOutcome
	Stats    FleetStats
}

// RunFleet drives every job's pipeline to end-of-stream across a bounded
// worker pool. Each home's pipeline is sequential (pull-based, so the
// source, injector, detector, and stepper stay in lockstep) and homes run
// concurrently. Without Recover, errors propagate first-job-wins; with it,
// each home is supervised independently — retried from its checkpoint and
// quarantined past the budget — so one bad home cannot sink the fleet.
func RunFleet(jobs []Job, opts FleetOptions) (FleetResult, error) {
	opts = opts.withDefaults()
	started := time.Now()
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if seen[j.ID] {
			// Duplicate IDs would share a topic in MQTT mode (crossing the
			// two homes' streams) and are ambiguous in the results either
			// way; reject them up front.
			return FleetResult{}, fmt.Errorf("stream: duplicate fleet job ID %q", j.ID)
		}
		seen[j.ID] = true
	}
	var monitor *fleetMonitor
	if opts.Broker != "" {
		m, err := newFleetMonitor(opts.Broker, opts)
		if err != nil {
			return FleetResult{}, fmt.Errorf("stream: fleet monitor: %w", err)
		}
		monitor = m
		defer monitor.close()
	}
	p := opts.AttemptPolicy(false)
	// The final barrier: any write still queued for a quarantined home lands
	// before the fleet returns.
	defer p.Close()
	results := make([]HomeResult, len(jobs))
	outcomes := make([]HomeOutcome, len(jobs))
	err := pool.Run(opts.Workers, len(jobs), func(i int) error {
		res, out, jerr := superviseJob(jobs[i], p, opts)
		results[i], outcomes[i] = res, out
		if jerr != nil && (!opts.Recover || opts.FailFast) {
			return fmt.Errorf("stream: home %s: %w", jobs[i].ID, jerr)
		}
		return nil
	})
	if err != nil {
		return FleetResult{}, err
	}
	out := AggregateFleet(results, outcomes)
	st := &out.Stats
	if monitor != nil {
		completed := len(outcomes) - int(st.Quarantined)
		st.BusFrames = monitor.drain(completed, opts)
	}
	st.Elapsed = time.Since(started)
	if secs := st.Elapsed.Seconds(); secs > 0 {
		st.HomesPerSec = float64(st.Homes) / secs
		st.EventsPerSec = float64(st.Events) / secs
	}
	return out, nil
}

// AggregateFleet assembles a FleetResult from index-aligned per-home
// results and supervision records — the accounting shared by RunFleet and
// the fleetd service, so both report an identical aggregate over the same
// homes. Quarantined homes are excluded from the stats. Wall-clock fields
// (Elapsed, rates, BusFrames) are left zero for the caller to fill.
func AggregateFleet(results []HomeResult, outcomes []HomeOutcome) FleetResult {
	out := FleetResult{Homes: results, Outcomes: outcomes}
	st := &out.Stats
	st.Homes = len(results)
	for i := range results {
		if outcomes[i].Status == OutcomeQuarantined {
			continue
		}
		r := &results[i]
		st.Days += int64(r.Days)
		st.Slots += r.Slots
		st.SensorEvents += r.SensorEvents
		st.ActionEvents += r.ActionEvents
		st.Verdicts += r.Verdicts
		st.Injected += r.Injected
		st.Flagged += r.Flagged
		st.TotalKWh += r.Sim.TotalKWh
		st.TotalCostUSD += r.Sim.TotalCostUSD
	}
	for i := range outcomes {
		st.Retries += int64(outcomes[i].Attempts - 1)
		st.Restores += int64(outcomes[i].Restores)
		if outcomes[i].Status == OutcomeQuarantined {
			st.Quarantined++
		}
	}
	st.Events = st.SensorEvents + st.ActionEvents + st.Verdicts
	return out
}

// superviseJob runs one home under the retry policy. It returns the home's
// result, its supervision record, and — for a quarantined home — the final
// error.
func superviseJob(job Job, p *AttemptPolicy, opts FleetOptions) (HomeResult, HomeOutcome, error) {
	out := HomeOutcome{ID: job.ID}
	var lastErr error
	for attempt := 0; attempt <= p.Retries(); attempt++ {
		if attempt > 0 {
			opts.Clock.Sleep(opts.RetryBackoff.Delay(attempt - 1))
		}
		began := time.Now()
		var res HomeResult
		a, err := p.Open(job, &out, nil, nil)
		if err == nil {
			res, err = a.Run()
			a.Close()
		}
		out.Duration += time.Since(began)
		if err == nil {
			out.Status = CompletedStatus(attempt > 0)
			if rerr := p.Remove(job.ID); rerr != nil {
				out.Err = rerr.Error()
			}
			return res, out, nil
		}
		lastErr = err
		out.Err = err.Error()
	}
	out.Status = OutcomeQuarantined
	return HomeResult{ID: job.ID}, out, lastErr
}

// SensorTopic names a home's sensor stream on the fleet bus; the fleet-wide
// filter home/+/sensor matches every home's topic.
func SensorTopic(homeID string) string { return "home/" + homeID + "/sensor" }

// fleetMonitor is the fleet-wide observer: one client subscribed to
// home/+/sensor counting every data frame on the bus (transport control
// frames — handshake probes and end-of-stream sentinels — are excluded
// from the count; the sentinels mark stream ends for drain).
type fleetMonitor struct {
	client *mqtt.Client
	frames atomic.Int64
	eofs   atomic.Int64
	seen   chan struct{} // closed on the first frame of any kind
	bump   chan struct{} // sticky wakeup: set after every counted message
	done   chan struct{}
}

func newFleetMonitor(broker string, opts FleetOptions) (*fleetMonitor, error) {
	c, err := mqtt.DialWithOptions(broker, opts.Dial)
	if err != nil {
		return nil, err
	}
	ch, err := c.Subscribe("home/+/sensor")
	if err != nil {
		c.Close()
		return nil, err
	}
	m := &fleetMonitor{client: c, seen: make(chan struct{}), bump: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		first := true
		for msg := range ch {
			if first {
				close(m.seen)
				first = false
			}
			if IsBlockFrame(msg.Payload) {
				// One binary frame carries a whole home-day of data.
				m.frames.Add(1)
			} else {
				var hdr struct {
					Day int `json:"day"`
				}
				switch err := json.Unmarshal(msg.Payload, &hdr); {
				case err != nil:
					// Malformed traffic carries no position to classify; skip it.
				case hdr.Day >= 0:
					m.frames.Add(1)
				case hdr.Day == dayEOF:
					m.eofs.Add(1)
				}
			}
			// Wake the drain after the counters moved; the 1-slot buffer
			// makes the signal sticky, so a wakeup is never lost.
			select {
			case m.bump <- struct{}{}:
			default:
			}
		}
	}()
	// Confirm the subscription is registered before any home publishes: a
	// loopback probe on the monitor's own connection is processed by the
	// broker strictly after the subscription frame.
	if err := c.Publish(SensorTopic("monitor"), probeFrame()); err != nil {
		c.Close()
		return nil, err
	}
	select {
	case <-m.seen:
	case <-time.After(opts.ProbeTimeout):
		c.Close()
		return nil, fmt.Errorf("mqtt monitor probe lost")
	}
	return m, nil
}

// drain waits until every completed home's end-of-stream sentinel has
// reached the monitor and returns the data-frame count. Each pipe publishes
// its data frames and then its sentinel on one connection, and the broker
// processes a connection's frames in order, so seeing a home's sentinel
// proves all its data frames were counted. The wait is event-driven — the
// subscriber wakes it through the sticky bump channel — so a quiet drain
// finishes the instant the last sentinel lands instead of on the next poll
// tick. Sentinels can be lost (a chaos-killed publisher, a quarantined
// home's aborted attempts), so a bounded stillness fallback closes the gap:
// once the sentinel wait times out, the count is taken after the bus stays
// still for one QuiescePoll window, capped by a second DrainTimeout.
func (m *fleetMonitor) drain(homes int, opts FleetOptions) int64 {
	deadline := time.NewTimer(opts.DrainTimeout)
	defer deadline.Stop()
	for m.eofs.Load() < int64(homes) {
		select {
		case <-m.bump:
		case <-deadline.C:
			return m.quiesce(opts)
		}
	}
	return m.frames.Load()
}

// quiesce waits for the bus to stay still for one QuiescePoll window — the
// lost-sentinel fallback — bounded by an extra DrainTimeout.
func (m *fleetMonitor) quiesce(opts FleetOptions) int64 {
	bound := time.NewTimer(opts.DrainTimeout)
	defer bound.Stop()
	still := time.NewTimer(opts.QuiescePoll)
	defer still.Stop()
	for {
		select {
		case <-m.bump:
			if !still.Stop() {
				select {
				case <-still.C:
				default:
				}
			}
			still.Reset(opts.QuiescePoll)
		case <-still.C:
			return m.frames.Load()
		case <-bound.C:
			return m.frames.Load()
		}
	}
}

func (m *fleetMonitor) close() {
	m.client.Close()
	<-m.done
}
