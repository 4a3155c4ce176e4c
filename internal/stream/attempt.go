package stream

import (
	"io"

	"github.com/acyd-lab/shatter/internal/aras"
)

// AttemptPolicy is the per-home attempt policy a fleet engine owns: the
// transport, the chaos schedule, the checkpoint cadence and store, and the
// retry budget. RunFleet and the fleetd shard open every attempt of every
// home through it; only their schedulers differ.
type AttemptPolicy struct {
	retries int
	broker  string
	pipe    PipeOptions // Faults and Epoch are set per attempt
	chaos   *FaultConfig
	every   int             // day-boundary checkpoint cadence; 0 takes none
	dir     string          // checkpoint store; empty keeps checkpoints in memory
	sink    *CheckpointSink // async writer into dir, when enabled
}

// AttemptPolicy resolves the options into the per-home attempt policy,
// starting the async checkpoint sink when enabled (Close stops it).
// Day-boundary checkpoints are taken when CheckpointDir persists them, or
// in memory alone when inMemory is set (a retry point without a store).
func (o FleetOptions) AttemptPolicy(inMemory bool) *AttemptPolicy {
	o = o.withDefaults()
	p := &AttemptPolicy{
		broker: o.Broker,
		pipe:   PipeOptions{Dial: o.Dial, ProbeTimeout: o.ProbeTimeout, ReceiveTimeout: o.ReceiveTimeout, Clock: o.Clock},
		chaos:  o.Chaos,
		dir:    o.CheckpointDir,
	}
	if o.Recover && o.MaxRetries > 0 {
		p.retries = o.MaxRetries
	}
	if o.CheckpointDir != "" || inMemory {
		p.every = o.CheckpointEvery
	}
	if o.CheckpointDir != "" && o.AsyncCheckpoints {
		p.sink = NewCheckpointSink(o.CheckpointDir)
	}
	return p
}

// Retries is the retry budget per home.
func (p *AttemptPolicy) Retries() int { return p.retries }

// The async sink's barrier rules: a home's load and removal, and every
// finalizing save, first flush its queued writes and claim a recorded
// write failure, so nothing reads or finalizes disk state past them.
func (p *AttemptPolicy) flush(homeID string) error {
	if p.sink == nil {
		return nil
	}
	return p.sink.Flush(homeID)
}

// save persists a checkpoint. Day-boundary saves queue on the async sink
// when there is one; a finalizing save (drain, stop) barriers the sink, so
// no stale queued write can land after it, and writes in place.
func (p *AttemptPolicy) save(ck *Checkpoint, final bool) error {
	switch {
	case p.dir == "":
		return nil
	case p.sink != nil && !final:
		return p.sink.Save(ck)
	}
	if err := p.flush(ck.Home); err != nil {
		return err
	}
	return SaveCheckpoint(p.dir, ck)
}

// Remove deletes a completed home's checkpoint, which a later fresh run must
// not resume from. A write failure the barrier claims is still reported.
func (p *AttemptPolicy) Remove(homeID string) error {
	if p.dir == "" {
		return nil
	}
	ferr := p.flush(homeID)
	if err := RemoveCheckpoint(p.dir, homeID); err != nil {
		return err
	}
	return ferr
}

// Close is the final barrier: every queued checkpoint write lands first.
func (p *AttemptPolicy) Close() error {
	if p.sink == nil {
		return nil
	}
	return p.sink.Close()
}

// CompletedStatus is a finished home's status: retried once any attempt
// failed.
func CompletedStatus(failed bool) OutcomeStatus {
	if failed {
		return OutcomeRetried
	}
	return OutcomeCompleted
}

// Attempt is one run of one home's pipeline: the source as the job opened
// it, the transport wrapped around it, and the home it feeds. The engine
// drives Step until io.EOF, then Finish; Close releases the resources on
// every path.
type Attempt struct {
	p     *AttemptPolicy
	out   *HomeOutcome
	home  *Home
	src   Source
	drive BlockSource
	pipe  *Pipe
	slot  int

	// Last is the newest checkpoint the attempt restored from or captured —
	// the in-memory retry point when there is no store.
	Last *Checkpoint
	// Restored reports whether the attempt resumed from a checkpoint.
	Restored bool
	// Checkpoints counts the checkpoints the attempt persisted.
	Checkpoints int
}

// Open starts the home's next attempt, accounted in out (its Attempts so
// far are the attempt's epoch). prepare, when set, runs on every freshly
// opened home before any restore — the last point a verdict hook can be
// installed. The home resumes from the disk checkpoint, else from fallback.
// The transport is the MQTT pipe or the direct source, perturbed by the
// (home, epoch) chaos plan; the source is closed on every error path.
func (p *AttemptPolicy) Open(job Job, out *HomeOutcome, fallback *Checkpoint, prepare func(*Home)) (*Attempt, error) {
	epoch := out.Attempts
	out.Attempts++
	a := &Attempt{p: p, out: out}
	if err := a.open(job, prepare); err != nil {
		return nil, err
	}
	ck := fallback
	if p.dir != "" {
		if err := p.flush(job.ID); err != nil {
			a.Close()
			return nil, err
		}
		// A corrupt file reads as none; the next save overwrites it.
		if disk, err := LoadCheckpoint(p.dir, job.ID); err == nil && disk != nil {
			ck = disk
		}
	}
	if ck != nil && ck.Days > 0 {
		// Restoring rebuilds the home and fast-forwards the source. A
		// checkpoint that does not fit, or a source that cannot seek,
		// restarts the home on fresh components: a half-restored home must
		// never stream.
		if seeker, ok := a.src.(DaySeeker); ok && a.home.Restore(ck) == nil && seeker.SeekDay(ck.Days) == nil {
			a.Last, a.Restored = ck, true
			a.slot = ck.Days*aras.SlotsPerDay - 1
			out.Restores++
			out.Days = max(out.Days, ck.Days)
			out.CheckpointDay = max(out.CheckpointDay, ck.Days)
		} else {
			a.Close()
			if err := a.open(job, prepare); err != nil {
				return nil, err
			}
		}
	}
	plan := p.chaos.Plan(job.ID, epoch)
	if p.broker == "" {
		a.drive = NewFaultSource(a.src, plan, p.pipe.Clock)
		return a, nil
	}
	po := p.pipe
	po.Faults, po.Epoch = plan, epoch
	pipe, err := OpenPipeOptions(p.broker, SensorTopic(job.ID), a.src, po)
	if err != nil {
		a.Close()
		return nil, err
	}
	a.pipe, a.drive = pipe, pipe
	return a, nil
}

// open builds fresh pipeline components from the job.
func (a *Attempt) open(job Job, prepare func(*Home)) error {
	src, home, err := job.Open()
	if err != nil {
		return err
	}
	if prepare != nil {
		prepare(home)
	}
	a.src, a.home = src, home
	return nil
}

// Step pulls the next day-block into blk, ingests it, and checkpoints on
// the cadence. It returns the day's event accounting, or io.EOF at end of
// stream.
func (a *Attempt) Step(blk *DayBlock) (DayStats, error) {
	if err := a.drive.NextBlock(blk); err != nil {
		return DayStats{}, err
	}
	a.slot = blk.Day*aras.SlotsPerDay + aras.SlotsPerDay - 1
	st, err := a.home.IngestDay(blk)
	if err != nil {
		return DayStats{}, err
	}
	done := blk.Day + 1
	a.out.Days = max(a.out.Days, done)
	if every := a.p.every; every > 0 && done%every == 0 {
		err = a.Checkpoint(false)
	}
	return st, err
}

// Run drives the attempt to end-of-stream and seals the home.
func (a *Attempt) Run() (HomeResult, error) {
	var blk DayBlock
	for {
		if _, err := a.Step(&blk); err == io.EOF {
			return a.Finish()
		} else if err != nil {
			return HomeResult{}, err
		}
	}
}

// Finish seals the home once Step reported io.EOF and returns its result.
func (a *Attempt) Finish() (HomeResult, error) { return a.home.Close() }

// Checkpoint snapshots the home at its current day boundary into Last and
// persists it; final marks a drain or stop save.
func (a *Attempt) Checkpoint(final bool) error {
	ck, err := a.home.Checkpoint()
	if err != nil {
		return err
	}
	a.Last = ck
	if err := a.p.save(ck, final); err != nil {
		return err
	}
	a.out.CheckpointDay = max(a.out.CheckpointDay, ck.Days)
	a.Checkpoints++
	return nil
}

// Slot is the absolute stream slot that ends the day most recently pulled
// (or restored): the position verdicts are emitted at.
func (a *Attempt) Slot() int { return a.slot }

// Transport is the block source Step pulls from: the pipe, the fault
// wrapper, or the source itself.
func (a *Attempt) Transport() BlockSource { return a.drive }

// Close releases the transport and the source. Idempotent.
func (a *Attempt) Close() {
	if a.pipe != nil {
		a.pipe.Close()
		a.pipe = nil
	}
	closeSource(a.src)
	a.src = nil
}

// closeSource releases a source's resources when it holds any; plain
// in-memory sources pass through.
func closeSource(src Source) {
	if c, ok := src.(io.Closer); ok {
		c.Close()
	}
}
