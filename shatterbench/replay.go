package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"sync/atomic"
	"time"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/attack"
	"github.com/acyd-lab/shatter/internal/core"
	"github.com/acyd-lab/shatter/internal/fleetd"
	"github.com/acyd-lab/shatter/internal/hvac"
	"github.com/acyd-lab/shatter/internal/mqtt"
	"github.com/acyd-lab/shatter/internal/scenario"
	"github.com/acyd-lab/shatter/internal/stream"
)

// Replay sample sizes. The workload replay covers one full cycle of
// SynthFleet's home shapes (8 zone counts × 3 occupant counts); the kernel
// probe takes fewer homes because it also trains and plans each one.
const (
	replayHomes = 24
	probeHomes  = 8
	// hopsPerDay repeats the broker hop per probed home-day, so mqtt.hop_us_p95
	// has well over ten samples beyond it.
	hopsPerDay = 8
	// miniFleetHomes sizes the durable chaos fleet the trace runs on
	// workloads that do not run fleetd themselves.
	miniFleetHomes = 16
)

// sumMargin is the largest relative gap the sum-check allows between the
// layer costs and the cost they should add up to.
const sumMargin = 0.25

// replayWorkload drives the first n homes of the workload through the
// workload's own per-home path — open, the pipe on the mqtt workload, day
// blocks, IngestDay, on the durable workload checkpoint capture into an
// async sink and the completion barrier, close — with a span around every
// call, with as many homes in flight as the fleet. It returns how many
// replayed homes differ from the reference.
func (e *env) replayWorkload(t *tracer, n int) (int, error) {
	var (
		sink  *stream.CheckpointSink
		ckDir string
	)
	if e.wl.durable {
		var err error
		if ckDir, err = os.MkdirTemp(e.dir, "replay-"); err != nil {
			return 0, err
		}
		defer os.RemoveAll(ckDir)
		sink = stream.NewCheckpointSink(ckDir)
		defer sink.Close()
	}
	var bad atomic.Int64
	n = min(n, len(e.jobs))
	err := parallel(workers(), n, func(i int) error {
		job := e.jobs[i]
		id := job.ID
		hid, began := t.id(), time.Now()
		var (
			src  stream.Source
			home *stream.Home
		)
		if err := t.timed(hid, "stream.open", id, func() (err error) {
			src, home, err = job.Open()
			return err
		}); err != nil {
			return err
		}
		defer closeSource(src)
		bsrc, ok := src.(stream.BlockSource)
		if !ok {
			return fmt.Errorf("source for %s emits no day blocks", id)
		}
		next, nextName := bsrc.NextBlock, "aras.next_day"
		var pipe *stream.Pipe
		if e.broker != nil {
			if err := t.timed(hid, "stream.pipe_open", id, func() (err error) {
				pipe, err = stream.OpenPipeOptions(e.broker.Addr(), "bench/replay/"+id, src, stream.PipeOptions{Blocks: true})
				return err
			}); err != nil {
				return err
			}
			next, nextName = pipe.NextBlock, "stream.pipe_wait"
		}
		var blk stream.DayBlock
		for {
			start := time.Now()
			err := next(&blk)
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			t.record(t.id(), hid, nextName, id, start)
			if err := t.timed(hid, "stream.ingest_day", id, func() error {
				_, err := home.IngestDay(&blk)
				return err
			}); err != nil {
				return err
			}
			if sink != nil {
				var ck *stream.Checkpoint
				if err := t.timed(hid, "stream.checkpoint_capture", id, func() (err error) {
					ck, err = home.Checkpoint()
					return err
				}); err != nil {
					return err
				}
				if err := t.timed(hid, "stream.checkpoint_enqueue", id, func() error {
					return sink.Save(ck)
				}); err != nil {
					return err
				}
			}
		}
		var res stream.HomeResult
		if err := t.timed(hid, "stream.close", id, func() (err error) {
			res, err = home.Close()
			return err
		}); err != nil {
			return err
		}
		if pipe != nil {
			if err := t.timed(hid, "stream.pipe_close", id, pipe.Close); err != nil {
				return err
			}
		}
		if sink != nil {
			// A completing fleetd home barriers the async writer and drops
			// its checkpoint.
			if err := t.timed(hid, "stream.checkpoint_flush", id, func() error {
				if err := sink.Flush(id); err != nil {
					return err
				}
				return stream.RemoveCheckpoint(ckDir, id)
			}); err != nil {
				return err
			}
		}
		t.record(hid, 0, "replay.home", id, began)
		if !reflect.DeepEqual(res, e.ref[i]) {
			bad.Add(1)
		}
		return nil
	})
	return int(bad.Load()), err
}

// probeOut is what the kernel probe counted.
type probeOut struct {
	homeDays   int64
	verdicts   int64
	frameBytes int64
	ckptBytes  int64
	arasAllocs float64 // heap objects per generated day
	hvacAllocs float64 // heap objects per stepped day
	mismatched int     // probed homes whose result differs from the reference
}

// probe replays the first n homes of the workload, single-threaded, as a
// defended and attacked home and calls every layer's public functions
// directly: ADM training, SHATTER planning and triggering, the generator
// behind a block pipe, the day-block codec, a broker hop, the injector, the
// online detector, the truth-stream episodizer, the HVAC day stepper,
// checkpoint save and restore, and a manifest append. A twin Home fed the
// same blocks through IngestDay must end with the same plant result as the
// kernel chain. Benign workloads get their probe homes' worlds built here.
func (e *env) probe(t *tracer, n int) (probeOut, error) {
	var out probeOut
	specs := e.specs[:min(n, len(e.specs))]
	if !e.wl.attack {
		if _, err := e.suite.FleetJobs(specs, core.StreamOptions{Days: e.wl.days, Defend: true, Attack: true}); err != nil {
			return out, err
		}
	}
	broker := e.broker
	if broker == nil {
		b, err := mqtt.NewBroker("127.0.0.1:0")
		if err != nil {
			return out, err
		}
		defer b.Close()
		broker = b
	}
	hop, err := newHop(broker.Addr())
	if err != nil {
		return out, err
	}
	defer hop.close()
	dir, err := os.MkdirTemp(e.dir, "probe-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	man, _, err := fleetd.OpenManifest(dir)
	if err != nil {
		return out, err
	}
	defer man.Close()
	var allocDays int64
	var arasAllocs, hvacAllocs uint64
	for i, sp := range specs {
		ph, err := e.probeHome(t, sp, broker.Addr(), hop, man, dir, &out)
		if err != nil {
			return out, fmt.Errorf("probe %s: %w", sp.ID, err)
		}
		if e.wl.attack && !reflect.DeepEqual(ph.res, e.ref[i]) {
			out.mismatched++
		}
		arasAllocs += ph.arasAllocs
		hvacAllocs += ph.hvacAllocs
		allocDays += ph.allocDays
	}
	if allocDays > 0 {
		out.arasAllocs = float64(arasAllocs) / float64(allocDays)
		out.hvacAllocs = float64(hvacAllocs) / float64(allocDays)
	}
	return out, nil
}

// probeHomeOut is one probed home's result and allocation counts.
type probeHomeOut struct {
	res        stream.HomeResult
	arasAllocs uint64
	hvacAllocs uint64
	allocDays  int64
}

func (e *env) probeHome(t *tracer, sp scenario.Spec, broker string, hop *hopper, man *fleetd.Manifest, dir string, out *probeOut) (probeHomeOut, error) {
	var ph probeHomeOut
	s, id := e.suite, sp.ID
	w := s.World(id)
	if w == nil {
		return ph, fmt.Errorf("world not built")
	}
	house := w.Trace.House
	pricing := s.Pricing
	if sp.Pricing != nil {
		pricing = *sp.Pricing
	}
	controller := func() hvac.Controller {
		if sp.Controller == scenario.ControllerASHRAE {
			return hvac.NewASHRAEController(s.Params, house)
		}
		return &hvac.SHATTERController{Params: s.Params}
	}

	// The suite's defender and SHATTER campaign, trained and planned afresh.
	train, err := w.Trace.SubTrace(0, s.Config.TrainDays)
	if err != nil {
		return ph, err
	}
	acfg := adm.DefaultConfig(adm.DBSCAN)
	acfg.MinPts = max(3, s.Config.TrainDays/5)
	acfg.Eps = 30
	var model *adm.Model
	if err := t.timed(0, "adm.train", id, func() (err error) {
		model, err = adm.Train(train, acfg)
		return err
	}); err != nil {
		return ph, err
	}
	capability := attack.Full(house)
	planner := &attack.Planner{
		Trace: w.Trace, Model: model, Cost: hvac.NewCostModel(house, s.Params, pricing),
		Cap: capability, WindowLen: s.Config.WindowLen, Workers: 1,
	}
	var plan *attack.Plan
	if err := t.timed(0, "attack.plan", id, func() (err error) {
		plan, err = planner.PlanSHATTER()
		return err
	}); err != nil {
		return ph, err
	}
	plan = plan.CloneForTriggering()
	_ = t.timed(0, "attack.trigger", id, func() error {
		attack.TriggerAppliances(w.Trace, plan, model, capability)
		return nil
	})

	newHome := func() (*stream.Home, error) {
		inj, err := stream.NewInjector(house, plan)
		if err != nil {
			return nil, err
		}
		return stream.NewHome(stream.HomeConfig{
			ID: id, House: house, Controller: controller(), Params: s.Params, Pricing: pricing,
			Defender: model, Injector: inj,
		})
	}
	twin, err := newHome()
	if err != nil {
		return ph, err
	}
	inj, err := stream.NewInjector(house, plan)
	if err != nil {
		return ph, err
	}
	det := adm.NewDetector(model)
	nat := adm.NewEpisodizer(len(house.Occupants))
	sim, err := hvac.NewSim(house, controller(), s.Params, pricing)
	if err != nil {
		return ph, err
	}
	newSource := func() (*stream.GeneratorSource, error) {
		gen, err := aras.NewGenerator(house, sp.GeneratorConfig(e.wl.days, w.Seed))
		if err != nil {
			return nil, err
		}
		return stream.NewGeneratorSource(id, gen), nil
	}
	src, err := newSource()
	if err != nil {
		return ph, err
	}
	var pipe *stream.Pipe
	if err := t.timed(0, "stream.pipe_open", id, func() (err error) {
		pipe, err = stream.OpenPipeOptions(broker, "bench/probe/"+id, src, stream.PipeOptions{Blocks: true})
		return err
	}); err != nil {
		return ph, err
	}
	defer pipe.Close()

	var (
		raw, dec, twinBlk stream.DayBlock
		frame             []byte
		verdicts          []adm.Verdict
		episodes          []aras.Episode
		stepped           []stream.DayBlock
		kernelVerdicts    int64
	)
	for {
		start := time.Now()
		err := pipe.NextBlock(&raw)
		if err == io.EOF {
			break
		}
		if err != nil {
			return ph, err
		}
		t.record(t.id(), 0, "stream.pipe_wait", id, start)
		out.homeDays++

		if err := t.timed(0, "stream.encode", id, func() (err error) {
			frame, err = stream.AppendBlockFrame(frame[:0], &raw, 0)
			return err
		}); err != nil {
			return ph, err
		}
		out.frameBytes += int64(len(frame))
		var delivered []byte
		for k := 0; k < hopsPerDay; k++ {
			start := time.Now()
			if delivered, err = hop.roundTrip(frame); err != nil {
				return ph, err
			}
			t.record(t.id(), 0, "mqtt.hop", id, start)
		}
		if err := t.timed(0, "stream.decode", id, func() error {
			_, err := stream.DecodeBlockFrame(&dec, delivered)
			return err
		}); err != nil {
			return ph, err
		}

		cloneBlock(&twinBlk, &dec)
		if err := t.timed(0, "stream.ingest_day_attacked", id, func() error {
			_, err := twin.IngestDay(&twinBlk)
			return err
		}); err != nil {
			return ph, err
		}

		// The kernels IngestDay composes, called one by one on the decoded
		// block, as children of one "probe.kernels" span.
		kid, kbegan := t.id(), time.Now()
		_ = t.timed(kid, "stream.inject", id, func() error {
			inj.RewriteBlock(&dec)
			return nil
		})
		if err := t.timed(kid, "adm.observe_day", id, func() error {
			for o := range dec.RepZone {
				var err error
				if verdicts, err = det.ObserveDay(dec.Day, o, dec.RepZone[o], dec.RepAct[o], verdicts[:0]); err != nil {
					return err
				}
				kernelVerdicts += int64(len(verdicts))
			}
			return nil
		}); err != nil {
			return ph, err
		}
		if err := t.timed(kid, "adm.episodize_day", id, func() error {
			for o := range dec.TrueZone {
				var err error
				if episodes, err = nat.ObserveDay(dec.Day, o, dec.TrueZone[o], dec.TrueAct[o], episodes[:0]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return ph, err
		}
		if err := t.timed(kid, "hvac.step_day", id, func() error {
			return sim.StepDay(dayInput(&dec))
		}); err != nil {
			return ph, err
		}
		t.record(kid, 0, "probe.kernels", id, kbegan)
		var kept stream.DayBlock
		cloneBlock(&kept, &dec)
		stepped = append(stepped, kept)

		// Checkpoint the twin to disk, then restore it into a fresh home.
		cid, cbegan := t.id(), time.Now()
		var ck *stream.Checkpoint
		if err := t.timed(cid, "stream.checkpoint_capture", id, func() (err error) {
			ck, err = twin.Checkpoint()
			return err
		}); err != nil {
			return ph, err
		}
		if err := stream.SaveCheckpoint(dir, ck); err != nil {
			return ph, err
		}
		t.record(cid, 0, "stream.checkpoint", id, cbegan)
		if fi, err := os.Stat(stream.CheckpointPath(dir, id)); err == nil {
			out.ckptBytes += fi.Size()
		}
		fresh, err := newHome()
		if err != nil {
			return ph, err
		}
		if err := t.timed(0, "stream.restore", id, func() error {
			ck, err := stream.LoadCheckpoint(dir, id)
			if err != nil {
				return err
			}
			return fresh.Restore(ck)
		}); err != nil {
			return ph, err
		}
	}
	kernelVerdicts += int64(len(det.Flush()))
	res, err := twin.Close()
	if err != nil {
		return ph, err
	}
	if !reflect.DeepEqual(sim.Result(), res.Sim) || kernelVerdicts != res.Verdicts {
		return ph, errors.New("kernel chain diverges from Home.IngestDay")
	}
	out.verdicts += kernelVerdicts
	ph.res = res
	if err := stream.RemoveCheckpoint(dir, id); err != nil {
		return ph, err
	}
	if err := t.timed(0, "fleetd.manifest_append", id, func() error {
		return man.Append(fleetd.ManifestRecord{
			Op: "done", Home: id, Result: &res,
			Outcome: &stream.HomeOutcome{ID: id, Status: stream.OutcomeCompleted, Attempts: 1, Days: res.Days},
		})
	}); err != nil {
		return ph, err
	}

	// Allocation counts: generate the same days again and step the kept
	// blocks through a fresh plant, past a first warm-up day each.
	gen, err := newSource()
	if err != nil {
		return ph, err
	}
	var blk stream.DayBlock
	if err := gen.NextBlock(&blk); err != nil {
		return ph, err
	}
	m0 := mallocs()
	for d := 1; d < len(stepped); d++ {
		if err := gen.NextBlock(&blk); err != nil {
			return ph, err
		}
	}
	ph.arasAllocs = mallocs() - m0
	plant, err := hvac.NewSim(house, controller(), s.Params, pricing)
	if err != nil {
		return ph, err
	}
	if err := plant.StepDay(dayInput(&stepped[0])); err != nil {
		return ph, err
	}
	m0 = mallocs()
	for d := 1; d < len(stepped); d++ {
		if err := plant.StepDay(dayInput(&stepped[d])); err != nil {
			return ph, err
		}
	}
	ph.hvacAllocs = mallocs() - m0
	ph.allocDays = int64(len(stepped) - 1)
	return ph, nil
}

// dayInput views a block's columns as the plant's day input, the way
// Home.IngestDay hands them over.
func dayInput(b *stream.DayBlock) *hvac.DayInput {
	return &hvac.DayInput{
		OutdoorTempF: b.TempF, OutdoorCO2PPM: b.CO2PPM,
		BelievedZone: b.RepZone, BelievedAct: b.RepAct, BelievedAppliance: b.RepAppliance,
		ActualZone: b.TrueZone, ActualAct: b.TrueAct, ActualAppliance: b.TrueAppliance,
	}
}

// cloneBlock deep-copies src into dst, reusing dst's storage.
func cloneBlock(dst, src *stream.DayBlock) {
	dst.Home, dst.Day = src.Home, src.Day
	dst.TempF = append(dst.TempF[:0], src.TempF...)
	dst.CO2PPM = append(dst.CO2PPM[:0], src.CO2PPM...)
	dst.TrueZone = cloneCols(dst.TrueZone, src.TrueZone)
	dst.TrueAct = cloneCols(dst.TrueAct, src.TrueAct)
	dst.TrueAppliance = cloneCols(dst.TrueAppliance, src.TrueAppliance)
	dst.RepZone = cloneCols(dst.RepZone, src.RepZone)
	dst.RepAct = cloneCols(dst.RepAct, src.RepAct)
	dst.RepAppliance = cloneCols(dst.RepAppliance, src.RepAppliance)
}

func cloneCols[T any](dst, src [][]T) [][]T {
	if cap(dst) < len(src) {
		dst = make([][]T, len(src))
	}
	dst = dst[:len(src)]
	for i := range src {
		dst[i] = append(dst[i][:0], src[i]...)
	}
	return dst
}

// hopper times one broker hop: a publish on one client until delivery on
// another client's subscription.
type hopper struct {
	pub, sub *mqtt.Client
	ch       <-chan mqtt.Message
}

const hopTopic = "bench/hop"

func newHop(addr string) (*hopper, error) {
	pub, err := mqtt.Dial(addr)
	if err != nil {
		return nil, err
	}
	sub, err := mqtt.Dial(addr)
	if err != nil {
		pub.Close()
		return nil, err
	}
	h := &hopper{pub: pub, sub: sub}
	if h.ch, err = sub.Subscribe(hopTopic); err != nil {
		h.close()
		return nil, err
	}
	// The subscription registers asynchronously: publish markers until one
	// is delivered. Stray markers are skipped by roundTrip.
	for try := 0; ; try++ {
		if err := pub.PublishRaw(hopTopic, []byte("ready")); err != nil {
			h.close()
			return nil, err
		}
		select {
		case <-h.ch:
			return h, nil
		case <-time.After(10 * time.Millisecond):
			if try == 500 {
				h.close()
				return nil, errors.New("hop subscription never registered")
			}
		}
	}
}

// roundTrip publishes frame and returns the delivered payload.
func (h *hopper) roundTrip(frame []byte) ([]byte, error) {
	if err := h.pub.PublishRaw(hopTopic, frame); err != nil {
		return nil, err
	}
	timeout := time.After(10 * time.Second)
	for {
		select {
		case m, ok := <-h.ch:
			if !ok {
				return nil, errors.New("hop subscription closed")
			}
			if stream.IsBlockFrame(m.Payload) {
				return m.Payload, nil
			}
		case <-timeout:
			return nil, errors.New("hop delivery timed out")
		}
	}
}

func (h *hopper) close() {
	h.pub.Close()
	h.sub.Close()
}
