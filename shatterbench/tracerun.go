package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// fleetTotals sums what the traced fleet passes measured.
type fleetTotals struct {
	drive    time.Duration // Σ HomeOutcome.Duration
	wall     time.Duration
	homeDays int64
	ingested int64 // day blocks ingested, retried attempts included
	// busFrames is the fleet monitor's tally of data frames on the broker.
	busFrames int64
	homes     int64
	restores  int64
}

// traceRun is the per-layer measurement. It alternates untraced and traced
// fleet passes (the difference is the tracing overhead) with replays of the
// workload's own path on a sample of homes, probes every layer kernel, and
// checks that the layer costs add up to the traced per-home-day cost. The
// spans go to spansPath as JSON lines.
func traceRun(wl workload, seed uint64, budget time.Duration, dir, spansPath string, log io.Writer) (Result, error) {
	e, err := setup(wl, seed, dir)
	if err != nil {
		return Result{}, err
	}
	defer e.close()
	if err := e.reference(); err != nil {
		return Result{}, err
	}
	res := Result{Correct: true}
	fail := func(format string, args ...any) {
		fmt.Fprintf(log, "shatterbench: "+format+"\n", args...)
		res.Correct = false
	}
	account := func(p passOut) {
		res.Attempted += int64(len(p.res.Homes))
		res.Failed += e.failures(p)
		if err := checkInvariants(wl, p.res.Stats, p.snap); err != nil {
			fail("%v", err)
		}
	}

	// Each round runs an untraced pass, a traced pass and the workload
	// replay back to back, so the sum-check and the overhead compare
	// measurements taken under the same machine conditions.
	ft, rt := newTracer("fleet"), newTracer("replay")
	var traced, untraced fleetTotals
	var durable passOut // the last durable pass: the workload's own, or the mini fleet's
	for spent := time.Duration(0); spent < budget || traced.homes == 0; {
		p, err := e.pass(nil)
		if err != nil {
			return Result{}, err
		}
		account(p)
		untraced.wall += p.wall
		untraced.homeDays += p.homeDays
		if p, err = e.pass(ft); err != nil {
			return Result{}, err
		}
		account(p)
		traced.wall += p.wall
		traced.homeDays += p.homeDays
		traced.busFrames += p.res.Stats.BusFrames
		ingested := p.homeDays
		if wl.durable {
			ingested = p.snap.Days // retried attempts re-ingest days
			durable = p
		}
		traced.ingested += ingested
		for _, o := range p.res.Outcomes {
			traced.drive += o.Duration
			traced.homes++
			traced.restores += int64(o.Restores)
		}
		bad, err := e.replayWorkload(rt, replayHomes)
		if err != nil {
			return Result{}, fmt.Errorf("workload replay: %w", err)
		}
		res.Attempted += int64(min(replayHomes, len(e.jobs)))
		res.Failed += int64(bad)
		spent = traced.wall + untraced.wall
	}

	pt := newTracer("probe")
	probe, err := e.probe(pt, probeHomes)
	if err != nil {
		return Result{}, err
	}
	res.Attempted += int64(min(probeHomes, len(e.specs)))
	res.Failed += int64(probe.mismatched)

	if !wl.durable {
		// Workloads without fleetd measure its layers on a small durable
		// chaos fleet of their own homes.
		p, err := e.durablePass(nil, min(miniFleetHomes, wl.homes))
		if err != nil {
			return Result{}, fmt.Errorf("durable mini fleet: %w", err)
		}
		res.Attempted += int64(len(p.res.Homes))
		res.Failed += e.failures(p)
		durable = p
	}

	fl, rl, pl := ft.layers(), rt.layers(), pt.layers()

	// Sum-check: the fleet's traced per-home-day drive cost against the
	// layer costs along the path that drives a home. Open and generation
	// come from the fleet's own spans (on the mqtt path generation runs on
	// the pipe's publisher goroutine, so the consumer waits on the pipe
	// instead); per-block ingest, checkpoint capture and pipe waits, and
	// per-home close, come from the workload replay; restores from the probe.
	fleetUS := float64(traced.drive.Microseconds()) / float64(traced.homeDays)
	var layersTotal float64 // µs
	layersTotal += float64(fl["stream.open"].totalUS())
	perBlock := rl["stream.ingest_day"].meanUS() + rl["stream.checkpoint_capture"].meanUS() +
		rl["stream.checkpoint_enqueue"].meanUS()
	// A durable home waits on the checkpoint barrier once per attempt:
	// before a retry's restore decision, or at completion.
	layersTotal += float64(fl["stream.open"].count()) * rl["stream.checkpoint_flush"].meanUS()
	if e.broker != nil {
		layersTotal += float64(traced.ingested) * rl["stream.pipe_wait"].meanUS()
		layersTotal += float64(fl["stream.open"].count()) * (rl["stream.pipe_open"].meanUS() + rl["stream.pipe_close"].meanUS())
	} else {
		layersTotal += float64(fl["aras.next_day"].totalUS() + fl["aras.seek_day"].totalUS())
	}
	layersTotal += float64(traced.ingested) * perBlock
	layersTotal += float64(traced.restores) * pl["stream.restore"].meanUS()
	layersTotal += float64(traced.homes) * rl["stream.close"].meanUS()
	layersUS := layersTotal / float64(traced.homeDays)
	ratio := layersUS / fleetUS
	if math.Abs(ratio-1) > sumMargin {
		fail("sum-check: layers add up to %.1f µs per home-day, the traced fleet spends %.1f (ratio %.3f, margin %.2f)",
			layersUS, fleetUS, ratio, sumMargin)
	}
	// The share of Home.IngestDay its kernels explain. The rest is the
	// verdict merge and the injection-labelling ledger, which have no public
	// call to time, so this ratio is reported, not checked.
	kernelUS := pl["stream.inject"].meanUS() + pl["adm.observe_day"].meanUS() +
		pl["adm.episodize_day"].meanUS() + pl["hvac.step_day"].meanUS()
	ingestRatio := kernelUS / pl["stream.ingest_day_attacked"].meanUS()

	hops := pl["mqtt.hop"].durations()
	sort.Float64s(hops)
	snap := durable.snap
	restoresPerRetry := 0.0
	if snap.Retries > 0 {
		restoresPerRetry = float64(snap.Restores) / float64(snap.Retries)
	}
	openCold := make([]float64, len(e.openCold))
	for i, d := range e.openCold {
		openCold[i] = float64(d.Microseconds()) / 1e3
	}
	tracedRate := float64(traced.homeDays) / traced.wall.Seconds()
	untracedRate := float64(untraced.homeDays) / untraced.wall.Seconds()
	pd := float64(probe.homeDays)
	res.Metrics = map[string]Metric{
		"core.world_ms":                   {float64(e.worldTime.Microseconds()) / 1e3, "ms"},
		"stream.open_cold_ms":             {mean(openCold), "ms"},
		"stream.open_ms":                  {fl["stream.open"].meanUS() / 1e3, "ms"},
		"adm.train_ms":                    {pl["adm.train"].meanUS() / 1e3, "ms"},
		"attack.plan_ms":                  {pl["attack.plan"].meanUS() / 1e3, "ms"},
		"attack.trigger_ms":               {pl["attack.trigger"].meanUS() / 1e3, "ms"},
		"aras.next_day_us":                {fl["aras.next_day"].meanUS(), "us"},
		"aras.allocs_per_day":             {probe.arasAllocs, "count"},
		"stream.inject_us":                {pl["stream.inject"].meanUS(), "us"},
		"adm.observe_day_us":              {pl["adm.observe_day"].meanUS(), "us"},
		"adm.episodize_day_us":            {pl["adm.episodize_day"].meanUS(), "us"},
		"adm.verdicts_per_home_day":       {float64(probe.verdicts) / pd, "count"},
		"hvac.step_day_us":                {pl["hvac.step_day"].meanUS(), "us"},
		"hvac.allocs_per_day":             {probe.hvacAllocs, "count"},
		"stream.ingest_day_us":            {rl["stream.ingest_day"].meanUS(), "us"},
		"stream.ingest_day_attacked_us":   {pl["stream.ingest_day_attacked"].meanUS(), "us"},
		"stream.encode_us":                {pl["stream.encode"].meanUS(), "us"},
		"stream.decode_us":                {pl["stream.decode"].meanUS(), "us"},
		"stream.frame_bytes":              {float64(probe.frameBytes) / pd, "bytes"},
		"mqtt.hop_us_p50":                 {quantile(hops, 0.50), "us"},
		"mqtt.hop_us_p95":                 {quantile(hops, 0.95), "us"},
		"mqtt.frames_per_home_day":        {float64(traced.busFrames) / float64(traced.homeDays), "count"},
		"stream.pipe_open_ms":             {pl["stream.pipe_open"].meanUS() / 1e3, "ms"},
		"stream.pipe_wait_us":             {pl["stream.pipe_wait"].meanUS(), "us"},
		"stream.checkpoint_us":            {pl["stream.checkpoint"].meanUS(), "us"},
		"stream.checkpoint_capture_us":    {pl["stream.checkpoint_capture"].meanUS(), "us"},
		"stream.checkpoint_bytes":         {float64(probe.ckptBytes) / pd, "bytes"},
		"stream.restore_us":               {pl["stream.restore"].meanUS(), "us"},
		"stream.close_us":                 {rl["stream.close"].meanUS(), "us"},
		"stream.retries":                  {float64(snap.Retries), "count"},
		"stream.restores_per_retry":       {restoresPerRetry, "ratio"},
		"fleetd.manifest_append_us":       {pl["fleetd.manifest_append"].meanUS(), "us"},
		"fleetd.replay_ms":                {float64(durable.replay.Microseconds()) / 1e3, "ms"},
		"fleetd.checkpoints_per_home_day": {float64(snap.Checkpoints) / float64(durable.homeDays), "count"},
		"trace.home_days_per_s":           {tracedRate, "1/s"},
		"trace.untraced_home_days_per_s":  {untracedRate, "1/s"},
		"trace.overhead_frac":             {1 - tracedRate/untracedRate, "ratio"},
		"sumcheck.fleet_us_per_home_day":  {fleetUS, "us"},
		"sumcheck.layers_us_per_home_day": {layersUS, "us"},
		"sumcheck.ratio":                  {ratio, "ratio"},
		"sumcheck.ingest_ratio":           {ingestRatio, "ratio"},
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if err := writeSpans(spansPath, ft, rt, pt); err != nil {
		return Result{}, err
	}
	fmt.Fprintf(log, "shatterbench: %s seed %d traced: fleet %.1f µs/home-day, layers %.1f (ratio %.3f), ingest ratio %.3f, overhead %.3f, spans in %s\n",
		wl.name, seed, fleetUS, layersUS, ratio, ingestRatio, 1-tracedRate/untracedRate, spansPath)
	return res, nil
}
