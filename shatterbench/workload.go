package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"github.com/acyd-lab/shatter/internal/core"
	"github.com/acyd-lab/shatter/internal/fleetd"
	"github.com/acyd-lab/shatter/internal/mqtt"
	"github.com/acyd-lab/shatter/internal/scenario"
	"github.com/acyd-lab/shatter/internal/stream"
)

// workload is one named fleet shape the benchmark drives.
type workload struct {
	name  string
	homes int
	days  int
	// attack streams every home with the trained online defender and the
	// planned, triggered SHATTER campaign injected in flight.
	attack bool
	// mqtt routes every home's day-blocks through an in-process broker.
	mqtt bool
	// procs caps the process at this many CPUs (GOMAXPROCS), which also
	// sizes every worker pool and the homes in flight; 0 is one per CPU.
	procs int
	// durable runs the fleet on fleetd.Service with a state directory,
	// async disk checkpoints and seeded block chaos, and restarts it from
	// that directory after every pass.
	durable bool
}

// workloads are the benchmark's workloads; BENCHMARK.json records why each
// was chosen.
var workloads = []workload{
	// The measured workloads run on one CPU. On a host shared with other
	// tenants, a process that needs two CPUs at once measures how often the
	// host grants them: a competing CPU-bound process cut attacked_fleet's
	// throughput by a third and doubled its home_ms_p95, and raised
	// benign_mqtt_fleet's home_ms_p95 by half, where its pipe publisher,
	// broker and consumer hand day-blocks across threads. On one CPU the
	// same competitor moved either by a tenth or less.
	{name: "attacked_fleet", homes: 100, days: 12, attack: true, procs: 1},
	{name: "benign_mqtt_fleet", homes: 200, days: 4, mqtt: true, procs: 1},
	{name: "durable_chaos_fleetd", homes: 1000, days: 4, durable: true},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// trainDays is the ADM training prefix: three quarters of the trace, the
// 9-of-12 split the repository's bench uses.
func (wl workload) trainDays() int { return max(1, wl.days*3/4) }

func (wl workload) streamOptions() core.StreamOptions {
	return core.StreamOptions{Days: wl.days, Defend: wl.attack, Attack: wl.attack}
}

// workers is the load width: one worker per CPU the process may use.
func workers() int { return runtime.GOMAXPROCS(0) }

// useProcs applies the workload's CPU cap to the process.
func (wl workload) useProcs() {
	if wl.procs > 0 {
		runtime.GOMAXPROCS(wl.procs)
	}
}

// durableShards is the fleetd partition count of the durable workload; each
// shard runs one worker with one resident home, so shards × workers and
// homes in flight stay within nproc.
func durableShards() int { return min(2, workers()) }

// chaosConfig is the durable workload's seeded block-scale fault schedule:
// the per-frame rates the repository's chaos bench uses.
func chaosConfig(seed uint64) *stream.FaultConfig {
	return &stream.FaultConfig{
		Seed: seed, Drop: 0.04, Duplicate: 0.06, Delay: 0.05,
		Corrupt: 0.02, Truncate: 0.02, Disconnect: 0.01,
		MaxDelay: 100 * time.Microsecond,
	}
}

// env is one set-up workload: the suite, its jobs, and the reference
// per-home results every pass is checked against.
type env struct {
	wl     workload
	seed   uint64
	dir    string
	suite  *core.Suite
	specs  []scenario.Spec
	jobs   []stream.Job
	broker *mqtt.Broker
	ref    []stream.HomeResult

	worldTime time.Duration   // the cold Suite.FleetJobs call
	openCold  []time.Duration // the first Job.Open of every home
}

// setup builds everything a pass needs and opens every job once: suite
// build, worlds, ADM training and SHATTER planning (both lazily inside the
// first Open of an attacked home), broker start and service start.
func setup(wl workload, seed uint64, dir string) (*env, error) {
	s, err := core.NewSuite(core.SuiteConfig{
		Days: wl.days, TrainDays: wl.trainDays(), Seed: seed, WindowLen: 10, Workers: workers(),
	})
	if err != nil {
		return nil, err
	}
	e := &env{wl: wl, seed: seed, dir: dir, suite: s, specs: scenario.SynthFleet(wl.homes, seed)}
	began := time.Now()
	if e.jobs, err = s.FleetJobs(e.specs, wl.streamOptions()); err != nil {
		return nil, err
	}
	e.worldTime = time.Since(began)
	if wl.mqtt {
		if e.broker, err = mqtt.NewBroker("127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	if wl.durable {
		state, err := os.MkdirTemp(dir, "state-")
		if err != nil {
			e.close()
			return nil, err
		}
		svc, err := core.NewFleetService(s, e.fleetConfig(state, nil))
		if err != nil {
			e.close()
			return nil, err
		}
		svc.Close(false)
		if err := os.RemoveAll(state); err != nil {
			e.close()
			return nil, err
		}
	}
	e.openCold = make([]time.Duration, len(e.jobs))
	if err := parallel(workers(), len(e.jobs), func(i int) error {
		began := time.Now()
		src, _, err := e.jobs[i].Open()
		e.openCold[i] = time.Since(began)
		if err != nil {
			return err
		}
		closeSource(src)
		return nil
	}); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) close() {
	if e.broker != nil {
		e.broker.Close()
	}
}

// parallel runs fn over 0..n-1 on width goroutines and returns the first
// error.
func parallel(width, n int, fn func(i int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

func closeSource(src stream.Source) {
	if c, ok := src.(io.Closer); ok {
		c.Close()
	}
}

// fleetConfig is the durable workload's service: the state directory (the
// manifest plus checkpoints), async disk checkpoints, seeded block chaos on
// a virtual clock, and durableShards shards of one worker and one resident
// home each. wrap, when set, decorates the jobs the factory resolves.
func (e *env) fleetConfig(stateDir string, wrap func([]stream.Job) []stream.Job) fleetd.Config {
	factory := e.suite.FleetJobFactory()
	if wrap != nil {
		inner := factory
		factory = func(req fleetd.AddRequest) ([]stream.Job, error) {
			jobs, err := inner(req)
			if err != nil {
				return nil, err
			}
			return wrap(jobs), nil
		}
	}
	return fleetd.Config{
		Shards:   durableShards(),
		StateDir: stateDir,
		Jobs:     factory,
		Shard: fleetd.ShardOptions{
			Workers:          1,
			MaxResident:      1,
			Recover:          true,
			AsyncCheckpoints: true,
			Clock:            stream.NewVirtualClock(),
			Chaos:            chaosConfig(e.seed),
		},
	}
}

// reference computes the per-home results passes must reproduce. The
// attacked fleet's reference is its first (warm-up) pass; the benign fleets'
// is a clean run over the direct transport.
func (e *env) reference() error {
	if e.wl.attack {
		p, err := e.pass(nil)
		if err != nil {
			return err
		}
		e.ref = p.res.Homes
		return checkInvariants(e.wl, p.res.Stats, p.snap)
	}
	res, err := stream.RunFleet(e.jobs, stream.FleetOptions{Workers: workers()})
	if err != nil {
		return err
	}
	if res.Stats.Quarantined != 0 {
		return fmt.Errorf("reference run quarantined %d homes", res.Stats.Quarantined)
	}
	e.ref = res.Homes
	return nil
}

// passOut is one pass over the whole fleet.
type passOut struct {
	res      stream.FleetResult
	wall     time.Duration // admission to fleet-idle
	alloc    uint64        // heap bytes allocated during the pass
	homeDays int64
	// Durable passes only: the service snapshot, the restart's manifest
	// replay time, and the homes whose restarted result differs.
	snap       fleetd.Snapshot
	replay     time.Duration
	restartBad int
}

// pass drives the whole fleet once. tr, when non-nil, wraps every job with
// the trace's Open and source spans.
func (e *env) pass(tr *tracer) (passOut, error) {
	if e.wl.durable {
		return e.durablePass(tr, e.wl.homes)
	}
	jobs := e.jobs
	if tr != nil {
		jobs = tr.wrapJobs(jobs)
	}
	opts := stream.FleetOptions{Workers: workers()}
	if e.broker != nil {
		opts.Broker = e.broker.Addr()
	}
	var p passOut
	m0 := totalAlloc()
	began := time.Now()
	res, err := stream.RunFleet(jobs, opts)
	p.wall = time.Since(began)
	p.alloc = totalAlloc() - m0
	if err != nil {
		return p, err
	}
	p.res = res
	p.homeDays = res.Stats.Days
	return p, nil
}

// durablePass runs homes homes of the workload's fleet through a fresh
// durable service, then restarts a second service from the finished state
// directory and compares the restarted Result with the first.
func (e *env) durablePass(tr *tracer, homes int) (passOut, error) {
	var p passOut
	state, err := os.MkdirTemp(e.dir, "state-")
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(state)
	var wrap func([]stream.Job) []stream.Job
	if tr != nil {
		wrap = tr.wrapJobs
	}
	svc, err := core.NewFleetService(e.suite, e.fleetConfig(state, wrap))
	if err != nil {
		return p, err
	}
	m0 := totalAlloc()
	began := time.Now()
	_, err = svc.AddSpec(fleetd.AddRequest{
		Synth: homes, Seed: e.seed, Days: e.wl.days, Defend: e.wl.attack, Attack: e.wl.attack,
	})
	if err == nil {
		svc.WaitIdle()
	}
	p.wall = time.Since(began)
	p.alloc = totalAlloc() - m0
	if err != nil {
		svc.Close(false)
		return p, err
	}
	p.res = svc.Result()
	p.snap = svc.Snapshot()
	svc.Close(false)
	p.homeDays = p.res.Stats.Days

	began = time.Now()
	again, err := core.NewFleetService(e.suite, e.fleetConfig(state, nil))
	p.replay = time.Since(began)
	if err != nil {
		return p, fmt.Errorf("restart from state dir: %w", err)
	}
	restarted := again.Result()
	again.Close(false)
	p.restartBad = countMismatch(p.res, restarted)
	return p, nil
}

// countMismatch counts homes whose result or supervision record differs
// between two runs of the same fleet. Outcome durations are wall-clock
// time and are not compared.
func countMismatch(a, b stream.FleetResult) int {
	if len(a.Homes) != len(b.Homes) || len(a.Outcomes) != len(b.Outcomes) {
		return max(len(a.Homes), len(b.Homes))
	}
	bad := 0
	for i := range a.Homes {
		oa, ob := a.Outcomes[i], b.Outcomes[i]
		oa.Duration, ob.Duration = 0, 0
		if !reflect.DeepEqual(a.Homes[i], b.Homes[i]) || oa != ob {
			bad++
		}
	}
	return bad
}

// failures counts the pass's homes that failed, were quarantined, or differ
// from the reference result (or, durably, from the restarted result). A
// pass over fewer homes is checked against the reference's prefix: fleets
// are SynthFleet prefixes of one another.
func (e *env) failures(p passOut) int64 {
	if len(p.res.Homes) > len(e.ref) || len(p.res.Outcomes) != len(p.res.Homes) {
		return int64(max(len(p.res.Homes), 1))
	}
	var bad int64
	for i := range p.res.Homes {
		if p.res.Outcomes[i].Status == stream.OutcomeQuarantined || !reflect.DeepEqual(p.res.Homes[i], e.ref[i]) {
			bad++
		}
	}
	return bad + int64(p.restartBad)
}

// errInert marks a pass whose fixture did not exercise what the workload
// exists to measure.
var errInert = errors.New("inert fixture")

// checkInvariants checks the workload-level properties a live fixture must
// show: an attacked fleet injects episodes and the defender judges them; a
// durable chaos fleet retries and restores homes.
func checkInvariants(wl workload, st stream.FleetStats, snap fleetd.Snapshot) error {
	if wl.attack && (st.Injected == 0 || st.Verdicts == 0) {
		return fmt.Errorf("%w: attacked fleet has %d injected episodes and %d verdicts", errInert, st.Injected, st.Verdicts)
	}
	if wl.durable && (snap.Retries == 0 || snap.Restores == 0) {
		return fmt.Errorf("%w: chaos fleet has %d retries and %d restores", errInert, snap.Retries, snap.Restores)
	}
	return nil
}

// setupBudget bounds the extra set-ups measure repeats past the first three.
const setupBudget = 2 * time.Second

// blockSamples is the size of a block of per-home drive times. The run
// reports the median over blocks of each block's p50 and p95, so one slow
// stretch of a run moves one block, and every block's p95 has at least ten
// samples beyond it.
const blockSamples = 200

// measure is the end-to-end run: several set-ups, the reference, then
// passes until the timed window is spent and at least two blocks of home
// samples are full.
func measure(wl workload, seed uint64, budget time.Duration, dir string, log io.Writer) (Result, error) {
	// At least three set-ups, more while they stay cheap, so a set-up of a
	// few milliseconds still yields a steady median.
	var setupS []float64
	var e *env
	for i, first := 0, time.Now(); i < 3 || (time.Since(first) < setupBudget && i < 200); i++ {
		if e != nil {
			// Return the previous set-up's heap, so max_rss_mb measures one
			// set-up and not all of them.
			e.close()
			e = nil
			debug.FreeOSMemory()
		}
		began := time.Now()
		if i == 0 {
			began = procStart
		}
		var err error
		if e, err = setup(wl, seed, dir); err != nil {
			return Result{}, err
		}
		setupS = append(setupS, time.Since(began).Seconds())
	}
	defer e.close()
	if err := e.reference(); err != nil {
		return Result{}, err
	}

	res := Result{Correct: true}
	var (
		rates      []float64
		block      []float64 // per-home drive times (ms) of the open block
		p50s, p95s []float64 // per full block
		samples    int
		alloc      uint64
		homeDays   int64
		spent      time.Duration
	)
	for spent < budget || len(rates) < 2 || len(p50s) < 2 {
		p, err := e.pass(nil)
		if err != nil {
			return Result{}, err
		}
		spent += p.wall
		res.Attempted += int64(len(p.res.Homes))
		res.Failed += e.failures(p)
		if err := checkInvariants(wl, p.res.Stats, p.snap); err != nil {
			fmt.Fprintln(log, "shatterbench:", err)
			res.Correct = false
		}
		rates = append(rates, float64(p.homeDays)/p.wall.Seconds())
		for _, o := range p.res.Outcomes {
			block = append(block, float64(o.Duration)/1e6)
		}
		samples += len(p.res.Outcomes)
		if len(block) >= blockSamples {
			sort.Float64s(block)
			p50s = append(p50s, quantile(block, 0.50))
			p95s = append(p95s, quantile(block, 0.95))
			block = block[:0]
		}
		alloc += p.alloc
		homeDays += p.homeDays
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	res.Metrics = map[string]Metric{
		"home_days_per_s":       {median(rates), "1/s"},
		"setup_s":               {median(setupS), "s"},
		"home_ms_p50":           {median(p50s), "ms"},
		"home_ms_p95":           {median(p95s), "ms"},
		"alloc_kb_per_home_day": {float64(alloc) / 1024 / float64(homeDays), "KiB"},
		"max_rss_mb":            {maxRSSMB(), "MiB"},
		"ok_frac":               {1 - float64(res.Failed)/float64(res.Attempted), "ratio"},
	}
	sort.Float64s(rates)
	fmt.Fprintf(log, "shatterbench: %s seed %d: %d passes (home-days/s min %.0f median %.0f max %.0f), %d home samples in %d blocks, failed_frac %.4f, %d set-ups\n",
		wl.name, seed, len(rates), rates[0], median(rates), rates[len(rates)-1], samples, len(p50s),
		float64(res.Failed)/float64(res.Attempted), len(setupS))
	return res, nil
}
