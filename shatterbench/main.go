// Command shatterbench is the repository benchmark. It drives one named
// workload — a defended and attacked fleet, a benign fleet routed through
// the MQTT broker, or a durable fleetd service under seeded chaos — from a
// seed given on the command line, checks every home's result against a
// reference, and prints one JSON result line:
//
//	shatterbench --workload attacked_fleet --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (throughput,
// set-up time, per-home drive time, allocation, peak memory, share of
// correct homes). With --trace 1 a separate traced run reports per-layer
// costs: spans around Job.Open and every home's source in the fleet, plus a
// replay of the same generated homes that times each layer's public calls
// directly and checks that the layer costs add up to the fleet's cost.
//
// The benchmark imports the module's packages and measures from outside;
// it changes nothing in them. Load comes from this one process, with at
// most nproc workers, shard workers and homes in flight; the measured
// workloads cap the process at one CPU.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// procStart approximates process start: the first set-up is timed from
// here, so runtime and package initialisation count towards setup_s.
var procStart = time.Now()

// scratchRoot holds the benchmark's build output and run-time scratch
// (state dirs, checkpoints, trace files), relative to the working directory.
const scratchRoot = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Result is the line the benchmark prints last.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Metric is one named measurement with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shatterbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "shatterbench: need --workload one of %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	wl.useProcs()
	dir, err := os.MkdirTemp(mkScratch(), "run-")
	if err != nil {
		fmt.Fprintln(stderr, "shatterbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	host, _ := json.Marshal(map[string]any{"host": hostBlock(*seed)})
	fmt.Fprintln(stdout, string(host))

	budget := time.Duration(*seconds) * time.Second
	var res Result
	if *trace == 1 {
		spans := filepath.Join(scratchRoot, "traces", fmt.Sprintf("%s-seed%d.jsonl", wl.name, *seed))
		res, err = traceRun(wl, *seed, budget, dir, spans, stderr)
	} else {
		res, err = measure(wl, *seed, budget, dir, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "shatterbench: %s: %v\n", wl.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "shatterbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// mkScratch returns the scratch root, creating it; on failure MkdirTemp
// reports the error.
func mkScratch() string {
	root := filepath.Join(scratchRoot, "tmp")
	_ = os.MkdirAll(root, 0o755)
	return root
}

// hostBlock describes the machine and build a result was measured on.
func hostBlock(seed uint64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"seed":       seed,
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" off Linux).
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
