package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/acyd-lab/shatter/internal/fleetd"
	"github.com/acyd-lab/shatter/internal/stream"
)

// spec is BENCHMARK.json as far as the tests read it.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// small shrinks a workload so a test drives it in about a second.
func small(wl workload) workload {
	wl.homes, wl.days = 6, 4
	return wl
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func TestMetricNames(t *testing.T) {
	s := loadSpec(t)
	seen := map[string]bool{}
	for _, m := range s.EndToEnd {
		if !metricName.MatchString(m.Name) || len(m.Name) > 64 || seen[m.Name] {
			t.Errorf("bad or repeated end-to-end metric name %q", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range s.PerLayer {
		if !metricName.MatchString(m.Name) || len(m.Name) > 64 || seen[m.Name] {
			t.Errorf("bad or repeated per-layer metric name %q", m.Name)
		}
		seen[m.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("BENCHMARK.json declares no setup_s")
	}
	for _, w := range s.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok || w.Why == "" {
			t.Errorf("BENCHMARK.json workload %q is not runnable or has no reason", w.Name)
		}
	}
	// The README's target table names every per-layer metric.
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range s.PerLayer {
		if !strings.Contains(string(readme), "`"+m.Name+"`") {
			t.Errorf("README.md does not name per-layer metric %s", m.Name)
		}
	}
}

// checkMetrics asserts got carries exactly the declared names and units,
// every value finite.
func checkMetrics(t *testing.T, got map[string]Metric, names, units []string) {
	t.Helper()
	want := map[string]string{}
	for i, n := range names {
		want[n] = units[i]
	}
	for n, u := range want {
		m, ok := got[n]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", n)
		case m.Unit != u:
			t.Errorf("metric %s in %s, declared %s", n, m.Unit, u)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", n, m.Value)
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			t.Errorf("metric %s emitted but not declared", n)
		}
	}
}

func TestWorkloadsEmitEndToEnd(t *testing.T) {
	s := loadSpec(t)
	var names, units []string
	for _, m := range s.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			res, err := measure(small(wl), 3, time.Millisecond, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res.Metrics, names, units)
			for n, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
				}
			}
		})
	}
}

func TestTraceEmitsPerLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs take a few seconds")
	}
	s := loadSpec(t)
	var names, units []string
	for _, m := range s.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			tmp := t.TempDir()
			res, err := traceRun(small(wl), 3, time.Millisecond, tmp, filepath.Join(tmp, "spans.jsonl"), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			// Tiny traced runs are too short for a steady sum-check, so only
			// the output check's failure count is asserted.
			if res.Failed != 0 {
				t.Fatalf("%d of %d homes failed", res.Failed, res.Attempted)
			}
			checkMetrics(t, res.Metrics, names, units)
		})
	}
}

// inputDigest hashes every day block every job of a fresh set-up emits.
func inputDigest(t *testing.T, wl workload, seed uint64) [32]byte {
	t.Helper()
	e, err := setup(wl, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	h := sha256.New()
	for _, job := range e.jobs {
		src, _, err := job.Open()
		if err != nil {
			t.Fatal(err)
		}
		var blk stream.DayBlock
		for {
			err := src.(stream.BlockSource).NextBlock(&blk)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			io.WriteString(h, blk.Home)
			for _, col := range [][]float64{blk.TempF, blk.CO2PPM} {
				for _, v := range col {
					binary.Write(h, binary.LittleEndian, v)
				}
			}
			for o := range blk.TrueZone {
				binary.Write(h, binary.LittleEndian, blk.TrueZone[o])
				binary.Write(h, binary.LittleEndian, blk.TrueAct[o])
			}
			for a := range blk.TrueAppliance {
				binary.Write(h, binary.LittleEndian, blk.TrueAppliance[a])
			}
		}
		closeSource(src)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, wl := range workloads {
		wl := small(wl)
		a, b := inputDigest(t, wl, 7), inputDigest(t, wl, 7)
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs on two set-ups", wl.name)
		}
		if c := inputDigest(t, wl, 8); c == a {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", wl.name)
		}
	}
}

func TestInertFixtureFails(t *testing.T) {
	attacked, _ := lookupWorkload("attacked_fleet")
	durable, _ := lookupWorkload("durable_chaos_fleetd")
	live := stream.FleetStats{Injected: 5, Verdicts: 40}
	liveSnap := fleetd.Snapshot{Retries: 3, Restores: 2}
	cases := []struct {
		name string
		wl   workload
		st   stream.FleetStats
		snap fleetd.Snapshot
		want bool // want an error
	}{
		{"attacked live", attacked, live, fleetd.Snapshot{}, false},
		{"attacked no verdicts", attacked, stream.FleetStats{Injected: 5}, fleetd.Snapshot{}, true},
		{"attacked nothing injected", attacked, stream.FleetStats{Verdicts: 40}, fleetd.Snapshot{}, true},
		{"durable live", durable, stream.FleetStats{}, liveSnap, false},
		{"durable no retries", durable, stream.FleetStats{}, fleetd.Snapshot{}, true},
		{"durable no restores", durable, stream.FleetStats{}, fleetd.Snapshot{Retries: 3}, true},
	}
	for _, c := range cases {
		err := checkInvariants(c.wl, c.st, c.snap)
		if got := err != nil; got != c.want || (got && !errors.Is(err, errInert)) {
			t.Errorf("%s: checkInvariants = %v", c.name, err)
		}
	}
}

// TestInertFleetFails runs a benign fleet and checks it as the attacked
// workload: with nothing injected and no defender, the check must fail.
func TestInertFleetFails(t *testing.T) {
	attacked, _ := lookupWorkload("attacked_fleet")
	benign := small(attacked)
	benign.attack = false
	e, err := setup(benign, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	p, err := e.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkInvariants(attacked, p.res.Stats, p.snap); !errors.Is(err, errInert) {
		t.Fatalf("benign fleet passed the attacked check: %v", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	sort.Float64s(xs)
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if q := quantile(xs, 0.95); math.Abs(q-4.8) > 1e-9 {
		t.Errorf("p95 = %v", q)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}
