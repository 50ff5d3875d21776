package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"incxml/internal/workload"
)

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the metric
// tables the harness emits in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if bj.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %v, harness default %v", bj.RunSeconds, runSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bj.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(bj.EndToEnd), len(e2eMetrics))
	}
	for i, m := range bj.EndToEnd {
		d := e2eMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range bj.PerLayer {
		d := layerMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload briefly with the traced pass and checks
// that the JSON result carries every metric BENCHMARK.json names, that the
// oracle checks ran and passed, and that every stage row sums to its band's
// mean client latency. A run whose live heap read finds answers still held
// by the checker fails (liveHeapMB), so the test also pins that the heap
// metric excludes them.
func TestSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	dir := t.TempDir()
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			records := filepath.Join(dir, w.name+".jsonl")
			o := options{seed: 1, seconds: 0.5, warmup: 50, repeats: 3, trace: true,
				spans: filepath.Join(dir, w.name+"-spans.jsonl")}
			var out bytes.Buffer
			if code := run([]*spec{w}, o, records, &out); code != 0 {
				t.Fatalf("exit code %d; output:\n%s", code, out.String())
			}

			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var final map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
				t.Fatalf("last line is not a JSON object: %v", err)
			}
			if len(final) != 4 || final["correct"] == nil || final["attempted"] == nil ||
				final["failed"] == nil || final["metrics"] == nil {
				t.Fatalf("result keys: %s", lines[len(lines)-1])
			}
			var metrics map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			}
			if err := json.Unmarshal(final["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			for _, m := range bj.PerLayer {
				got, ok := metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
					t.Errorf("per-layer metric %s: got %+v (present %v)", m.Name, got, ok)
				}
			}

			b, err := os.ReadFile(records)
			if err != nil {
				t.Fatal(err)
			}
			var res result
			if err := json.Unmarshal(b, &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Checks.total() != 0 {
				t.Errorf("oracle mismatches: %+v", res.Checks)
			}
			if res.Checks.Checked["recovery"] == 0 {
				t.Error("recovery knowledge was not re-checked")
			}
			if w.name != "acquire" && res.Checks.Checked["ext_query"] == 0 {
				t.Error("no /ext/query answer was re-checked")
			}
			for _, m := range bj.EndToEnd {
				if v, ok := res.E2E[m.Name]; !ok || !(v > 0) {
					t.Errorf("end-to-end metric %s: %v (present %v)", m.Name, v, ok)
				}
			}
			if res.Failed != 0 {
				t.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
			}

			if len(res.Stages) == 0 {
				t.Fatal("no stage rows")
			}
			for _, row := range res.Stages {
				if d := math.Abs(row.sumMs() - row.TotalMs); d > 0.01*row.TotalMs {
					t.Errorf("%s %s band: stages sum to %.4f ms, band mean is %.4f ms", row.Route, row.Band, row.sumMs(), row.TotalMs)
				}
			}
		})
	}
}

// TestCheckerDrainReleasesAnswers pins that the checker re-checks what it
// holds, then holds nothing, and that the live heap cannot be read before.
func TestCheckerDrainReleasesAnswers(t *testing.T) {
	c := newChecker()
	req := newRequest(&workload.Op{Kind: workload.OpComplete, Source: "catalog", Query: workload.Query4().String()})
	wrong := []byte(`{"degraded":false,"answer":{"nodes":1,"xml":"<catalog/>"}}`)
	c.observe(req, wrong)
	c.observe(req, wrong)
	if _, err := liveHeapMB(c); err == nil {
		t.Fatal("live heap read while the checker holds an answer")
	}
	report := checkReport{Checked: map[string]int{}, Mismatches: map[string]int{}}
	c.drain(&report)
	if n := c.retained(); n != 0 {
		t.Fatalf("checker holds %d answers after drain", n)
	}
	if report.Checked["complete"] != 2 || report.Mismatches["complete"] != 2 {
		t.Fatalf("report %+v, want 2 checked and 2 mismatched /complete answers", report)
	}
	if _, err := liveHeapMB(c); err != nil {
		t.Fatal(err)
	}
}

// TestQuietSlices pins which slices of a window the end-to-end metrics are
// taken over: the quiet ones, or the least-stolen slices that make up the
// target when the window ended with less quiet time than that.
func TestQuietSlices(t *testing.T) {
	t0 := time.Now()
	sec := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	var samples []sample
	for _, s := range []float64{0.5, 1.5, 2.5, 3.5} {
		samples = append(samples, sample{at: sec(s)})
	}
	// Steal is in jiffies; 100 in one second is at least 1/NumCPU of it.
	cases := []struct {
		target   time.Duration
		perSlice []float64
		wantAt   []float64
		wantLen  time.Duration
	}{
		{3 * time.Second, []float64{0, 100, 0, 0}, []float64{0.5, 2.5, 3.5}, 3 * time.Second},
		{2 * time.Second, []float64{100, 300, 200, 400}, []float64{0.5, 2.5}, 2 * time.Second},
	}
	for _, c := range cases {
		m := &stealMeter{target: c.target, at: []time.Time{sec(0)}, steal: []float64{1000}}
		for k, d := range c.perSlice {
			m.at = append(m.at, sec(float64(k+1)))
			m.steal = append(m.steal, m.steal[k]+d)
		}
		got, length := m.quiet(samples)
		var at []float64
		for _, s := range got {
			at = append(at, s.at.Sub(t0).Seconds())
		}
		if fmt.Sprint(at) != fmt.Sprint(c.wantAt) || length != c.wantLen {
			t.Errorf("steal %v: kept samples at %v over %v, want %v over %v", c.perSlice, at, length, c.wantAt, c.wantLen)
		}
	}
}

// TestSpreadMatchesPythonQuantiles pins spread to statistics.quantiles:
// for 1..10 the quartiles are 2.75 and 8.25 around a median of 5.5.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread = %v, want 1", got)
	}
	// Two values: the exclusive method extrapolates, (2.25-0.75)/1.5.
	if got := spread([]float64{1, 2}); math.Abs(got-(2.25-0.75)/1.5) > 1e-12 {
		t.Fatalf("spread of two = %v", got)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		a, b   []float64
		bound  float64
		higher bool
		want   string
	}{
		{[]float64{10, 10, 10}, []float64{10.2, 10.1, 10}, 0.1, false, "unchanged"},
		{[]float64{10, 10, 10}, []float64{12, 12, 12}, 0.1, false, "worse"},
		{[]float64{10, 10, 10}, []float64{12, 12, 12}, 0.1, true, "improved"},
		{[]float64{5, 10, 15}, []float64{6, 11, 16}, 0.1, false, "unresolved"},
		{[]float64{5, 10, 15}, []float64{20, 25, 30}, 0.1, false, "worse"},
	}
	for _, c := range cases {
		ma, mb := median(c.a), median(c.b)
		got := classify(c.a, c.b, ratio(mb-ma, ma), spread(c.a), spread(c.b), c.bound, c.higher)
		if got != c.want {
			t.Errorf("classify(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}
