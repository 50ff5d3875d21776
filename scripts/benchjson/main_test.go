package main

import (
	"strings"
	"testing"
)

// captured is `go test -run '^$' -bench . -benchmem -count 3` output over
// two packages at GOMAXPROCS=2, with a benchmark log line and the trailing
// PASS/ok lines.
const captured = "goos: linux\n" +
	"goarch: amd64\n" +
	"pkg: incxml\n" +
	"cpu: AMD EPYC\n" +
	"BenchmarkE4BlowupRegular/queries=2-2         \t       5\t     79654 ns/op\t        49.00 repsize\t   66836 B/op\t    1015 allocs/op\n" +
	"BenchmarkE4BlowupRegular/queries=2-2         \t       5\t     80058 ns/op\t        49.00 repsize\t   66881 B/op\t    1015 allocs/op\n" +
	"BenchmarkE4BlowupRegular/queries=2-2         \t       5\t     70000 ns/op\t        49.00 repsize\t   66000 B/op\t    1014 allocs/op\n" +
	"BenchmarkE4BlowupRegular/queries=4-2         \t       5\t    306402 ns/op\t       181.0 repsize\t  318617 B/op\t    3465 allocs/op\n" +
	"BenchmarkE4BlowupRegular/queries=4-2         \t       5\t    307668 ns/op\t       181.0 repsize\t  318617 B/op\t    3465 allocs/op\n" +
	"    bench_test.go:42: a log line: 3 ns/op\n" +
	"BenchmarkE4BlowupRegular/queries=4-2         \t       5\t    300000 ns/op\t       181.0 repsize\t  318617 B/op\t    3465 allocs/op\n" +
	"PASS\n" +
	"ok  \tincxml\t0.024s\n" +
	"goos: linux\n" +
	"goarch: amd64\n" +
	"pkg: incxml/internal/tree\n" +
	"cpu: AMD EPYC\n" +
	"BenchmarkFreshID-2   \t31578466\t        35.90 ns/op\t      16 B/op\t       1 allocs/op\n" +
	"BenchmarkFreshID-2   \t32000000\t        36.10 ns/op\t      16 B/op\t       1 allocs/op\n" +
	"BenchmarkFreshID-2   \t33000000\t        34.00 ns/op\t      16 B/op\t       1 allocs/op\n" +
	"PASS\n" +
	"ok  \tincxml/internal/tree\t3.1s\n"

func TestParseCapturedOutput(t *testing.T) {
	rep, err := parse(strings.NewReader(captured))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || rep.CPU != "AMD EPYC" {
		t.Errorf("header = %q %q %q", rep.GOOS, rep.GOARCH, rep.CPU)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	want := []struct {
		pkg, name string
		ns        Spread
		metrics   map[string]float64
	}{
		{"incxml", "BenchmarkE4BlowupRegular/queries=2", Spread{79654, 70000, 80058},
			map[string]float64{"repsize": 49, "B/op": 66836, "allocs/op": 1015}},
		{"incxml", "BenchmarkE4BlowupRegular/queries=4", Spread{306402, 300000, 307668},
			map[string]float64{"repsize": 181, "B/op": 318617, "allocs/op": 3465}},
		{"incxml/internal/tree", "BenchmarkFreshID", Spread{35.9, 34, 36.1},
			map[string]float64{"B/op": 16, "allocs/op": 1}},
	}
	for i, w := range want {
		b := rep.Benchmarks[i]
		if b.Pkg != w.pkg || b.Name != w.name || b.Runs != 3 {
			t.Errorf("benchmark %d = %s %s (%d runs), want %s %s (3 runs)", i, b.Pkg, b.Name, b.Runs, w.pkg, w.name)
		}
		if b.NsPerOp != w.ns {
			t.Errorf("%s: ns/op %+v, want %+v", w.name, b.NsPerOp, w.ns)
		}
		if len(b.Metrics) != len(w.metrics) {
			t.Errorf("%s: metrics %v, want %v", w.name, b.Metrics, w.metrics)
		}
		for unit, v := range w.metrics {
			if b.Metrics[unit] != v {
				t.Errorf("%s: %s = %v, want %v", w.name, unit, b.Metrics[unit], v)
			}
		}
	}
}

func TestSpreadEvenCount(t *testing.T) {
	if got := spread([]float64{4, 1, 3, 2}); got != (Spread{2.5, 1, 4}) {
		t.Errorf("spread = %+v, want median 2.5 over [1, 4]", got)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok  \tincxml\t0.1s\n")); err == nil {
		t.Error("input without benchmark results accepted")
	}
}
