package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain implements `compare A.jsonl B.jsonl`: for every workload and
// gated end-to-end metric, the median of the runs in A and in B, the
// relative delta and the bound from BENCHMARK.json, labelled
//   - unresolved when either side's quartile spread (Q3-Q1)/median exceeds
//     the bound, unless every run of one side beats every run of the other;
//   - worse or improved when the medians differ by more than the bound;
//   - unchanged otherwise.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("spec", "", "BENCHMARK.json (default: ./BENCHMARK.json, then ../BENCHMARK.json)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	a, err := readResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	b, err := readResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	fmt.Fprintf(out, "%-9s %-16s %5s %12s %12s %9s %7s %7s %7s  %s\n",
		"workload", "metric", "runs", "median A", "median B", "delta", "bound", "sprdA", "sprdB", "verdict")
	for _, w := range workloads {
		ra, rb := a[w.name], b[w.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			ma, mb := median(va), median(vb)
			sa, sb := spread(va), spread(vb)
			delta := ratio(mb-ma, ma)
			verdict := classify(va, vb, delta, sa, sb, m.Bound, m.Better == "higher")
			fmt.Fprintf(out, "%-9s %-16s %2d/%-2d %12.6g %12.6g %+8.1f%% %6.0f%% %6.1f%% %6.1f%%  %s\n",
				w.name, m.Name, len(va), len(vb), ma, mb, 100*delta, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
	}
	return 0
}

func classify(va, vb []float64, delta, sa, sb, bound float64, higherBetter bool) string {
	worse := delta > bound
	better := delta < -bound
	if higherBetter {
		worse, better = delta < -bound, delta > bound
	}
	if sa > bound || sb > bound {
		bAbove := minOf(vb) > maxOf(va)
		bBelow := maxOf(vb) < minOf(va)
		switch {
		case (bAbove && higherBetter) || (bBelow && !higherBetter):
			return "improved"
		case (bAbove && !higherBetter) || (bBelow && higherBetter):
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case worse:
		return "worse"
	case better:
		return "improved"
	}
	return "unchanged"
}

func minOf(x []float64) float64 {
	m := math.Inf(1)
	for _, v := range x {
		m = math.Min(m, v)
	}
	return m
}

func maxOf(x []float64) float64 {
	m := math.Inf(-1)
	for _, v := range x {
		m = math.Max(m, v)
	}
	return m
}

// spread is the quartile spread (Q3-Q1)/median of a set of runs, with the
// quartiles of Python's statistics.quantiles(values, n=4).
func spread(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	// The "exclusive" method, transcribed from Python's statistics module.
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return ratio(q(3)-q(1), median(s))
}

func values(rs []result, metric string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if v, ok := r.E2E[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

func readSpec(path string) (*benchSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var lastErr error
	for _, p := range candidates {
		b, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, lastErr
}

// readResults reads the -json lines of a set of runs, by workload.
func readResults(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}
