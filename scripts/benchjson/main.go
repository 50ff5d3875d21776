// Benchjson converts `go test -bench` output into the BENCH_shapes.json
// block: for each benchmark (sub-benchmark names included, the -N
// GOMAXPROCS suffix stripped) it records the number of runs, the median
// and range of ns/op across them, and the median of every other metric —
// B/op, allocs/op and custom metrics such as repsize. scripts/bench.sh
// pipes its benchmark run through it.
//
// Usage: go test -run '^$' -bench . -count 5 ./pkg | benchjson > BENCH_shapes.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Report is the JSON document benchjson writes.
type Report struct {
	Command    string   `json:"command"`
	GOOS       string   `json:"goos,omitempty"`
	GOARCH     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []*Bench `json:"benchmarks"`
}

// Bench summarises every run of one benchmark in one package.
type Bench struct {
	Pkg     string             `json:"pkg"`
	Name    string             `json:"name"`
	Runs    int                `json:"runs"`
	NsPerOp Spread             `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`

	samples map[string][]float64
}

// Spread is the median and range of a sample.
type Spread struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// procsSuffix is the -GOMAXPROCS suffix `go test` appends to a benchmark
// name when GOMAXPROCS is not 1.
var procsSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse reads `go test -bench` output and summarises it. Lines that are not
// a header or a benchmark result (PASS, ok, test logs) are skipped.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Command: "bash scripts/bench.sh"}
	index := map[string]*Bench{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if k, v, ok := strings.Cut(line, ": "); ok {
			switch k {
			case "pkg":
				pkg = v
				continue
			case "goos":
				rep.GOOS = v
				continue
			case "goarch":
				rep.GOARCH = v
				continue
			case "cpu":
				rep.CPU = v
				continue
			}
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || len(f)%2 != 0 {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name := procsSuffix.ReplaceAllString(f[0], "")
		key := pkg + "\x00" + name
		b := index[key]
		if b == nil {
			b = &Bench{Pkg: pkg, Name: name, samples: map[string][]float64{}}
			index[key] = b
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
		b.Runs++
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: metric %q: %v", name, f[i+1], err)
			}
			b.samples[f[i+1]] = append(b.samples[f[i+1]], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark results in the input")
	}
	for _, b := range rep.Benchmarks {
		for unit, vs := range b.samples {
			s := spread(vs)
			if unit == "ns/op" {
				b.NsPerOp = s
				continue
			}
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = s.Median
		}
	}
	return rep, nil
}

// spread returns the median and range of vs, which it sorts.
func spread(vs []float64) Spread {
	sort.Float64s(vs)
	n := len(vs)
	med := vs[n/2]
	if n%2 == 0 {
		med = (vs[n/2-1] + vs[n/2]) / 2
	}
	return Spread{Median: med, Min: vs[0], Max: vs[n-1]}
}
