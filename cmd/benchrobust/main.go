// Benchrobust measures the robustness layer and writes the results as
// JSON (BENCH_robustness.json by default). It exits 1 when a block fails.
//
// The experiment blocks:
//
//  1. Budgeted vs. exact conjunctive emptiness on the Example 3.2 blowup
//     family: for each prefix of the workload root(a=i, b=i) the program
//     times the exact NP certificate scan (Theorem 3.10) against the
//     budget-guarded three-valued scan, recording the verdicts so the
//     anytime contract — never wrong when it answers — is visible next to
//     the latency it buys.
//
//  2. Metrics overhead (EXPERIMENTS.md E20): serial /local latency with the
//     observability pipeline enabled versus the no-op recorder
//     (obs.SetEnabled(false)), reporting both percentile sets and the p99
//     ratio — the number behind the "<5% overhead" claim.
//
//  3. Raw-speed pass (EXPERIMENTS.md E21): the budgeted-`unknown` crossover
//     of the blowup family under the pruned certificate search (steps used
//     per n at the fixed 20k budget), plus single-worker ns/op and
//     allocs/op of the pruned search versus the reference mixed-radix scan
//     on the hard-empty 2^k family.
//
//  4. Completeness certificates under outage (EXPERIMENTS.md E23): a soak
//     of random two-shard instances, each with one whole shard down,
//     scattering random linear queries and recording the distribution of
//     scatter-wide completeness ratios, the verdict split, and — the
//     soundness tally — a re-check of every non-empty certificate against
//     the true world documents (overclaims must stay zero).
//
//  5. Durability cost (EXPERIMENTS.md E24): the WAL-append overhead on a
//     serial explore workload with and without an attached store, snapshot
//     size as a function of repository size, and cold recovery time as a
//     function of WAL length.
//
// Served latency under mixed traffic (E25) is measured by the repository
// benchmark (bash bench/run.sh), and the scatter-gather scaling of E22 by
// BenchmarkE22 in internal/shard.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"incxml/internal/budget"
	"incxml/internal/certify"
	"incxml/internal/cond"
	"incxml/internal/conj"
	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/obs"
	"incxml/internal/refine"
	"incxml/internal/serve"
	"incxml/internal/shard"
	"incxml/internal/tree"
	"incxml/internal/webhouse"
	"incxml/internal/workload"
)

type emptinessRow struct {
	N               int     `json:"n"`
	Size            int     `json:"size"`
	ExactEmpty      bool    `json:"exactEmpty"`
	ExactMs         float64 `json:"exactMs"`
	BudgetSteps     int64   `json:"budgetSteps"`
	BudgetedVerdict string  `json:"budgetedVerdict"`
	BudgetedMs      float64 `json:"budgetedMs"`
}

type latencySummary struct {
	P50Ms float64 `json:"p50Ms"`
	P95Ms float64 `json:"p95Ms"`
	P99Ms float64 `json:"p99Ms"`
	MaxMs float64 `json:"maxMs"`
}

type overheadReport struct {
	Requests int            `json:"requests"`
	Enabled  latencySummary `json:"enabled"`
	Disabled latencySummary `json:"disabled"`
	// P99Ratio is enabled-p99 / disabled-p99 (1.0 = free metrics).
	P99Ratio float64 `json:"p99Ratio"`
}

// e21Row records one blowup prefix under the fixed E21 budget: the
// three-valued verdict and the steps the pruned search actually charged.
type e21Row struct {
	N       int    `json:"n"`
	Verdict string `json:"verdict"`
	Steps   int64  `json:"steps"`
}

// e21Report is the EXPERIMENTS.md E21 block: where (if anywhere) the
// budgeted verdict degrades to unknown on the blowup family, and the
// single-worker before/after comparison on the hard-empty family.
type e21Report struct {
	BudgetSteps int64 `json:"budgetSteps"`
	MaxN        int   `json:"maxN"`
	// CrossoverN is the first n whose budgeted verdict is unknown;
	// 0 means every prefix up to MaxN stayed exactly decided.
	CrossoverN int      `json:"crossoverN"`
	Blowup     []e21Row `json:"blowup"`

	// Single-worker hard-empty comparison: reference mixed-radix scan
	// ("before") vs the pruned certificate search ("after").
	HardK              int     `json:"hardK"`
	SequentialNsOp     int64   `json:"sequentialNsOp"`
	SequentialAllocsOp int64   `json:"sequentialAllocsOp"`
	PrunedNsOp         int64   `json:"prunedNsOp"`
	PrunedAllocsOp     int64   `json:"prunedAllocsOp"`
	SpeedupX           float64 `json:"speedupX"`
}

// e23Report is the EXPERIMENTS.md E23 block: the completeness-ratio
// distribution of scatter-wide certificates over a one-shard-outage soak,
// the verdict split, and the soundness tally from re-checking every
// non-empty certificate against the true world documents.
type e23Report struct {
	Shards          int            `json:"shards"`
	SourcesPerRound int            `json:"sourcesPerRound"`
	Rounds          int            `json:"rounds"`
	VerdictCounts   map[string]int `json:"verdictCounts"`
	RatioMin        float64        `json:"ratioMin"`
	RatioP50        float64        `json:"ratioP50"`
	RatioP90        float64        `json:"ratioP90"`
	RatioMax        float64        `json:"ratioMax"`
	RatioMean       float64        `json:"ratioMean"`
	// NonEmptyCertificates counts rounds whose scatter-wide certificate
	// certified at least one query atom despite the outage.
	NonEmptyCertificates int `json:"nonEmptyCertificates"`
	// Overclaims counts certified sub-queries whose answer over a source's
	// certain fragment differed from its answer over the world — the
	// soundness contract says this must stay zero.
	Overclaims int `json:"overclaims"`
	// HealthyFullAnswers counts per-source certificates on reachable
	// sources that certified the whole query (exact completions).
	HealthyFullAnswers int `json:"healthyFullAnswers"`
}

type report struct {
	GeneratedUnix   int64          `json:"generatedUnix"`
	BlowupEmptiness []emptinessRow `json:"blowupEmptiness"`
	MetricsOverhead overheadReport `json:"metricsOverhead"`
	E21             e21Report      `json:"e21"`
	E23             e23Report      `json:"e23"`
	E24             e24Report      `json:"e24"`
}

func main() {
	out := flag.String("out", "BENCH_robustness.json", "output file")
	maxN := flag.Int("max-n", 9, "largest blowup workload prefix")
	steps := flag.Int64("budget", 20_000, "step budget for the budgeted emptiness scan")
	overheadN := flag.Int("overhead-requests", 2000, "serial requests per E20 overhead run")
	e21MaxN := flag.Int("e21-max-n", 12, "largest blowup prefix for the E21 crossover scan")
	e21HardK := flag.Int("e21-hard-k", 12, "hard-empty family size for the E21 before/after benchmark")
	e23Rounds := flag.Int("e23-rounds", 80, "random outage instances for the E23 certificate soak")
	e24Requests := flag.Int("e24-requests", 400, "serial explores per E24 durability-overhead run")
	flag.Parse()

	rep := report{GeneratedUnix: time.Now().Unix()}
	rep.BlowupEmptiness = benchEmptiness(*maxN, *steps)
	rep.MetricsOverhead = benchOverhead(*overheadN)
	rep.E21 = benchE21(*e21MaxN, *steps, *e21HardK)
	rep.E23 = benchE23(*e23Rounds)
	rep.E24 = benchE24(*e24Requests)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "write:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
	if rep.E23.Overclaims > 0 {
		fmt.Fprintf(os.Stderr, "e23: %d certificates overclaimed\n", rep.E23.Overclaims)
		os.Exit(1)
	}
}

func benchEmptiness(maxN int, steps int64) []emptinessRow {
	world := workload.BlowupWorld()
	t := conj.FromITree(refine.Universal(workload.BlowupSigma))
	rows := make([]emptinessRow, 0, maxN)
	for n := 1; n <= maxN; n++ {
		q := workload.BlowupQuery(int64(n))
		if err := t.RefinePlus(q, q.Eval(world), workload.BlowupSigma); err != nil {
			fmt.Fprintln(os.Stderr, "refine:", err)
			os.Exit(1)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		start := time.Now()
		exact, err := t.EmptyBudgeted(ctx, nil)
		exactMs := msSince(start)
		cancel()
		if err != nil {
			// A timed-out exact scan has no verdict: fail rather than
			// record it as empty.
			fmt.Fprintf(os.Stderr, "exact emptiness at n=%d: %v\n", n, err)
			os.Exit(1)
		}
		empty := exact == budget.Yes

		bud := budget.New(context.Background(), steps)
		start = time.Now()
		verdict, _ := t.EmptyBudgeted(context.Background(), bud)
		budgetedMs := msSince(start)

		rows = append(rows, emptinessRow{
			N:               n,
			Size:            t.Size(),
			ExactEmpty:      empty,
			ExactMs:         exactMs,
			BudgetSteps:     steps,
			BudgetedVerdict: verdict.String(),
			BudgetedMs:      budgetedMs,
		})
		fmt.Printf("blowup n=%d size=%d exact=%v (%.2fms) budgeted=%s (%.2fms)\n",
			n, t.Size(), empty, exactMs, verdict, budgetedMs)
	}
	return rows
}

// benchOverhead is EXPERIMENTS.md E20: the same serial /local workload
// measured with the observability pipeline live and with the no-op
// recorder (obs.SetEnabled(false)), in-process to keep network noise out
// of the comparison.
func benchOverhead(n int) overheadReport {
	const body = "catalog\n  product\n    name\n    price {< 200}\n    cat {= 1}\n      subcat\n"
	run := func(enabled bool) latencySummary {
		prev := obs.SetEnabled(enabled)
		defer obs.SetEnabled(prev)
		s, err := serve.New(serve.Config{Timeout: 5 * time.Second, Budget: 50_000, Trace: enabled})
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		h := s.Handler()
		do := func() int {
			req := httptest.NewRequest("POST", "/local", strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec.Code
		}
		for i := 0; i < 50; i++ { // warm caches and code paths
			do()
		}
		lat := make([]time.Duration, n)
		for i := range lat {
			start := time.Now()
			if code := do(); code != http.StatusOK {
				fmt.Fprintln(os.Stderr, "overhead run: unexpected status", code)
				os.Exit(1)
			}
			lat[i] = time.Since(start)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return latencySummary{
			P50Ms: pctMs(lat, 50),
			P95Ms: pctMs(lat, 95),
			P99Ms: pctMs(lat, 99),
			MaxMs: pctMs(lat, 100),
		}
	}
	disabled := run(false)
	enabled := run(true)
	ratio := 0.0
	if disabled.P99Ms > 0 {
		ratio = enabled.P99Ms / disabled.P99Ms
	}
	fmt.Printf("metrics overhead: p99 enabled=%.3fms disabled=%.3fms ratio=%.3f (n=%d)\n",
		enabled.P99Ms, disabled.P99Ms, ratio, n)
	return overheadReport{Requests: n, Enabled: enabled, Disabled: disabled, P99Ratio: ratio}
}

// benchE21 is EXPERIMENTS.md E21. Part one: run the pruned budgeted search
// on each blowup prefix at the fixed step budget and record the first n (if
// any) where the verdict degrades to unknown — before the raw-speed pass the
// crossover sat at n=6. Part two: single-worker hard-empty emptiness, the
// reference mixed-radix certificate scan versus the pruned search, measured
// with testing.Benchmark so ns/op and allocs/op land in the report.
func benchE21(maxN int, steps int64, hardK int) e21Report {
	rep := e21Report{BudgetSteps: steps, MaxN: maxN, HardK: hardK}

	world := workload.BlowupWorld()
	t := conj.FromITree(refine.Universal(workload.BlowupSigma))
	for n := 1; n <= maxN; n++ {
		q := workload.BlowupQuery(int64(n))
		if err := t.RefinePlus(q, q.Eval(world), workload.BlowupSigma); err != nil {
			fmt.Fprintln(os.Stderr, "refine:", err)
			os.Exit(1)
		}
		bud := budget.New(context.Background(), steps)
		verdict, _ := t.EmptyBudgeted(context.Background(), bud)
		rep.Blowup = append(rep.Blowup, e21Row{N: n, Verdict: verdict.String(), Steps: bud.Used()})
		if verdict == budget.Unknown && rep.CrossoverN == 0 {
			rep.CrossoverN = n
		}
		fmt.Printf("e21 blowup n=%d budgeted=%s steps=%d/%d\n", n, verdict, bud.Used(), steps)
	}

	hard := hardEmptyConj(hardK)
	seq := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !hard.EmptySequential() {
				b.Fatal("hard instance not empty")
			}
		}
	})
	pruned := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !hard.Empty() {
				b.Fatal("hard instance not empty")
			}
		}
	})
	rep.SequentialNsOp = seq.NsPerOp()
	rep.SequentialAllocsOp = seq.AllocsPerOp()
	rep.PrunedNsOp = pruned.NsPerOp()
	rep.PrunedAllocsOp = pruned.AllocsPerOp()
	if pruned.NsPerOp() > 0 {
		rep.SpeedupX = float64(seq.NsPerOp()) / float64(pruned.NsPerOp())
	}
	fmt.Printf("e21 hard-empty k=%d: sequential %dns/op %dallocs/op, pruned %dns/op %dallocs/op (%.1fx)\n",
		hardK, rep.SequentialNsOp, rep.SequentialAllocsOp, rep.PrunedNsOp, rep.PrunedAllocsOp, rep.SpeedupX)
	return rep
}

// benchE23 is the EXPERIMENTS.md E23 soak: random two-shard instances, one
// whole shard down each round, a random linear query scattered cluster-wide.
// Each round contributes the scatter-wide certificate's completeness ratio
// and verdict; every non-empty certificate is re-verified the hard way — the
// certified sub-query evaluated over each reachable source's certain
// fragment must equal its evaluation over that source's world document.
func benchE23(rounds int) e23Report {
	ctx := context.Background()
	rep := e23Report{Shards: 2, SourcesPerRound: 3, Rounds: rounds, VerdictCounts: map[string]int{}}
	ratios := make([]float64, 0, rounds)
	var sum float64
	for i := 0; i < rounds; i++ {
		seed := int64(4000 + i)
		c := shard.New(shard.Config{Shards: 2})
		docs := map[string]tree.Tree{}
		for s := 0; s < rep.SourcesPerRound; s++ {
			name := fmt.Sprintf("s%d", s)
			doc := workload.RandomCatalog(3+(i+s)%4, seed*10+int64(s))
			src, err := webhouse.NewSource(name, workload.CatalogType(), doc)
			if err != nil {
				fmt.Fprintln(os.Stderr, "e23:", err)
				os.Exit(1)
			}
			if _, err := c.Register(src); err != nil {
				fmt.Fprintln(os.Stderr, "e23:", err)
				os.Exit(1)
			}
			docs[name] = doc
		}
		for name := range docs {
			if _, err := c.Explore(ctx, name, workload.Query1(int64(100+i%150))); err != nil {
				fmt.Fprintln(os.Stderr, "e23:", err)
				os.Exit(1)
			}
		}
		q := workload.RandomLinearQuery(workload.CatalogType(), seed, 2+i%3, 300)
		c.Group(i % 2).SetDown(true)

		sc, err := c.ScatterComplete(ctx, q)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e23:", err)
			os.Exit(1)
		}
		cert := sc.Certificate
		rep.VerdictCounts[string(cert.Verdict)]++
		r := certify.CompletenessRatio(cert)
		ratios = append(ratios, r)
		sum += r
		for i := range sc.Answers {
			sa := &sc.Answers[i]
			if sa.Err == nil && sa.Certificate() != nil && sa.Certificate().Verdict == certify.Full {
				rep.HealthyFullAnswers++
			}
		}
		if cert.AtomsCertified == 0 {
			continue
		}
		rep.NonEmptyCertificates++
		subq := certify.Subquery(q, cert.Paths)
		for _, sa := range sc.Answers {
			if sa.Err != nil {
				continue
			}
			g, err := c.Owner(sa.Source)
			if err != nil {
				fmt.Fprintln(os.Stderr, "e23:", err)
				os.Exit(1)
			}
			know, err := g.Webhouse().Knowledge(sa.Source)
			if err != nil {
				fmt.Fprintln(os.Stderr, "e23:", err)
				os.Exit(1)
			}
			if !subq.Eval(know.DataTree()).Equal(subq.Eval(docs[sa.Source])) {
				rep.Overclaims++
			}
		}
	}
	sort.Float64s(ratios)
	rep.RatioMin = pctF(ratios, 0)
	rep.RatioP50 = pctF(ratios, 50)
	rep.RatioP90 = pctF(ratios, 90)
	rep.RatioMax = pctF(ratios, 100)
	if len(ratios) > 0 {
		rep.RatioMean = sum / float64(len(ratios))
	}
	fmt.Printf("e23: %d rounds, ratio min/p50/p90/max %.2f/%.2f/%.2f/%.2f mean %.2f, verdicts %v, %d non-empty, %d overclaims\n",
		rounds, rep.RatioMin, rep.RatioP50, rep.RatioP90, rep.RatioMax, rep.RatioMean,
		rep.VerdictCounts, rep.NonEmptyCertificates, rep.Overclaims)
	return rep
}

// hardEmptyConj mirrors the E21 benchmark fixture (hardEmptyInstance in
// package conj's tests): 2^k certificates, none satisfiable, so emptiness
// must exhaust the space.
func hardEmptyConj(k int) *conj.T {
	t := conj.New()
	t.Sigma["r"] = ctype.LabelTarget("r")
	t.Sigma["c"] = ctype.LabelTarget("x")
	t.Cond["c"] = cond.EqInt(3)
	t.Sigma["a"] = ctype.LabelTarget("x")
	t.Cond["a"] = cond.EqInt(1)
	t.Sigma["b"] = ctype.LabelTarget("x")
	t.Cond["b"] = cond.EqInt(2)
	cnf := conj.CNF{ctype.Disj{ctype.SAtom{{Sym: "c", Mult: dtd.One}}}}
	for i := 0; i < k; i++ {
		cnf = append(cnf, ctype.Disj{
			ctype.SAtom{{Sym: "a", Mult: dtd.One}},
			ctype.SAtom{{Sym: "b", Mult: dtd.One}},
		})
	}
	t.Mu["r"] = cnf
	t.Roots = []conj.RootChoice{{"r"}}
	return t
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// pctF returns the p-th percentile of the sorted float sample.
func pctF(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)-1)*p + 50
	return sorted[i/100]
}

// pctMs returns the p-th percentile of the sorted sample in milliseconds.
func pctMs(sorted []time.Duration, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)-1)*p + 50
	return float64(sorted[i/100]) / float64(time.Millisecond)
}
