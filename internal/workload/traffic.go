package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"incxml/internal/cond"
	"incxml/internal/extquery"
	"incxml/internal/pathre"
	"incxml/internal/query"
	"incxml/internal/tree"
)

// QueryClass identifies one arrival class in the mixed traffic stream.
// The classes mirror the serving surface: plain catalog acquisition, the
// Example 3.2 blow-up chains, and the three Section 4 extension fragments
// the extension routes serve.
type QueryClass string

const (
	// TrafficCatalog: explore → refine → complete acquisition sessions
	// over a catalog-schema source (ps-queries only).
	TrafficCatalog QueryClass = "catalog"
	// TrafficBlowup: Example 3.2 refinement chains against the blowup
	// source, the Theorem 3.6 exponential core.
	TrafficBlowup QueryClass = "blowup"
	// TrafficPathRE: recursive path-expression queries (tractable,
	// certifiable via a whole-document cover).
	TrafficPathRE QueryClass = "pathre"
	// TrafficJoin: data-value joins through shared variables; exactness is
	// undecidable (Theorems 4.5/4.6), so served verdicts stay unknown.
	// Join sessions also fire a 3-SAT reduction probe (Theorem 3.6).
	TrafficJoin QueryClass = "join"
	// TrafficNegation: negated subtrees; co-NP-hard and beyond
	// (Theorems 4.1/4.7), served verdicts stay unknown. Negation sessions
	// also fire a DNF-validity reduction probe (Theorem 4.1).
	TrafficNegation QueryClass = "negation"
)

// TrafficClasses lists the query classes in canonical order.
func TrafficClasses() []QueryClass {
	return []QueryClass{TrafficCatalog, TrafficBlowup, TrafficPathRE, TrafficJoin, TrafficNegation}
}

// Mix is a weighted query-class mix: weight per class, zero or absent
// classes never arrive.
type Mix map[QueryClass]int

// DefaultMix is the mix used when none is configured: mostly plain
// acquisition, with the expensive classes in the minority, as a webhouse
// front door would see.
func DefaultMix() Mix {
	return Mix{TrafficCatalog: 4, TrafficBlowup: 2, TrafficPathRE: 2, TrafficJoin: 1, TrafficNegation: 1}
}

func (m Mix) total() int {
	t := 0
	for _, w := range m {
		t += w
	}
	return t
}

// validate rejects weights GenerateTraffic cannot draw from: an unknown
// class, a negative weight, or a non-empty mix with no positive weight.
// An empty mix is valid and means DefaultMix.
func (m Mix) validate() error {
	known := map[QueryClass]bool{}
	for _, c := range TrafficClasses() {
		known[c] = true
	}
	for c, w := range m {
		if !known[c] {
			return fmt.Errorf("workload: unknown query class %q", c)
		}
		if w < 0 {
			return fmt.Errorf("workload: negative weight %d for class %q", w, c)
		}
	}
	if len(m) > 0 && m.total() == 0 {
		return fmt.Errorf("workload: mix has no positive weight")
	}
	return nil
}

// pick draws a class with probability proportional to its weight.
func (m Mix) pick(rng *rand.Rand) QueryClass {
	n := rng.Intn(m.total())
	for _, c := range TrafficClasses() {
		if n < m[c] {
			return c
		}
		n -= m[c]
	}
	return TrafficCatalog // unreachable: total() > 0
}

// OpKind is the serving operation an Op maps to.
type OpKind string

const (
	OpExplore   OpKind = "explore"   // POST /explore
	OpLocal     OpKind = "local"     // POST /local
	OpComplete  OpKind = "complete"  // POST /complete
	OpExtended  OpKind = "extended"  // POST /ext/query
	OpReduction OpKind = "reduction" // POST /ext/reduction
)

// ReductionSpec describes a decision-procedure probe for the reduction
// route: 3-SAT satisfiability or 3-DNF validity, clauses as signed
// 1-based literals (the wire shape of serve.ReductionRequest).
type ReductionSpec struct {
	Kind    string  `json:"kind"`
	NumVars int     `json:"numVars"`
	Clauses [][]int `json:"clauses"`
}

// Op is one generated request. Query carries the ps-query text for the
// classic routes; Ext carries the extended pattern for /ext/query (its
// textual rendering is kept in ExtText for traces — replay regenerates
// the structured form from the trace's recorded config and seed); Red
// carries the reduction probe for /ext/reduction.
type Op struct {
	Session int             `json:"session"`
	Step    int             `json:"step"`
	Kind    OpKind          `json:"kind"`
	Class   QueryClass      `json:"class"`
	Source  string          `json:"source"`
	Query   string          `json:"query,omitempty"`
	Ext     *extquery.Query `json:"-"`
	ExtText string          `json:"ext,omitempty"`
	Red     *ReductionSpec  `json:"reduction,omitempty"`
	Desc    string          `json:"desc,omitempty"`
}

// TrafficConfig parameterizes GenerateTraffic. The zero value is not
// usable directly; withDefaults fills the gaps, and GenerateTraffic
// applies it.
type TrafficConfig struct {
	// Seed drives all randomness; equal configs generate identical
	// streams (replayable-by-seed).
	Seed int64 `json:"seed"`
	// Sessions is the number of client sessions to generate.
	Sessions int `json:"sessions"`
	// Sources are the catalog-schema source names in popularity-rank
	// order: index 0 is the most popular under the zipfian draw. Blowup
	// sessions always target the "blowup" source instead.
	Sources []string `json:"sources"`
	// ZipfS is the zipfian exponent over Sources; must exceed 1
	// (default 1.3). Larger values skew harder toward the head.
	ZipfS float64 `json:"zipfS"`
	// Mix weights the query classes (default DefaultMix).
	Mix Mix `json:"mix"`
	// TwigEvery makes every k-th catalog session a twig-from-examples
	// acquisition (0 = default 3, negative = never).
	TwigEvery int `json:"twigEvery"`
}

func (cfg TrafficConfig) withDefaults() TrafficConfig {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 16
	}
	if len(cfg.Sources) == 0 {
		cfg.Sources = []string{"catalog"}
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.3
	}
	if len(cfg.Mix) == 0 {
		cfg.Mix = DefaultMix()
	}
	if cfg.TwigEvery == 0 {
		cfg.TwigEvery = 3
	}
	return cfg
}

// GenerateTraffic produces a deterministic, session-shaped request
// stream: sessions arrive with class drawn from the mix, target a source
// drawn zipfian by popularity rank, and unfold into the class's session
// shape (explore → refine → complete for catalog acquisition, refinement
// chains for blowup, explore-then-extended-probe for the Section 4
// classes, plus the twig-from-examples acquisition shape). Equal configs
// generate equal streams. A mix with an unknown class, a negative weight
// or no positive weight is an error: a replayed trace header is outside
// input.
func GenerateTraffic(cfg TrafficConfig) ([]Op, error) {
	if err := cfg.Mix.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(cfg.Sources)-1))
	if zipf == nil {
		return nil, fmt.Errorf("workload: bad zipf exponent %v", cfg.ZipfS)
	}
	var ops []Op
	catalogSessions := 0
	for s := 0; s < cfg.Sessions; s++ {
		class := cfg.Mix.pick(rng)
		source := cfg.Sources[zipf.Uint64()]
		var session []Op
		switch class {
		case TrafficCatalog:
			catalogSessions++
			if cfg.TwigEvery > 0 && catalogSessions%cfg.TwigEvery == 0 {
				var err error
				session, err = twigSession(rng, source)
				if err != nil {
					return nil, err
				}
			} else {
				session = catalogSession(rng, source)
			}
		case TrafficBlowup:
			session = blowupSession(rng)
		case TrafficPathRE:
			session = extensionSession(source, TrafficPathRE, pathreTraffic(rng), nil)
		case TrafficJoin:
			session = extensionSession(source, TrafficJoin, joinTraffic(rng), satProbe(rng))
		case TrafficNegation:
			session = extensionSession(source, TrafficNegation, negationTraffic(rng), dnfProbe(rng))
		}
		for i := range session {
			session[i].Session = s
			session[i].Step = i
		}
		ops = append(ops, session...)
	}
	return ops, nil
}

// catalogSession is the classic acquisition shape: a broad explore, a
// refining explore with a price bound, the local answer under the refined
// query, and a completion of the broad one.
func catalogSession(rng *rand.Rand, source string) []Op {
	bound := int64(100 + rng.Intn(200))
	broad, refined := Query4(), Query1(bound)
	return []Op{
		{Kind: OpExplore, Class: TrafficCatalog, Source: source, Query: broad.String(),
			Desc: "explore: all cameras (Figure 5)"},
		{Kind: OpExplore, Class: TrafficCatalog, Source: source, Query: refined.String(),
			Desc: fmt.Sprintf("refine: price below %d (Figure 2)", bound)},
		{Kind: OpLocal, Class: TrafficCatalog, Source: source, Query: refined.String(),
			Desc: "local answer under the refined query"},
		{Kind: OpComplete, Class: TrafficCatalog, Source: source, Query: broad.String(),
			Desc: "complete the broad query (Theorem 3.19)"},
	}
}

// twigSession is the twig-from-examples acquisition shape: explore the
// product subtrees, infer the anti-unification twig from a handful of
// example products, then pose the inferred query locally.
func twigSession(rng *rand.Rand, source string) ([]Op, error) {
	products := PaperCatalog().Root.Children
	k := 2 + rng.Intn(len(products)-1)
	picked := rng.Perm(len(products))[:k]
	sort.Ints(picked)
	examples := make([]*tree.Node, len(picked))
	for i, idx := range picked {
		examples[i] = products[idx]
	}
	inferred, err := InferTwig(examples)
	if err != nil {
		return nil, err
	}
	// Served queries root at the document root, so pose the product twig
	// under a catalog wrapper.
	posed := query.Query{Root: query.N("catalog", cond.True(), inferred.Root)}
	return []Op{
		{Kind: OpExplore, Class: TrafficCatalog, Source: source, Query: "catalog\n  product!\n",
			Desc: "twig acquisition: explore example products"},
		{Kind: OpLocal, Class: TrafficCatalog, Source: source, Query: posed.String(),
			Desc: fmt.Sprintf("twig inferred from %d examples (Staworko–Wieczorek)", k)},
	}, nil
}

// blowupSession chains Example 3.2 refinements: each explore doubles the
// number of incomparable completions (Theorem 3.6's exponential core).
func blowupSession(rng *rand.Rand) []Op {
	k := 2 + rng.Intn(3)
	ops := make([]Op, 0, k+1)
	for i := 1; i <= k; i++ {
		ops = append(ops, Op{Kind: OpExplore, Class: TrafficBlowup, Source: "blowup",
			Query: BlowupQuery(int64(i)).String(),
			Desc:  fmt.Sprintf("blowup refinement %d/%d (Example 3.2)", i, k)})
	}
	ops = append(ops, Op{Kind: OpLocal, Class: TrafficBlowup, Source: "blowup",
		Query: BlowupQuery(1).String(), Desc: "local answer after the chain"})
	return ops
}

// extensionSession warms the source with a whole-document explore, poses
// the extended query, and optionally fires a reduction probe.
func extensionSession(source string, class QueryClass, ext *extquery.Query, red *ReductionSpec) []Op {
	ops := []Op{
		{Kind: OpExplore, Class: class, Source: source, Query: "catalog!\n",
			Desc: "warm: acquire the document before the extension probe"},
		{Kind: OpExtended, Class: class, Source: source, Ext: ext, ExtText: ext.String(),
			Desc: fmt.Sprintf("extended query, class %s", class)},
	}
	if red != nil {
		ops = append(ops, Op{Kind: OpReduction, Class: class, Source: source, Red: red,
			Desc: fmt.Sprintf("%s reduction probe", red.Kind)})
	}
	return ops
}

// pathreTraffic draws a recursive path-expression query over the catalog
// schema.
func pathreTraffic(rng *rand.Rand) *extquery.Query {
	var re *pathre.Regex
	if rng.Intn(2) == 0 {
		re = pathre.MustParse("product cat subcat")
	} else {
		re = pathre.MustParse("product . subcat")
	}
	return &extquery.Query{Root: extquery.N("catalog", cond.True(),
		extquery.OnPath(extquery.N("subcat", cond.True()), re))}
}

// joinTraffic draws a data join: two products whose category values must
// coincide through a shared variable.
func joinTraffic(rng *rand.Rand) *extquery.Query {
	q := &extquery.Query{Root: extquery.N("catalog", cond.True(),
		extquery.N("product", cond.True(), extquery.V("cat", "x")),
		extquery.N("product", cond.True(), extquery.V("cat", "x")))}
	if rng.Intn(2) == 0 {
		q.Root.Children[0].Children = append(q.Root.Children[0].Children,
			extquery.N("name", cond.True()))
	}
	return q
}

// negationTraffic draws a negated-subtree query: products with no price
// below a random bound.
func negationTraffic(rng *rand.Rand) *extquery.Query {
	bound := int64(80 + rng.Intn(150))
	return &extquery.Query{Root: extquery.N("catalog", cond.True(),
		extquery.N("product", cond.True(),
			extquery.Negated(extquery.N("price", cond.LtInt(bound)))))}
}

// satProbe draws a random 3-SAT instance within the served variable cap.
func satProbe(rng *rand.Rand) *ReductionSpec {
	nv := 3 + rng.Intn(6)
	nc := 3 + rng.Intn(5)
	clauses := make([][]int, nc)
	for i := range clauses {
		width := 1 + rng.Intn(3)
		cl := make([]int, width)
		for j := range cl {
			lit := 1 + rng.Intn(nv)
			if rng.Intn(2) == 0 {
				lit = -lit
			}
			cl[j] = lit
		}
		clauses[i] = cl
	}
	return &ReductionSpec{Kind: "3sat", NumVars: nv, Clauses: clauses}
}

// dnfProbe draws a random 3-DNF validity instance (disjuncts of exactly
// three literals, as Theorem 4.1 requires).
func dnfProbe(rng *rand.Rand) *ReductionSpec {
	nv := 3 + rng.Intn(6)
	nd := 2 + rng.Intn(5)
	disjuncts := make([][]int, nd)
	for i := range disjuncts {
		d := make([]int, 3)
		for j := range d {
			lit := 1 + rng.Intn(nv)
			if rng.Intn(2) == 0 {
				lit = -lit
			}
			d[j] = lit
		}
		disjuncts[i] = d
	}
	return &ReductionSpec{Kind: "dnf", NumVars: nv, Clauses: disjuncts}
}

// traceHeader is the first JSONL line of a trace: the generating config,
// which is all replay needs (the op lines are for inspection and textual
// replay).
type traceHeader struct {
	Config TrafficConfig `json:"config"`
	Ops    int           `json:"ops"`
}

// WriteTrace writes a replayable trace: a header line holding the config,
// then one JSON op per line. Regenerating from the recorded config yields
// the identical stream, including the structured extended queries the op
// lines only describe textually.
func WriteTrace(w io.Writer, cfg TrafficConfig, ops []Op) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(traceHeader{Config: cfg.withDefaults(), Ops: len(ops)}); err != nil {
		return err
	}
	for _, op := range ops {
		if err := enc.Encode(op); err != nil {
			return err
		}
	}
	return nil
}

// ReadTrace reads a trace written by WriteTrace, returning the recorded
// config and ops. Op.Ext is not reconstructed from the text — replay by
// regenerating: GenerateTraffic(cfg) equals the recorded stream.
func ReadTrace(r io.Reader) (TrafficConfig, []Op, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		return TrafficConfig{}, nil, fmt.Errorf("workload: empty trace")
	}
	var hdr traceHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return TrafficConfig{}, nil, fmt.Errorf("workload: bad trace header: %w", err)
	}
	var ops []Op
	for sc.Scan() {
		if len(strings.TrimSpace(string(sc.Bytes()))) == 0 {
			continue
		}
		var op Op
		if err := json.Unmarshal(sc.Bytes(), &op); err != nil {
			return TrafficConfig{}, nil, fmt.Errorf("workload: bad trace op %d: %w", len(ops), err)
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return TrafficConfig{}, nil, err
	}
	if len(ops) != hdr.Ops {
		return TrafficConfig{}, nil, fmt.Errorf("workload: trace header promises %d ops, found %d", hdr.Ops, len(ops))
	}
	return hdr.Config, ops, nil
}
