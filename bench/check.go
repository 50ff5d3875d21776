package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"sync"

	"incxml/internal/extquery"
	"incxml/internal/query"
	"incxml/internal/reductions"
	"incxml/internal/tree"
	"incxml/internal/workload"
	"incxml/internal/xmlio"
)

// checker collects the distinct answers of the checked routes while the
// clients run, so the oracles run once per distinct answer and after the
// timed window instead of inside it. It holds a copy of every distinct
// body, so it must be drained before the live heap is read.
type checker struct {
	seed maphash.Seed
	mu   sync.Mutex
	seen map[uint64]*answerSeen
}

type answerSeen struct {
	req  *request
	body []byte
	n    int
}

func newChecker() *checker {
	return &checker{seed: maphash.MakeSeed(), seen: map[uint64]*answerSeen{}}
}

// observe records a 2xx answer of a checked route.
func (c *checker) observe(req *request, body []byte) {
	switch req.route {
	case "complete", "ext_query", "ext_reduction":
	default:
		return
	}
	var h maphash.Hash
	h.SetSeed(c.seed)
	h.WriteString(req.path)
	h.Write(req.body)
	h.Write(body)
	key := h.Sum64()
	c.mu.Lock()
	defer c.mu.Unlock()
	if a, ok := c.seen[key]; ok {
		a.n++
		return
	}
	c.seen[key] = &answerSeen{req: req, body: bytes.Clone(body), n: 1}
}

// checkReport counts answers re-checked against the oracles, per route, and
// the mismatches among them; every count of answers includes repeats.
type checkReport struct {
	Checked    map[string]int `json:"checked"`
	Mismatches map[string]int `json:"mismatches"`
	// Notes describes up to a few mismatches.
	Notes []string `json:"notes,omitempty"`
}

func (r *checkReport) add(route string, n int, mismatch bool, note string) {
	r.Checked[route] += n
	if mismatch {
		r.Mismatches[route] += n
		if len(r.Notes) < 5 {
			r.Notes = append(r.Notes, note)
		}
	}
}

func (r *checkReport) total() int {
	t := 0
	for _, n := range r.Mismatches {
		t += n
	}
	return t
}

// retained is the number of distinct answers held for checking.
func (c *checker) retained() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.seen)
}

// drain runs the oracles over every distinct answer seen so far and then
// releases them, so the harness holds no response body afterwards:
//   - a definite /ext/query verdict must be in a tractable class, and an
//     exact one must report the oracle answer's node count;
//   - a definite /ext/reduction decision must equal the brute-force one;
//   - a non-degraded /complete answer must equal q.Eval(world).
func (c *checker) drain(report *checkReport) {
	docs := worlds()
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := c.seen
	c.seen = map[uint64]*answerSeen{}
	for _, a := range seen {
		var env struct {
			Degraded bool `json:"degraded"`
			Answer   *struct {
				Nodes int    `json:"nodes"`
				XML   string `json:"xml"`
			} `json:"answer"`
			Extension *struct {
				Class    string `json:"class"`
				ExactV   string `json:"exactV"`
				Decision string `json:"decision"`
			} `json:"extension"`
		}
		if err := json.Unmarshal(a.body, &env); err != nil {
			report.add(a.req.route, a.n, true, fmt.Sprintf("%s: undecodable envelope: %v", a.req.path, err))
			continue
		}
		switch a.req.route {
		case "ext_query":
			if env.Extension == nil || env.Answer == nil {
				report.add(a.req.route, a.n, true, "ext_query: envelope without extension or answer")
				continue
			}
			bad := false
			if !extquery.Class(env.Extension.Class).Tractable() && env.Extension.ExactV != "unknown" {
				bad = true
			}
			if env.Extension.ExactV == "yes" {
				want := a.req.op.Ext.Answer(docs[a.req.source]).Size()
				bad = bad || env.Answer.Nodes != want
			}
			report.add(a.req.route, a.n, bad, fmt.Sprintf("ext_query on %s: class %s exactV %s nodes %d",
				a.req.source, env.Extension.Class, env.Extension.ExactV, env.Answer.Nodes))
		case "ext_reduction":
			if env.Extension == nil {
				report.add(a.req.route, a.n, true, "ext_reduction: envelope without extension")
				continue
			}
			d := env.Extension.Decision
			bad := d != "unknown" && d != reductionOracle(a.req.op.Red)
			report.add(a.req.route, a.n, bad, fmt.Sprintf("ext_reduction %s: decision %s", a.req.body, d))
		case "complete":
			if env.Degraded {
				continue
			}
			if env.Answer == nil {
				report.add(a.req.route, a.n, true, "complete: envelope without answer")
				continue
			}
			want, err := evalXML(a.req.op.Query, docs[a.req.source])
			bad := err != nil || env.Answer.XML != want
			report.add(a.req.route, a.n, bad, fmt.Sprintf("complete on %s: answer differs from q.Eval(world) (%v)",
				a.req.source, err))
		}
	}
}

// evalXML renders the oracle answer of a ps-query on a world document.
func evalXML(text string, world tree.Tree) (string, error) {
	q, err := query.Parse(text)
	if err != nil {
		return "", err
	}
	return xmlio.Marshal(q.Eval(world))
}

// reductionOracle decides a reduction probe with the brute-force deciders.
func reductionOracle(spec *workload.ReductionSpec) string {
	lits := func(cl []int) []reductions.Lit {
		out := make([]reductions.Lit, len(cl))
		for i, v := range cl {
			if v < 0 {
				out[i] = reductions.Lit{Var: -v, Neg: true}
			} else {
				out[i] = reductions.Lit{Var: v}
			}
		}
		return out
	}
	yes := false
	switch spec.Kind {
	case "3sat":
		f := reductions.Formula{NumVars: spec.NumVars}
		for _, cl := range spec.Clauses {
			f.Clauses = append(f.Clauses, reductions.Clause(lits(cl)))
		}
		yes = f.Satisfiable()
	case "dnf":
		d := reductions.DNF{NumVars: spec.NumVars}
		for _, cl := range spec.Clauses {
			l := lits(cl)
			d.Disjuncts = append(d.Disjuncts, reductions.Disjunct{l[0], l[1], l[2]})
		}
		yes = d.Valid()
	default:
		return "unsupported kind " + spec.Kind
	}
	if yes {
		return "yes"
	}
	return "no"
}
