package main

import (
	"fmt"
	"math/rand"
	"time"

	"incxml/internal/cond"
	"incxml/internal/extquery"
	"incxml/internal/pathre"
	"incxml/internal/serve"
	"incxml/internal/tree"
	"incxml/internal/workload"
)

// The server every workload runs against: production defaults with the two
// demonstration sources and four random catalogs (cat00–cat03).
const (
	serveSeed    = 7
	extraSources = 4
)

// catalogSources are the catalog-schema sources in zipf popularity order.
var catalogSources = []string{"catalog", "cat00", "cat01", "cat02", "cat03"}

// request is one HTTP operation of a workload, prepared before it is timed.
type request struct {
	// route is the server's route label ("explore", "local", "complete",
	// "ext_query", "ext_reduction", "scatter_local").
	route  string
	path   string
	body   []byte
	ctype  string
	source string
	// op is the generated operation behind the request; the oracle checks
	// read its query, extended pattern or reduction spec.
	op *workload.Op
}

// session is an ordered run of requests one client issues back to back.
type session []*request

// spec is one benchmark workload: the server configuration it runs
// against, the state the set-up acquires, the untimed warm-up op count,
// and its seeded request stream.
type spec struct {
	name     string
	why      string
	warmup   int
	durable  bool
	latency  time.Duration
	failRate float64
	// setup is acquired, in order, as part of set-up time.
	setup []*request
	// stream returns the request stream for a seed: each call yields the
	// next session.
	stream func(seed int64) func() session
}

// serveConfig is the server configuration of the workload; dataDir makes
// it durable.
func (w *spec) serveConfig(dataDir string, trace bool) serve.Config {
	return serve.Config{
		Timeout:      2 * time.Second,
		MaxInflight:  32,
		Queue:        64,
		Budget:       0,
		Seed:         serveSeed,
		ExtraSources: extraSources,
		Latency:      w.latency,
		FailRate:     w.failRate,
		DataDir:      dataDir,
		Trace:        trace,
	}
}

var workloads = []*spec{
	{
		name: "mixed",
		why: "The front-door stream: blowup chains and uncached local answers use most of the CPU, " +
			"and every classic and extension route is exercised.",
		warmup: 1500,
		stream: func(seed int64) func() session { return trafficStream(seed, workload.DefaultMix()) },
	},
	{
		name: "acquire",
		why: "The write path: source calls with retries and backoff, the fold under the repository lock, " +
			"the WAL append and periodic snapshots.",
		warmup:  1000,
		durable: true, latency: time.Millisecond, failRate: 0.05,
		stream: func(seed int64) func() session {
			return trafficStream(seed, workload.Mix{workload.TrafficCatalog: 1})
		},
	},
	{
		name: "hot-read",
		why: "Cached reads over fully acquired sources: decode, cache lookup, certificate, envelope " +
			"encoding and the scatter merge, with a write every 100 ops invalidating one source.",
		warmup:  3000,
		durable: true,
		setup:   wholeAcquisition(),
		stream:  hotReadStream,
	},
}

func workloadByName(name string) (*spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have mixed, acquire, hot-read)", name)
}

// newRequest maps a generated op onto its HTTP request.
func newRequest(op *workload.Op) *request {
	path, body, err := serve.RequestForOp(*op)
	if err != nil {
		// Every op the generators below produce has a wire form.
		panic(err)
	}
	r := &request{path: path, body: []byte(body), ctype: "text/plain", source: op.Source, op: op}
	switch op.Kind {
	case workload.OpExtended:
		r.route, r.ctype = "ext_query", "application/json"
	case workload.OpReduction:
		r.route, r.ctype = "ext_reduction", "application/json"
	default:
		r.route = string(op.Kind)
	}
	return r
}

// trafficStream serves the sessions of workload.GenerateTraffic over the
// catalog sources, generated in chunks so a timed run never runs dry.
// Chunk seeds derive from the workload seed, so a seed fixes the stream.
func trafficStream(seed int64, mix workload.Mix) func() session {
	const chunkSessions = 256
	chunk := int64(0)
	var pending []session
	return func() session {
		if len(pending) == 0 {
			ops, err := workload.GenerateTraffic(workload.TrafficConfig{
				Seed:     seed + chunk<<32,
				Sessions: chunkSessions,
				Sources:  catalogSources,
				ZipfS:    1.3,
				Mix:      mix,
			})
			if err != nil {
				panic(err) // the config above is valid
			}
			chunk++
			for i := range ops {
				r := newRequest(&ops[i])
				if i == 0 || ops[i].Session != ops[i-1].Session {
					pending = append(pending, nil)
				}
				pending[len(pending)-1] = append(pending[len(pending)-1], r)
			}
		}
		s := pending[0]
		pending = pending[1:]
		return s
	}
}

// wholeAcquisition explores every catalog source with the whole-document
// query, so every later catalog query is fully answerable locally.
func wholeAcquisition() []*request {
	out := make([]*request, len(catalogSources))
	for i, src := range catalogSources {
		out[i] = newRequest(&workload.Op{Kind: workload.OpExplore, Source: src, Query: "catalog!\n"})
	}
	return out
}

// hotReadStream issues single-op sessions over about 200 distinct keys:
// every 100th op explores Query4 on a zipf-chosen source (a write that
// invalidates that source's answer cache); of the rest, drawn from the
// seed, 50% are /local
// Query1(b), 20% /complete Query4, 20% /ext/query path-RE probes and 10%
// /scatter/local Query1(b), with b in [100, 131].
func hotReadStream(seed int64) func() session {
	const bounds = 32
	type perSource struct {
		explore, complete *request
		local             [bounds]*request
		ext               [2]*request
	}
	table := map[string]*perSource{}
	for _, src := range catalogSources {
		ps := &perSource{
			explore:  newRequest(&workload.Op{Kind: workload.OpExplore, Source: src, Query: workload.Query4().String()}),
			complete: newRequest(&workload.Op{Kind: workload.OpComplete, Source: src, Query: workload.Query4().String()}),
		}
		for b := range ps.local {
			ps.local[b] = newRequest(&workload.Op{Kind: workload.OpLocal, Source: src,
				Query: workload.Query1(int64(100 + b)).String()})
		}
		for i, re := range []string{"product cat subcat", "product . subcat"} {
			ext := &extquery.Query{Root: extquery.N("catalog", cond.True(),
				extquery.OnPath(extquery.N("subcat", cond.True()), pathre.MustParse(re)))}
			ps.ext[i] = newRequest(&workload.Op{Kind: workload.OpExtended, Source: src, Ext: ext})
		}
		table[src] = ps
	}
	var scatter [bounds]*request
	for b := range scatter {
		q := workload.Query1(int64(100 + b)).String()
		scatter[b] = &request{route: "scatter_local", path: "/scatter/local", body: []byte(q), ctype: "text/plain"}
	}

	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(catalogSources)-1))
	// The live heap after the warm-up depends on which sources the writes
	// hit: with the writes drawn from the seed it ranged over 1.33–1.66 MB
	// across seeds 1–10, with one schedule for every seed over 1.61–1.65 MB
	// across seeds 1–8. So the writes follow one zipf schedule, and the seed
	// drives the reads.
	writes := rand.NewZipf(rand.New(rand.NewSource(1)), 1.3, 1, uint64(len(catalogSources)-1))
	n := 0
	return func() session {
		n++
		if n%100 == 0 {
			return session{table[catalogSources[writes.Uint64()]].explore}
		}
		ps := table[catalogSources[zipf.Uint64()]]
		switch p := rng.Intn(10); {
		case p < 5:
			return session{ps.local[rng.Intn(bounds)]}
		case p < 7:
			return session{ps.complete}
		case p < 9:
			return session{ps.ext[rng.Intn(2)]}
		default:
			return session{scatter[rng.Intn(bounds)]}
		}
	}
}

// worlds mirrors serve.New's fleet: the documents the oracle checks
// evaluate against.
func worlds() map[string]tree.Tree {
	out := map[string]tree.Tree{
		"catalog": workload.PaperCatalog(),
		"blowup":  workload.BlowupWorld(),
	}
	for i := 0; i < extraSources; i++ {
		out[fmt.Sprintf("cat%02d", i)] = workload.RandomCatalog(4+i%5, serveSeed+int64(1000+i))
	}
	return out
}

// topUpRequest is the i-th explore of the recovery probe's WAL top-up: a
// fixed rotation of price-bounded refinements over the catalog sources.
func topUpRequest(i int) *request {
	return newRequest(&workload.Op{Kind: workload.OpExplore, Source: catalogSources[i%len(catalogSources)],
		Query: workload.Query1(int64(100 + 7*(i%29))).String()})
}
