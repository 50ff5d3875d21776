// Command webhouse runs the paper's Webhouse in one of two modes.
//
// With no arguments it replays a scripted session over the paper's catalog
// example: it registers a simulated source, explores it with the running
// example's queries, answers further queries locally where possible, and
// completes the rest via mediator-generated local queries — reproducing
// the narrative of Sections 1 and 3.4.
//
// `webhouse serve` starts an HTTP server over the catalog source plus the
// Example 3.2 "blowup" source, with per-request timeouts, admission
// control (-max-inflight/-queue), per-request solver step budgets
// (-budget) and, optionally, injected source faults — a demonstration of
// the serving layer's failure model: when the source is slow or down,
// completions degrade to the approximate local answer (Theorem 3.14), and
// when a request's budget runs out the solvers degrade to flagged sound
// approximations (Proposition 3.13) instead of running hot. See
// internal/serve and README.md for the endpoints.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"incxml/internal/faulty"
	"incxml/internal/serve"
	"incxml/internal/webhouse"
	"incxml/internal/workload"
	"incxml/internal/xmlio"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "webhouse:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "webhouse:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	ctx := context.Background()
	src, err := webhouse.NewSource("catalog", workload.CatalogType(), workload.PaperCatalog())
	if err != nil {
		return err
	}
	wh := webhouse.New()
	wh.Register(src)
	fmt.Fprintln(w, "== registered source 'catalog' (4 products; contents hidden from the webhouse)")

	fmt.Fprintln(w, "\n== exploring: Query 1 (elec products under $200)")
	a1, err := wh.Explore(ctx, "catalog", workload.Query1(200))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "   answer: %d nodes\n", a1.Answer.Size())

	fmt.Fprintln(w, "== exploring: Query 2 (pictured cameras, pictures extracted)")
	a2, err := wh.Explore(ctx, "catalog", workload.Query2())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "   answer: %d nodes\n", a2.Answer.Size())

	know, err := wh.Knowledge("catalog")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n== current knowledge: representation size %d, data tree %d nodes\n",
		know.Size(), know.DataTree().Size())

	fmt.Fprintln(w, "\n== asking locally: Query 3 (cheap pictured cameras)")
	la, err := wh.AnswerLocally(ctx, "catalog", workload.Query3(100))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "   fully answerable: %v (Example 3.4)\n", la.Fully)
	fmt.Fprintf(w, "   exact local answer: %d nodes\n", la.Exact.Size())

	fmt.Fprintln(w, "\n== asking locally: Query 4 (all cameras)")
	la4, err := wh.AnswerLocally(ctx, "catalog", workload.Query4())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "   fully answerable: %v; certainly nonempty: %v\n", la4.Fully, la4.CertainlyNonEmpty)
	fmt.Fprintf(w, "   known cameras now: %d answer nodes; unseen expensive/pictureless cameras may exist\n",
		la4.Exact.Size())

	fmt.Fprintln(w, "\n== completing Query 4 against the source (Theorem 3.19)")
	ca, err := wh.AnswerComplete(ctx, "catalog", workload.Query4())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "   %d local queries executed; exact answer: %d nodes\n", ca.LocalQueries, ca.Answer.Size())
	served, _ := src.Served()
	fmt.Fprintf(w, "   source served %d queries in total\n", served)

	fmt.Fprintln(w, "\n== final incomplete tree (browsable XML):")
	know, err = wh.Knowledge("catalog")
	if err != nil {
		return err
	}
	return xmlio.WriteIncomplete(w, know)
}

// server adapts the serve.Server to the command: it keeps a handle on the
// catalog fault injector so the scripted fault scenarios (and tests) can
// toggle outages directly.
type server struct {
	*serve.Server
	inj *faulty.Injector
}

// newServer builds a serve.Server with default admission limits; the full
// flag set goes through runServe.
func newServer(timeout time.Duration, failRate float64, latency time.Duration, seed int64) (*server, error) {
	s, err := serve.New(serve.Config{
		Timeout: timeout, FailRate: failRate, Latency: latency, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return &server{Server: s, inj: s.Injector("catalog")}, nil
}

func (s *server) handler() http.Handler { return s.Handler() }

// runServe serves until a shutdown signal (SIGTERM/SIGINT) arrives, then
// drains gracefully: new answer requests shed with 503, inflight requests
// finish, a durable server flushes its final snapshots, and the process
// exits 0.
func runServe(args []string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveUntil(ctx, args, os.Stdout)
}

// serveUntil is runServe with the lifetime and output injectable: serving
// ends when ctx is cancelled (the signal path in production, the test
// harness otherwise), and every banner goes to out.
func serveUntil(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	timeout := fs.Duration("timeout", 2*time.Second, "per-request deadline (includes queue wait)")
	failRate := fs.Float64("fail-rate", 0, "injected transient source-failure probability in [0,1]")
	latency := fs.Duration("latency", 0, "injected per-call source latency")
	seed := fs.Int64("seed", 1, "fault-injection RNG seed")
	maxInflight := fs.Int("max-inflight", serve.DefaultMaxInflight, "max concurrently executing requests")
	queue := fs.Int("queue", serve.DefaultQueue, "max requests waiting for an execution slot")
	budgetSteps := fs.Int64("budget", 0, "per-request solver step budget (0 = unlimited; deadline still applies)")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof/* on the serving mux")
	traceOn := fs.Bool("trace", false, "attach a per-request span trace, echoed in the X-Trace response header")
	shards := fs.Int("shards", 1, "shard groups the source fleet is spread over (scatter routes fan out per shard)")
	extraSources := fs.Int("extra-sources", 0, "additional random catalog sources (cat00...) beyond catalog+blowup")
	dataDir := fs.String("data-dir", "", "persist snapshots + WAL per shard under this directory and warm-start from it (empty = in-memory)")
	snapEvery := fs.Int("snap-every", 0, "snapshot cadence in WAL appends (0 = store default, negative = only on drain)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := serve.New(serve.Config{
		Timeout: *timeout, MaxInflight: *maxInflight, Queue: *queue, Budget: *budgetSteps,
		FailRate: *failRate, Latency: *latency, Seed: *seed,
		Pprof: *pprofOn, Trace: *traceOn,
		Shards: *shards, ExtraSources: *extraSources,
		DataDir: *dataDir, SnapEvery: *snapEvery,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "webhouse: serving %d sources over %d shard(s) on %s (timeout %v, inflight %d, queue %d, budget %d, fail-rate %g, latency %v, pprof %v, trace %v)\n",
		len(s.Cluster().Sources()), s.Cluster().Shards(), ln.Addr(), *timeout, *maxInflight, *queue, *budgetSteps, *failRate, *latency, *pprofOn, *traceOn)
	if rec := s.Recovery(); rec != nil {
		fmt.Fprintf(out, "webhouse: warm start from %s: %d snapshots loaded, %d events replayed, %d corrupt records dropped, %d snapshot fallbacks\n",
			*dataDir, rec.SnapshotsLoaded, rec.ReplayedEvents, rec.CorruptRecordsDropped, rec.SnapshotFallbacks)
		if len(rec.Quarantined) > 0 {
			fmt.Fprintf(out, "webhouse: QUARANTINED sources (serving degraded from pristine knowledge; files set aside): %v\n", rec.Quarantined)
		}
	}
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "webhouse: shutdown signal received; draining")
	dctx, cancel := context.WithTimeout(context.Background(), *timeout+10*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		fmt.Fprintln(out, "webhouse: drain:", err)
	}
	if err := srv.Shutdown(dctx); err != nil {
		return err
	}
	fmt.Fprintln(out, "webhouse: drained cleanly")
	return nil
}
