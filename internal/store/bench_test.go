package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"incxml/internal/webhouse"
	"incxml/internal/workload"
)

// The E24 durability benchmarks (EXPERIMENTS.md) answer three questions:
// what journaling costs on the explore path, how snapshot size scales with
// the repository, and how cold recovery time scales with WAL length. Every
// store runs with the snapshot cadence disabled, so recovery is pure replay.

// e24House builds a one-source webhouse over a random catalog.
func e24House(tb testing.TB, products int, seed int64) *webhouse.Webhouse {
	tb.Helper()
	src, err := webhouse.NewSource("catalog", workload.CatalogType(), workload.RandomCatalog(products, seed))
	if err != nil {
		tb.Fatal(err)
	}
	wh := webhouse.New()
	wh.Register(src)
	return wh
}

// e24Explore runs the i-th explore of the E24 script: a random linear
// query, with an invalidate before every 25th to keep the fold cost flat.
func e24Explore(tb testing.TB, wh *webhouse.Webhouse, i int) {
	if i%25 == 24 {
		if err := wh.Invalidate("catalog"); err != nil {
			tb.Fatal(err)
		}
	}
	q := workload.RandomLinearQuery(workload.CatalogType(), int64(i), 2+i%2, 60)
	if _, err := wh.Explore(context.Background(), "catalog", q); err != nil {
		tb.Fatal(err)
	}
}

// e24Store attaches a store with the snapshot cadence disabled.
func e24Store(tb testing.TB, dir string, wh *webhouse.Webhouse) (*Store, *Recovery) {
	tb.Helper()
	s, rec, err := OpenOrRecover(Options{Dir: dir, SnapEvery: -1, Logf: quietLogf(tb)}, wh)
	if err != nil {
		tb.Fatal(err)
	}
	return s, rec
}

// BenchmarkE24Explore times one explore of the E24 script on a memory-only
// webhouse and on one journaling every event to the WAL.
func BenchmarkE24Explore(b *testing.B) {
	for _, journaled := range []bool{false, true} {
		b.Run(fmt.Sprintf("wal=%v", journaled), func(b *testing.B) {
			wh := e24House(b, 4, 1)
			if journaled {
				s, _ := e24Store(b, b.TempDir(), wh)
				defer s.Close()
			}
			for i := 0; i < 50; i++ { // warm-up
				e24Explore(b, wh, i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e24Explore(b, wh, 50+i)
			}
		})
	}
}

// BenchmarkE24Snapshot reports, per catalog size, the bytes and document
// nodes of the snapshot written after a Query 1 and Query 2 exploration. It
// times the snapshot encoding, not the file write: the write's fsyncs cost
// what the host's file system charges, whatever the repository's size.
func BenchmarkE24Snapshot(b *testing.B) {
	ctx := context.Background()
	for _, products := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("products=%d", products), func(b *testing.B) {
			wh := e24House(b, products, int64(100+products))
			dir := b.TempDir()
			s, _ := e24Store(b, dir, wh)
			defer s.Close()
			if _, err := wh.Explore(ctx, "catalog", workload.Query1(200)); err != nil {
				b.Fatal(err)
			}
			if _, err := wh.Explore(ctx, "catalog", workload.Query2()); err != nil {
				b.Fatal(err)
			}
			if err := s.SnapshotAll(); err != nil {
				b.Fatal(err)
			}
			info, err := os.Stat(filepath.Join(dir, "snap", "catalog.snap"))
			if err != nil {
				b.Fatal(err)
			}
			doc, know, steps, lossy, err := wh.Export("catalog")
			if err != nil {
				b.Fatal(err)
			}
			p := &SnapshotPayload{Source: "catalog", LastSeq: s.shadow["catalog"].lastSeq,
				Doc: doc, HasDoc: true, Knowledge: know, Steps: steps, Lossy: lossy}
			var framed []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				framed = frameSnapshot(EncodeSnapshotPayload(p))
			}
			b.StopTimer()
			if int64(len(framed)) != info.Size() {
				b.Fatalf("encoded %d bytes, snapshot file has %d", len(framed), info.Size())
			}
			b.ReportMetric(float64(len(framed)), "snapshot_bytes")
			b.ReportMetric(float64(doc.Size()), "doc_nodes")
		})
	}
}

// BenchmarkE24Recovery times a cold OpenOrRecover per WAL length: the log
// is written once, then every iteration replays it into a fresh webhouse.
func BenchmarkE24Recovery(b *testing.B) {
	for _, events := range []int{10, 50, 100, 250} {
		b.Run(fmt.Sprintf("events=%d", events), func(b *testing.B) {
			dir := b.TempDir()
			wh := e24House(b, 4, 7)
			s, _ := e24Store(b, dir, wh)
			for i := 0; i < events; i++ {
				e24Explore(b, wh, i)
			}
			walBytes := s.WALSize()
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			replayed := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cold := e24House(b, 4, 7)
				b.StartTimer()
				s, rec := e24Store(b, dir, cold)
				b.StopTimer()
				replayed = rec.ReplayedEvents
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(walBytes), "wal_bytes")
			b.ReportMetric(float64(replayed), "replayed")
		})
	}
}
