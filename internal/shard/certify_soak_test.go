package shard_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"incxml/internal/certify"
	"incxml/internal/shard"
	"incxml/internal/tree"
	"incxml/internal/webhouse"
	"incxml/internal/workload"
)

// soakStats tallies a certificate soak: the scatter-wide completeness
// ratio of every round, the rounds whose certificate certified at least
// one query atom, those with a Full verdict, and the overclaims found.
type soakStats struct {
	ratios              []float64
	certified, full     int
	overclaims, skipped int
}

// certificateSoak runs the E23 outage soak: many random two-shard
// instances, each with one whole shard down, scatter a random query twice
// and check each scatter-wide certificate's promise the hard way — the
// certified sub-query's answer over the certain fragment of the snapshot
// every source answered from must equal its answer over that source's true
// world document. Every overclaim is reported through tb.Errorf.
func certificateSoak(tb testing.TB, rounds int) soakStats {
	tb.Helper()
	ctx := context.Background()
	var st soakStats
	for i := 0; i < rounds; i++ {
		seed := int64(1000 + i)
		c := shard.New(shard.Config{Shards: 2})
		docs := map[string]tree.Tree{}
		for s := 0; s < 3; s++ {
			name := fmt.Sprintf("s%d", s)
			doc := workload.RandomCatalog(3+(i+s)%4, seed*10+int64(s))
			src, err := webhouse.NewSource(name, workload.CatalogType(), doc)
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := c.Register(src); err != nil {
				tb.Fatal(err)
			}
			docs[name] = doc
		}
		for name := range docs {
			if _, err := c.Explore(ctx, name, workload.Query1(int64(100+i%150))); err != nil {
				tb.Fatalf("round %d: explore %s: %v", i, name, err)
			}
		}
		q := workload.RandomLinearQuery(workload.CatalogType(), seed, 2+i%3, 300)
		c.Group(i % 2).SetDown(true)

		// The round's first scatter sets the statistics; its re-scatter,
		// which may reuse the memoized merge, is checked the same way.
		for pass, what := range []string{"scatter", "re-scatter"} {
			sc, err := c.ScatterComplete(ctx, q)
			if err != nil {
				tb.Fatalf("round %d: %s: %v", i, what, err)
			}
			cert := sc.Certificate
			if cert == nil {
				tb.Fatalf("round %d: %s without a certificate", i, what)
			}
			if cert.Verdict == certify.Full && sc.Degraded() && cert.Exhausted {
				tb.Errorf("round %d: full verdict on an exhausted degraded %s", i, what)
			}
			if pass == 0 {
				st.ratios = append(st.ratios, certify.CompletenessRatio(cert))
				if cert.Verdict == certify.Full {
					st.full++
				}
				if cert.AtomsCertified == 0 {
					st.skipped++
				} else {
					st.certified++
				}
			}
			if cert.AtomsCertified == 0 {
				continue
			}
			subq := certify.Subquery(q, cert.Paths)
			if err := subq.Validate(); err != nil {
				tb.Fatalf("round %d: certified sub-query invalid: %v", i, err)
			}
			for _, sa := range sc.Answers {
				if sa.Err != nil {
					continue
				}
				got := subq.Eval(sa.Knowledge().DataTree())
				want := subq.Eval(docs[sa.Source])
				if !got.Equal(want) {
					st.overclaims++
					tb.Errorf("round %d: %s certificate overclaims on %s (shard %d, down=%d):\nsub-query:\n%s",
						i, what, sa.Source, sa.Shard, i%2, cert.Subquery)
				}
			}
		}
	}
	return st
}

// TestCertificateSoundnessSoak is the E23 no-overclaim gate over 200
// rounds. Run under -race by scripts/verify.sh; -short trims the rounds.
func TestCertificateSoundnessSoak(t *testing.T) {
	rounds := 200
	if testing.Short() {
		rounds = 20
	}
	st := certificateSoak(t, rounds)
	if st.certified == 0 {
		t.Errorf("soak never produced a non-empty certificate (%d rounds, %d skipped)", rounds, st.skipped)
	}
	t.Logf("soak: %d rounds, %d with non-empty certificates, %d empty", rounds, st.certified, st.skipped)
}

// BenchmarkE23CertificateSoak is the E23 measurement: one iteration is the
// test's 200-round soak, reported as the overclaim count (the contract says
// 0), the share of rounds with a Full or a non-empty certificate, and the
// completeness-ratio distribution.
func BenchmarkE23CertificateSoak(b *testing.B) {
	const rounds = 200
	var st soakStats
	for i := 0; i < b.N; i++ {
		st = certificateSoak(b, rounds)
	}
	sort.Float64s(st.ratios)
	sum := 0.0
	for _, r := range st.ratios {
		sum += r
	}
	b.ReportMetric(float64(st.overclaims), "overclaims")
	b.ReportMetric(float64(st.full)/rounds, "full_frac")
	b.ReportMetric(float64(st.certified)/rounds, "nonempty_frac")
	b.ReportMetric(sum/rounds, "ratio_mean")
	b.ReportMetric(st.ratios[rounds/2], "ratio_p50")
	b.ReportMetric(st.ratios[rounds*9/10], "ratio_p90")
}
