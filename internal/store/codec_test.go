package store

import (
	"bytes"
	"errors"
	"testing"

	"incxml/internal/cond"
	"incxml/internal/itree"
	"incxml/internal/rat"
	"incxml/internal/refine"
	"incxml/internal/tree"
	"incxml/internal/workload"
)

func TestTreeRoundTrip(t *testing.T) {
	cases := map[string]tree.Tree{
		"empty":   {},
		"paper":   workload.PaperCatalog(),
		"random":  workload.RandomCatalog(17, 7),
		"oneNode": {Root: tree.NewID("r", "root", rat.FromInt(-42))},
	}
	for name, tr := range cases {
		buf := EncodeTree(tr)
		got, err := DecodeTree(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got.CanonicalWithIDs() != tr.CanonicalWithIDs() {
			t.Fatalf("%s: round trip changed the tree:\n got %s\nwant %s",
				name, got.CanonicalWithIDs(), tr.CanonicalWithIDs())
		}
		if again := EncodeTree(got); !bytes.Equal(again, buf) {
			t.Fatalf("%s: re-encoding is not canonical (%d vs %d bytes)", name, len(again), len(buf))
		}
	}
}

func TestTreeEncodingInternsRepeatedStrings(t *testing.T) {
	// 100 products share the labels product/name/price/cat/subcat: the
	// interned encoding must be far below one full label set per node.
	tr := workload.RandomCatalog(100, 3)
	interned := len(EncodeTree(tr))
	var raw int
	tr.Walk(func(n *tree.Node) {
		raw += len(n.ID) + len(n.Label) + 4
	})
	if interned >= raw {
		t.Fatalf("interned encoding (%d bytes) not smaller than naive string total (%d bytes)", interned, raw)
	}
}

func TestCondRoundTrip(t *testing.T) {
	cases := map[string]cond.Cond{
		"true":  cond.True(),
		"eq":    cond.EqInt(42),
		"lt":    cond.LtInt(7),
		"false": cond.False(),
	}
	for name, c := range cases {
		buf := EncodeCond(c)
		got, err := DecodeCond(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got.String() != c.String() {
			t.Fatalf("%s: round trip changed the condition: got %s want %s", name, got, c)
		}
		if again := EncodeCond(got); !bytes.Equal(again, buf) {
			t.Fatalf("%s: re-encoding is not canonical", name)
		}
	}
}

// refinedKnowledge builds a realistic incomplete tree by observing the
// paper's queries against the catalog.
func refinedKnowledge(t *testing.T) *itree.T {
	t.Helper()
	doc := workload.PaperCatalog()
	r := refine.NewRefiner(workload.CatalogSigma, workload.CatalogType())
	for _, q := range []int64{150, 200} {
		if _, err := r.ObserveOn(doc, workload.Query1(q)); err != nil {
			t.Fatalf("observe: %v", err)
		}
	}
	return r.Tree()
}

func TestIncompleteRoundTrip(t *testing.T) {
	for name, know := range map[string]*itree.T{
		"universal": refine.Universal(workload.CatalogSigma),
		"refined":   refinedKnowledge(t),
		"empty":     itree.New(),
	} {
		buf := EncodeIncomplete(know)
		got, err := DecodeIncomplete(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got.String() != know.String() {
			t.Fatalf("%s: round trip changed the incomplete tree:\n got %s\nwant %s", name, got, know)
		}
		if got.MayBeEmpty != know.MayBeEmpty {
			t.Fatalf("%s: MayBeEmpty differs after round trip", name)
		}
		if again := EncodeIncomplete(got); !bytes.Equal(again, buf) {
			t.Fatalf("%s: re-encoding is not canonical", name)
		}
	}
}

func TestQueryRoundTrip(t *testing.T) {
	qs := map[string]int{"q1": 0, "q2": 1, "q3": 2, "q4": 3, "rand": 4}
	for name, i := range qs {
		var q = workload.Query2()
		switch i {
		case 0:
			q = workload.Query1(150)
		case 2:
			q = workload.Query3(300)
		case 3:
			q = workload.Query4()
		case 4:
			q = workload.RandomLinearQuery(workload.CatalogType(), 11, 3, 50)
		}
		buf := EncodeQuery(q)
		got, err := DecodeQuery(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got.String() != q.String() {
			t.Fatalf("%s: round trip changed the query: got %s want %s", name, got.String(), q.String())
		}
		if again := EncodeQuery(got); !bytes.Equal(again, buf) {
			t.Fatalf("%s: re-encoding is not canonical", name)
		}
	}
}

func TestSnapshotPayloadRoundTrip(t *testing.T) {
	p := &SnapshotPayload{
		Source:    "catalog",
		LastSeq:   99,
		Doc:       workload.PaperCatalog(),
		HasDoc:    true,
		Knowledge: refinedKnowledge(t),
		Steps:     2,
		Lossy:     true,
	}
	buf := EncodeSnapshotPayload(p)
	got, err := DecodeSnapshotPayload(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Source != p.Source || got.LastSeq != p.LastSeq || got.Steps != p.Steps || got.Lossy != p.Lossy || got.HasDoc != p.HasDoc {
		t.Fatalf("scalar fields changed: %+v", got)
	}
	if got.Doc.CanonicalWithIDs() != p.Doc.CanonicalWithIDs() {
		t.Fatal("document changed in round trip")
	}
	if got.Knowledge.String() != p.Knowledge.String() {
		t.Fatal("knowledge changed in round trip")
	}
	if again := EncodeSnapshotPayload(got); !bytes.Equal(again, buf) {
		t.Fatal("re-encoding is not canonical")
	}
}

func TestDecodeArbitraryBytesErrors(t *testing.T) {
	// Valid encodings with every suffix truncated and every byte mutated
	// must error (or still decode, for mutations that keep the structure
	// valid) — never panic, never hang.
	base := EncodeSnapshotPayload(&SnapshotPayload{
		Source:    "s",
		LastSeq:   5,
		Doc:       workload.PaperCatalog(),
		HasDoc:    true,
		Knowledge: refine.Universal(workload.CatalogSigma),
	})
	for cut := 0; cut < len(base); cut++ {
		if _, err := DecodeSnapshotPayload(base[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	for i := range base {
		mut := append([]byte(nil), base...)
		mut[i] ^= 0x41
		p, err := DecodeSnapshotPayload(mut)
		if err == nil && p == nil {
			t.Fatalf("mutation at %d returned nil, nil", i)
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("mutation at %d: error %v does not wrap ErrCorrupt", i, err)
		}
	}
}

func TestSanitizeNameInjective(t *testing.T) {
	names := []string{"catalog", "cat%02d", "cat00", "", "a/b", "a%2Fb", "a_b", "A.b-c", "ü"}
	seen := map[string]string{}
	for _, n := range names {
		s := sanitizeName(n)
		if prev, dup := seen[s]; dup {
			t.Fatalf("names %q and %q both sanitize to %q", prev, n, s)
		}
		seen[s] = n
		for i := 0; i < len(s); i++ {
			c := s[i]
			ok := c == '.' || c == '_' || c == '-' || c == '%' ||
				(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
			if !ok {
				t.Fatalf("sanitizeName(%q) = %q contains unsafe byte %q", n, s, c)
			}
		}
	}
}
