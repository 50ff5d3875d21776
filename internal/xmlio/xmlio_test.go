package xmlio

import (
	"encoding/xml"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"incxml/internal/itree"
	"incxml/internal/rat"
	"incxml/internal/refine"
	"incxml/internal/tree"
	"incxml/internal/workload"
)

// reference renders a data tree through encoding/xml's indenting encoder,
// the reflection-based form Marshal writes directly; its output is the one
// Marshal must reproduce byte for byte.
func reference(t tree.Tree) (string, error) {
	if t.Root == nil {
		return "<empty/>\n", nil
	}
	var b strings.Builder
	enc := xml.NewEncoder(&b)
	enc.Indent("", "  ")
	if err := enc.Encode(toXML(t.Root)); err != nil {
		return "", err
	}
	b.WriteString("\n")
	return b.String(), nil
}

func toXML(n *tree.Node) xmlNode {
	out := xmlNode{
		XMLName: xml.Name{Local: string(n.Label)},
		ID:      string(n.ID),
	}
	if !n.Value.Equal(rat.Zero) {
		out.Value = n.Value.String()
	}
	kids := append([]*tree.Node(nil), n.Children...)
	sort.Slice(kids, func(i, j int) bool {
		if kids[i].Label != kids[j].Label {
			return kids[i].Label < kids[j].Label
		}
		return kids[i].ID < kids[j].ID
	})
	for _, c := range kids {
		out.Children = append(out.Children, toXML(c))
	}
	return out
}

// sameAsReference fails t unless Marshal and Write render doc exactly as
// the encoding/xml reference does.
func sameAsReference(t *testing.T, doc tree.Tree) {
	t.Helper()
	want, err := reference(doc)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	got, err := Marshal(doc)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if got != want {
		t.Fatalf("Marshal differs from encoding/xml:\n got %q\nwant %q", got, want)
	}
	var w strings.Builder
	if err := Write(&w, doc); err != nil || w.String() != want {
		t.Fatalf("Write = %q, %v; want %q", w.String(), err, want)
	}
}

// randomDoc builds a random data tree whose ids mix markup characters,
// whitespace, non-ASCII and invalid UTF-8, whose labels repeat across
// siblings so the (label, id) order matters, and whose values include
// negative and fractional ones. Ids stay unique by a numeric suffix.
func randomDoc(rng *rand.Rand) tree.Tree {
	labels := []tree.Label{"a", "b", "price", "é", "名前", "x.y", "_z"}
	pieces := []string{"", "id", "<", "&", ">", `"`, "'", "\t", "\n", "\r", "ü", "日本", "\xff", "\xc3", "\x00", "\uFFFE", "\uFFFD", "]]>", " "}
	values := []rat.Rat{rat.Zero, rat.Zero, rat.FromInt(120), rat.FromInt(-7), rat.New(3, 4), rat.New(-5, 2), rat.FromInt(1 << 40)}
	next := 0
	var build func(depth int) *tree.Node
	build = func(depth int) *tree.Node {
		var id strings.Builder
		for k := rng.Intn(3); k > 0; k-- {
			id.WriteString(pieces[rng.Intn(len(pieces))])
		}
		if rng.Intn(8) > 0 { // an empty id renders no attribute
			fmt.Fprintf(&id, "%d", next)
		}
		next++
		n := tree.NewID(tree.NodeID(id.String()), labels[rng.Intn(len(labels))], values[rng.Intn(len(values))])
		if depth < 4 {
			for k := rng.Intn(4); k > 0; k-- {
				n.Children = append(n.Children, build(depth+1))
			}
		}
		return n
	}
	return tree.Tree{Root: build(0)}
}

// TestMarshalMatchesEncodingXML differentially tests the direct writer
// against the encoding/xml reference on random trees, the paper catalog
// and the empty tree.
func TestMarshalMatchesEncodingXML(t *testing.T) {
	sameAsReference(t, tree.Empty())
	sameAsReference(t, workload.PaperCatalog())
	sameAsReference(t, tree.Tree{Root: tree.NewID("only", "leaf", rat.New(-1, 3))})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		sameAsReference(t, randomDoc(rng))
	}
}

// TestMarshalRejectsUnlabeledNode: no element can name a node without a
// label, so Marshal reports it instead of inventing a name.
func TestMarshalRejectsUnlabeledNode(t *testing.T) {
	doc := tree.Tree{Root: tree.NewID("r", "a", rat.Zero, tree.NewID("c", "", rat.Zero))}
	if s, err := Marshal(doc); err == nil {
		t.Errorf("Marshal of an unlabeled node = %q, want an error", s)
	}
}

// BenchmarkMarshal renders the answer-sized random catalog that the served
// workloads answer with.
func BenchmarkMarshal(b *testing.B) {
	doc := workload.RandomCatalog(16, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Marshal(doc)
		if err != nil {
			b.Fatal(err)
		}
		marshalSink = s
	}
}

var marshalSink string

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	doc := workload.PaperCatalog()
	s, err := Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "<catalog") || !strings.Contains(s, `value="120"`) {
		t.Errorf("serialization missing content:\n%s", s)
	}
	back, err := Unmarshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Equal(back) {
		t.Errorf("round trip changed the tree:\n%s\nvs\n%s", doc, back)
	}
}

func TestMarshalEmpty(t *testing.T) {
	s, err := Marshal(workload.PaperCatalog().PrefixOn(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "<empty/>") {
		t.Errorf("empty tree serialization = %q", s)
	}
	back, err := Unmarshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !back.IsEmpty() {
		t.Error("empty round trip not empty")
	}
}

func TestUnmarshalFreshIDsAndValues(t *testing.T) {
	doc, err := Unmarshal(`<a><b value="3/4"></b><b value="-2"></b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Size() != 3 {
		t.Fatalf("size = %d", doc.Size())
	}
	if doc.Root.Children[0].ID == doc.Root.Children[1].ID {
		t.Error("fresh ids collide")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	for _, s := range []string{"", "<a", `<a value="zz"/>`, `<a id="x"><b id="x"/></a>`} {
		if _, err := Unmarshal(s); err == nil {
			t.Errorf("Unmarshal(%q) succeeded, want error", s)
		}
	}
}

func TestMarshalIncomplete(t *testing.T) {
	r := refine.NewRefiner(workload.CatalogSigma, workload.CatalogType())
	doc := workload.PaperCatalog()
	if _, err := r.ObserveOn(doc, workload.Query1(200)); err != nil {
		t.Fatal(err)
	}
	it := r.Reachable()
	s, err := MarshalIncomplete(it)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<incomplete-tree>", "<data>", "<type>", "canon", "<atom>"} {
		if !strings.Contains(s, want) {
			t.Errorf("incomplete serialization missing %q", want)
		}
	}
	// MayBeEmpty marker.
	empty := itree.New()
	empty.MayBeEmpty = true
	s2, err := MarshalIncomplete(empty)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s2, "<may-be-empty/>") {
		t.Error("MayBeEmpty marker missing")
	}
}
