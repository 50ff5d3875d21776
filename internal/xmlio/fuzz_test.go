package xmlio

import "testing"

// FuzzUnmarshal checks the XML reader never panics, that accepted
// documents round-trip through Marshal, and that Marshal renders each of
// them exactly as the encoding/xml reference does.
func FuzzUnmarshal(f *testing.F) {
	for _, seed := range []string{
		`<a></a>`,
		`<a id="x" value="3/4"><b/></a>`,
		`<empty/>`,
		`<a><b value="-2"/><b value="1.5"/></a>`,
		`<a`,
		`<a value="zz"/>`,
		`<a id="x"><b id="x"/></a>`,
		`<a xmlns="urn:x"><b/></a>`,
		`<A:0/>`, // prefixed name whose local part is not a name
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := Unmarshal(src)
		if err != nil {
			return
		}
		printed, err := Marshal(doc)
		if err != nil {
			t.Fatalf("accepted document does not marshal: %v", err)
		}
		if want, err := reference(doc); err != nil || printed != want {
			t.Fatalf("Marshal differs from encoding/xml (%v):\n got %q\nwant %q", err, printed, want)
		}
		again, err := Unmarshal(printed)
		if err != nil {
			t.Fatalf("marshaled form does not reparse: %v\n%s", err, printed)
		}
		if !doc.Equal(again) {
			t.Fatalf("round trip changed the tree:\n%s\nvs\n%s", doc, again)
		}
	})
}
