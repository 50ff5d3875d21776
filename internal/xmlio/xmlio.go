// Package xmlio serializes data trees and incomplete trees as XML and
// parses data trees back. The paper emphasizes that incomplete trees
// "can be itself naturally represented and browsed as an XML document"
// (Section 1); WriteIncomplete realizes that representation.
package xmlio

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"incxml/internal/ctype"
	"incxml/internal/itree"
	"incxml/internal/rat"
	"incxml/internal/tree"
)

// xmlNode is the wire representation of a data-tree node.
type xmlNode struct {
	XMLName  xml.Name
	ID       string    `xml:"id,attr,omitempty"`
	Value    string    `xml:"value,attr,omitempty"`
	Children []xmlNode `xml:",any"`
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

// Write serializes a data tree as indented XML. Node ids and nonzero values
// become attributes.
func Write(w io.Writer, t tree.Tree) error {
	if t.Root == nil {
		_, err := io.WriteString(w, "<empty/>\n")
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(toXML(t.Root)); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// Marshal returns the XML serialization of a data tree as a string.
func Marshal(t tree.Tree) (string, error) {
	var b strings.Builder
	if err := Write(&b, t); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Parse reads a data tree from its XML serialization. Elements without an
// id attribute get fresh ids; values default to 0.
func Parse(r io.Reader) (tree.Tree, error) {
	dec := xml.NewDecoder(r)
	var raw xmlNode
	if err := dec.Decode(&raw); err != nil {
		return tree.Tree{}, fmt.Errorf("xmlio: %v", err)
	}
	if raw.XMLName.Local == "empty" {
		return tree.Empty(), nil
	}
	root, err := fromXML(raw)
	if err != nil {
		return tree.Tree{}, err
	}
	t := tree.Tree{Root: root}
	if err := t.Validate(); err != nil {
		return tree.Tree{}, err
	}
	return t, nil
}

// Unmarshal parses a data tree from a string.
func Unmarshal(s string) (tree.Tree, error) {
	return Parse(strings.NewReader(s))
}

func fromXML(raw xmlNode) (*tree.Node, error) {
	// A prefixed name such as A:0 is valid XML, but its local part, which
	// becomes the label, need not be a name on its own; Marshal could not
	// write it back.
	if r, _ := utf8.DecodeRuneInString(raw.XMLName.Local); !unicode.IsLetter(r) && r != '_' && r != ':' {
		return nil, fmt.Errorf("xmlio: element name %q does not start like an XML name", raw.XMLName.Local)
	}
	n := &tree.Node{Label: tree.Label(raw.XMLName.Local)}
	if raw.ID != "" {
		n.ID = tree.NodeID(raw.ID)
	} else {
		n.ID = tree.FreshID(raw.XMLName.Local)
	}
	if raw.Value != "" {
		v, err := rat.Parse(raw.Value)
		if err != nil {
			return nil, fmt.Errorf("xmlio: bad value on <%s>: %v", raw.XMLName.Local, err)
		}
		n.Value = v
	}
	for _, c := range raw.Children {
		child, err := fromXML(c)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, child)
	}
	return n, nil
}

// WriteIncomplete serializes an incomplete tree as a browsable XML document
// with three sections: the data nodes (as a nested prefix), the type rules,
// and the conditions.
func WriteIncomplete(w io.Writer, it *itree.T) error {
	var b strings.Builder
	b.WriteString("<incomplete-tree>\n")
	b.WriteString("  <data>\n")
	td := it.DataTree()
	if td.Root != nil {
		var rec func(n *tree.Node, indent string)
		rec = func(n *tree.Node, indent string) {
			fmt.Fprintf(&b, "%s<%s id=%q value=%q>\n", indent, n.Label, n.ID, n.Value)
			kids := append([]*tree.Node(nil), n.Children...)
			sort.Slice(kids, func(i, j int) bool { return kids[i].ID < kids[j].ID })
			for _, c := range kids {
				rec(c, indent+"  ")
			}
			fmt.Fprintf(&b, "%s</%s>\n", indent, n.Label)
		}
		rec(td.Root, "    ")
	}
	b.WriteString("  </data>\n")
	b.WriteString("  <type>\n")
	for _, s := range it.Type.Symbols() {
		tg := it.Type.TargetFor(s)
		fmt.Fprintf(&b, "    <symbol name=%q target=%q", s, tg)
		if c := it.Type.CondFor(s); !c.IsTrue() {
			fmt.Fprintf(&b, " cond=%q", c)
		}
		disj := it.Type.DisjFor(s)
		if len(disj) == 1 && len(disj[0]) == 0 {
			b.WriteString("/>\n")
			continue
		}
		b.WriteString(">\n")
		for _, atom := range disj {
			fmt.Fprintf(&b, "      <atom>%s</atom>\n", xmlEscape(atomString(atom)))
		}
		b.WriteString("    </symbol>\n")
	}
	b.WriteString("  </type>\n")
	if it.MayBeEmpty {
		b.WriteString("  <may-be-empty/>\n")
	}
	b.WriteString("</incomplete-tree>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// MarshalIncomplete returns the XML form of an incomplete tree.
func MarshalIncomplete(it *itree.T) (string, error) {
	var b strings.Builder
	if err := WriteIncomplete(&b, it); err != nil {
		return "", err
	}
	return b.String(), nil
}

func atomString(a ctype.SAtom) string { return a.String() }

func xmlEscape(s string) string {
	var b strings.Builder
	_ = xml.EscapeText(&b, []byte(s))
	return b.String()
}
