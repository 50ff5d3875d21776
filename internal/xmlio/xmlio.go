// Package xmlio serializes data trees and incomplete trees as XML and
// parses data trees back. The paper emphasizes that incomplete trees
// "can be itself naturally represented and browsed as an XML document"
// (Section 1); WriteIncomplete realizes that representation.
package xmlio

import (
	"encoding/xml"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"incxml/internal/ctype"
	"incxml/internal/itree"
	"incxml/internal/rat"
	"incxml/internal/tree"
)

// xmlNode is the decoded form of a data-tree node (Parse).
type xmlNode struct {
	XMLName  xml.Name
	ID       string    `xml:"id,attr,omitempty"`
	Value    string    `xml:"value,attr,omitempty"`
	Children []xmlNode `xml:",any"`
}

// Write serializes a data tree as indented XML (see Marshal).
func Write(w io.Writer, t tree.Tree) error {
	s, err := Marshal(t)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, s)
	return err
}

// Marshal returns the XML serialization of a data tree, newline-terminated:
// one element per node, named by its label, with the node id and a nonzero
// value as the id and value attributes, children in (label, id) order and
// indented by two spaces per level, and <empty/> for the empty tree. The
// output is the one encoding/xml's indenting encoder gives for the same
// elements, escaping included. A node without a label is an error: no
// element could name it.
func Marshal(t tree.Tree) (string, error) {
	if t.Root == nil {
		return "<empty/>\n", nil
	}
	var w writer
	w.b.Grow(512) // a typical answer's size: most are written without regrowing
	if err := w.node(t.Root, 0); err != nil {
		return "", err
	}
	w.b.WriteByte('\n')
	return w.b.String(), nil
}

// writer renders the elements of one data tree into b.
type writer struct {
	b strings.Builder
	// kids stacks the sorted children of the nodes being written, so that
	// sorting copies no slice of its own.
	kids []*tree.Node
}

// node writes the element of n, at the given depth, and its children.
func (w *writer) node(n *tree.Node, depth int) error {
	if n.Label == "" {
		return fmt.Errorf("xmlio: node %q has no label", n.ID)
	}
	w.b.WriteByte('<')
	w.b.WriteString(string(n.Label))
	if n.ID != "" {
		w.b.WriteString(` id="`)
		escape(&w.b, string(n.ID))
		w.b.WriteByte('"')
	}
	if n.Value.Sign() != 0 {
		// A rational's digits, sign and slash need no escaping.
		var num [48]byte
		w.b.WriteString(` value="`)
		w.b.Write(n.Value.Append(num[:0]))
		w.b.WriteByte('"')
	}
	w.b.WriteByte('>')
	if len(n.Children) > 0 {
		base := len(w.kids)
		w.kids = append(w.kids, n.Children...)
		kids := w.kids[base:]
		slices.SortFunc(kids, func(a, b *tree.Node) int {
			if c := strings.Compare(string(a.Label), string(b.Label)); c != 0 {
				return c
			}
			return strings.Compare(string(a.ID), string(b.ID))
		})
		for _, c := range kids {
			w.newline(depth + 1)
			if err := w.node(c, depth+1); err != nil {
				return err
			}
		}
		w.kids = w.kids[:base]
		w.newline(depth)
	}
	w.b.WriteString("</")
	w.b.WriteString(string(n.Label))
	w.b.WriteByte('>')
	return nil
}

// newline starts a line indented to the given depth.
func (w *writer) newline(depth int) {
	w.b.WriteByte('\n')
	for i := 0; i < depth; i++ {
		w.b.WriteString("  ")
	}
}

// escape writes s escaped as xml.EscapeText escapes it: the five markup
// characters, tab, newline and carriage return become character
// references, and invalid UTF-8 and runes outside the XML character range
// become U+FFFD.
func escape(b *strings.Builder, s string) {
	last := 0
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRuneInString(s[i:])
		i += width
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if isXMLChar(r) && (r != utf8.RuneError || width > 1) {
				continue
			}
			esc = "\uFFFD"
		}
		b.WriteString(s[last : i-width])
		b.WriteString(esc)
		last = i
	}
	b.WriteString(s[last:])
}

// isXMLChar reports whether r is in the XML 1.0 Char production.
func isXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
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
			b.WriteString("      <atom>")
			escape(&b, atomString(atom))
			b.WriteString("</atom>\n")
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
