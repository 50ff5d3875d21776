// Package store is the durability layer: a compact canonical binary codec
// for the paper's value types (data trees, incomplete trees, conditions,
// conditional tree types, ps-queries), per-repository snapshot files, and a
// checksummed, length-prefixed write-ahead log of acquisition events so a
// webhouse replays to its exact pre-crash knowledge state on restart.
//
// The codec is canonical: encoding the same in-memory value always yields
// the same bytes (map iterations are sorted; slice orders are preserved
// faithfully), and decode(encode(x)) reproduces x up to the equivalences
// the in-memory forms already quotient by (interval normal form for
// conditions, unordered children for trees). Every payload carries its own
// string section: strings are interned on first use and later occurrences
// encode as a varint back-reference — node ids, labels, and symbol names
// repeat heavily inside one knowledge state, so the section typically
// shrinks a payload by well over half.
//
// Robustness contract (enforced by the fuzzers): decoding arbitrary bytes
// never panics and never allocates proportionally to a declared-but-absent
// length; it returns ErrCorrupt (wrapped) instead.
package store

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"incxml/internal/cond"
	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/interval"
	"incxml/internal/itree"
	"incxml/internal/query"
	"incxml/internal/rat"
	"incxml/internal/tree"
)

// ErrCorrupt reports that a payload failed structural validation: a bad
// magic number, a checksum mismatch, a truncated section, or an
// out-of-range tag. Recovery treats it as "this record/file is unusable",
// never as a reason to crash.
var ErrCorrupt = errors.New("store: corrupt data")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// enc is a single-payload encoder: an output buffer plus the payload's
// string intern section. The section is inline and self-describing: the
// first occurrence of a string encodes as (next-index, length, bytes) and
// every later occurrence as just its index, so the decoder rebuilds the
// table in one pass without a separate header.
type enc struct {
	buf     []byte
	strings map[string]uint64
}

func newEnc() *enc { return &enc{strings: map[string]uint64{}} }

func (e *enc) uvarint(v uint64) {
	for v >= 0x80 {
		e.buf = append(e.buf, byte(v)|0x80)
		v >>= 7
	}
	e.buf = append(e.buf, byte(v))
}

// varint is the zigzag encoding of a signed integer.
func (e *enc) varint(v int64) {
	e.uvarint(uint64(v)<<1 ^ uint64(v>>63))
}

func (e *enc) bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *enc) byte(b byte) { e.buf = append(e.buf, b) }

// str encodes a string through the payload's intern section.
func (e *enc) str(s string) {
	if idx, ok := e.strings[s]; ok {
		e.uvarint(idx)
		return
	}
	idx := uint64(len(e.strings))
	e.strings[s] = idx
	e.uvarint(idx)
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// dec is the matching single-payload decoder.
type dec struct {
	buf     []byte
	pos     int
	strings []string
}

func newDec(buf []byte) *dec { return &dec{buf: buf} }

func (d *dec) remaining() int { return len(d.buf) - d.pos }

func (d *dec) uvarint() (uint64, error) {
	var v uint64
	var shift uint
	for i := 0; ; i++ {
		if d.pos >= len(d.buf) {
			return 0, corruptf("truncated uvarint")
		}
		b := d.buf[d.pos]
		d.pos++
		if shift >= 64 || (shift == 63 && b > 1) {
			return 0, corruptf("uvarint overflow")
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
	}
}

func (d *dec) varint() (int64, error) {
	u, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

func (d *dec) bool() (bool, error) {
	b, err := d.byte()
	if err != nil {
		return false, err
	}
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, corruptf("bad bool byte 0x%02x", b)
}

func (d *dec) byte() (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, corruptf("truncated byte")
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

func (d *dec) str() (string, error) {
	idx, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if idx < uint64(len(d.strings)) {
		return d.strings[idx], nil
	}
	if idx != uint64(len(d.strings)) {
		return "", corruptf("string ref %d out of range (table has %d)", idx, len(d.strings))
	}
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.remaining()) {
		return "", corruptf("string length %d exceeds remaining %d bytes", n, d.remaining())
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	d.strings = append(d.strings, s)
	return s, nil
}

// count reads a collection length and sanity-bounds it by the bytes left:
// every encoded element costs at least one byte, so a count beyond the
// remaining payload is corruption, not a huge allocation.
func (d *dec) count() (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(d.remaining()) {
		return 0, corruptf("count %d exceeds remaining %d bytes", n, d.remaining())
	}
	return int(n), nil
}

// ---- rat / interval / cond ----

func (e *enc) rat(r rat.Rat) {
	k := r.Key()
	e.varint(k[0])
	e.varint(k[1])
}

func (d *dec) rat() (rat.Rat, error) {
	num, err := d.varint()
	if err != nil {
		return rat.Rat{}, err
	}
	den, err := d.varint()
	if err != nil {
		return rat.Rat{}, err
	}
	if den <= 0 {
		return rat.Rat{}, corruptf("rat denominator %d", den)
	}
	return decodeRat(num, den)
}

// decodeRat rebuilds a rational, converting the rat package's overflow
// panic into ErrCorrupt (arbitrary bytes can name any component pair).
func decodeRat(num, den int64) (r rat.Rat, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, err = rat.Rat{}, corruptf("rat %d/%d: %v", num, den, p)
		}
	}()
	return rat.New(num, den), nil
}

// bound tags: negative infinity, positive infinity, finite closed, finite open.
const (
	tagNegInf byte = 0
	tagPosInf byte = 1
	tagClosed byte = 2
	tagOpen   byte = 3
)

func (e *enc) bound(b interval.Bound) {
	switch {
	case b.Inf < 0:
		e.byte(tagNegInf)
	case b.Inf > 0:
		e.byte(tagPosInf)
	case b.Closed:
		e.byte(tagClosed)
		e.rat(b.Value)
	default:
		e.byte(tagOpen)
		e.rat(b.Value)
	}
}

func (d *dec) bound() (interval.Bound, error) {
	t, err := d.byte()
	if err != nil {
		return interval.Bound{}, err
	}
	switch t {
	case tagNegInf:
		return interval.NegInf(), nil
	case tagPosInf:
		return interval.PosInf(), nil
	case tagClosed, tagOpen:
		v, err := d.rat()
		if err != nil {
			return interval.Bound{}, err
		}
		return interval.At(v, t == tagClosed), nil
	}
	return interval.Bound{}, corruptf("bad bound tag 0x%02x", t)
}

func (e *enc) cond(c cond.Cond) {
	ivs := c.Set().Intervals()
	e.uvarint(uint64(len(ivs)))
	for _, iv := range ivs {
		e.bound(iv.Lo)
		e.bound(iv.Hi)
	}
}

func (d *dec) cond() (cond.Cond, error) {
	n, err := d.count()
	if err != nil {
		return cond.Cond{}, err
	}
	ivs := make([]interval.Interval, 0, n)
	for i := 0; i < n; i++ {
		lo, err := d.bound()
		if err != nil {
			return cond.Cond{}, err
		}
		hi, err := d.bound()
		if err != nil {
			return cond.Cond{}, err
		}
		ivs = append(ivs, interval.Interval{Lo: lo, Hi: hi})
	}
	// interval.Of re-normalizes; normal-form input passes through unchanged,
	// so round-trips are exact while arbitrary input still lands on a valid
	// set (the fuzz contract: never panic, never build an invalid value).
	return cond.FromSet(interval.Of(ivs...)), nil
}

// ---- data trees ----

func (e *enc) tree(t tree.Tree) {
	if t.Root == nil {
		e.bool(false)
		return
	}
	e.bool(true)
	e.node(t.Root)
}

func (e *enc) node(n *tree.Node) {
	e.str(string(n.ID))
	e.str(string(n.Label))
	e.rat(n.Value)
	e.uvarint(uint64(len(n.Children)))
	for _, c := range n.Children {
		e.node(c)
	}
}

// maxTreeDepth caps decoder recursion: a malicious length section could
// otherwise nest nodes until the goroutine stack dies. Real knowledge trees
// are a few levels deep.
const maxTreeDepth = 10_000

func (d *dec) tree() (tree.Tree, error) {
	nonEmpty, err := d.bool()
	if err != nil {
		return tree.Tree{}, err
	}
	if !nonEmpty {
		return tree.Tree{}, nil
	}
	root, err := d.node(0)
	if err != nil {
		return tree.Tree{}, err
	}
	return tree.Tree{Root: root}, nil
}

func (d *dec) node(depth int) (*tree.Node, error) {
	if depth > maxTreeDepth {
		return nil, corruptf("tree deeper than %d", maxTreeDepth)
	}
	id, err := d.str()
	if err != nil {
		return nil, err
	}
	label, err := d.str()
	if err != nil {
		return nil, err
	}
	value, err := d.rat()
	if err != nil {
		return nil, err
	}
	nkids, err := d.count()
	if err != nil {
		return nil, err
	}
	n := &tree.Node{ID: tree.NodeID(id), Label: tree.Label(label), Value: value}
	for i := 0; i < nkids; i++ {
		c, err := d.node(depth + 1)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, c)
	}
	return n, nil
}

// ---- dtd multiplicities (used by the ctype codec) ----

func (e *enc) mult(m dtd.Mult) { e.byte(byte(m)) }

func (d *dec) mult() (dtd.Mult, error) {
	b, err := d.byte()
	if err != nil {
		return 0, err
	}
	switch m := dtd.Mult(b); m {
	case dtd.One, dtd.Opt, dtd.Plus, dtd.Star:
		return m, nil
	}
	return 0, corruptf("bad multiplicity 0x%02x", b)
}

// ---- conditional tree types / incomplete trees ----

const (
	tagLabelTarget byte = 0
	tagNodeTarget  byte = 1
)

func (e *enc) target(t ctype.Target) {
	if t.IsNode() {
		e.byte(tagNodeTarget)
		e.str(string(t.Node))
		return
	}
	e.byte(tagLabelTarget)
	e.str(string(t.Label))
}

func (d *dec) target() (ctype.Target, error) {
	t, err := d.byte()
	if err != nil {
		return ctype.Target{}, err
	}
	s, err := d.str()
	if err != nil {
		return ctype.Target{}, err
	}
	switch t {
	case tagNodeTarget:
		if s == "" {
			return ctype.Target{}, corruptf("empty node target")
		}
		return ctype.NodeTarget(tree.NodeID(s)), nil
	case tagLabelTarget:
		return ctype.LabelTarget(tree.Label(s)), nil
	}
	return ctype.Target{}, corruptf("bad target tag 0x%02x", t)
}

func (e *enc) ctypeType(t *ctype.Type) {
	e.uvarint(uint64(len(t.Roots)))
	for _, r := range t.Roots {
		e.str(string(r))
	}
	// One sorted symbol walk covers the three maps; per symbol a presence
	// bitmap says which of Sigma/Cond/Mu carry an entry.
	set := map[ctype.Symbol]bool{}
	for s := range t.Sigma {
		set[s] = true
	}
	for s := range t.Cond {
		set[s] = true
	}
	for s := range t.Mu {
		set[s] = true
	}
	syms := make([]ctype.Symbol, 0, len(set))
	for s := range set {
		syms = append(syms, s)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
	e.uvarint(uint64(len(syms)))
	for _, s := range syms {
		e.str(string(s))
		tg, hasSigma := t.Sigma[s]
		c, hasCond := t.Cond[s]
		disj, hasMu := t.Mu[s]
		var bits byte
		if hasSigma {
			bits |= 1
		}
		if hasCond {
			bits |= 2
		}
		if hasMu {
			bits |= 4
		}
		e.byte(bits)
		if hasSigma {
			e.target(tg)
		}
		if hasCond {
			e.cond(c)
		}
		if hasMu {
			e.uvarint(uint64(len(disj)))
			for _, atom := range disj {
				e.uvarint(uint64(len(atom)))
				for _, it := range atom {
					e.str(string(it.Sym))
					e.mult(it.Mult)
				}
			}
		}
	}
}

func (d *dec) ctypeType() (*ctype.Type, error) {
	out := ctype.New()
	nroots, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nroots; i++ {
		r, err := d.str()
		if err != nil {
			return nil, err
		}
		out.Roots = append(out.Roots, ctype.Symbol(r))
	}
	nsyms, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nsyms; i++ {
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		sym := ctype.Symbol(s)
		bits, err := d.byte()
		if err != nil {
			return nil, err
		}
		if bits > 7 {
			return nil, corruptf("bad symbol presence bits 0x%02x", bits)
		}
		if bits&1 != 0 {
			tg, err := d.target()
			if err != nil {
				return nil, err
			}
			out.Sigma[sym] = tg
		}
		if bits&2 != 0 {
			c, err := d.cond()
			if err != nil {
				return nil, err
			}
			out.Cond[sym] = c
		}
		if bits&4 != 0 {
			natoms, err := d.count()
			if err != nil {
				return nil, err
			}
			disj := make(ctype.Disj, 0, natoms)
			for j := 0; j < natoms; j++ {
				nitems, err := d.count()
				if err != nil {
					return nil, err
				}
				var atom ctype.SAtom
				for k := 0; k < nitems; k++ {
					is, err := d.str()
					if err != nil {
						return nil, err
					}
					m, err := d.mult()
					if err != nil {
						return nil, err
					}
					atom = append(atom, ctype.SItem{Sym: ctype.Symbol(is), Mult: m})
				}
				disj = append(disj, atom)
			}
			out.Mu[sym] = disj
		}
	}
	return out, nil
}

func (e *enc) itree(t *itree.T) {
	e.bool(t.MayBeEmpty)
	ids := make([]tree.NodeID, 0, len(t.Nodes))
	for id := range t.Nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.uvarint(uint64(len(ids)))
	for _, id := range ids {
		info := t.Nodes[id]
		e.str(string(id))
		e.str(string(info.Label))
		e.rat(info.Value)
	}
	e.ctypeType(t.Type)
}

func (d *dec) itree() (*itree.T, error) {
	out := itree.New()
	mbe, err := d.bool()
	if err != nil {
		return nil, err
	}
	out.MayBeEmpty = mbe
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		id, err := d.str()
		if err != nil {
			return nil, err
		}
		label, err := d.str()
		if err != nil {
			return nil, err
		}
		value, err := d.rat()
		if err != nil {
			return nil, err
		}
		out.Nodes[tree.NodeID(id)] = itree.NodeInfo{Label: tree.Label(label), Value: value}
	}
	ty, err := d.ctypeType()
	if err != nil {
		return nil, err
	}
	out.Type = ty
	return out, nil
}

// ---- ps-queries ----

func (e *enc) query(q query.Query) {
	if q.Root == nil {
		e.bool(false)
		return
	}
	e.bool(true)
	e.queryNode(q.Root)
}

func (e *enc) queryNode(n *query.Node) {
	e.str(string(n.Label))
	e.bool(n.Extract)
	e.cond(n.Cond)
	e.uvarint(uint64(len(n.Children)))
	for _, c := range n.Children {
		e.queryNode(c)
	}
}

func (d *dec) query() (query.Query, error) {
	nonEmpty, err := d.bool()
	if err != nil {
		return query.Query{}, err
	}
	if !nonEmpty {
		return query.Query{}, nil
	}
	root, err := d.queryNode(0)
	if err != nil {
		return query.Query{}, err
	}
	return query.Query{Root: root}, nil
}

func (d *dec) queryNode(depth int) (*query.Node, error) {
	if depth > maxTreeDepth {
		return nil, corruptf("query deeper than %d", maxTreeDepth)
	}
	label, err := d.str()
	if err != nil {
		return nil, err
	}
	extract, err := d.bool()
	if err != nil {
		return nil, err
	}
	c, err := d.cond()
	if err != nil {
		return nil, err
	}
	nkids, err := d.count()
	if err != nil {
		return nil, err
	}
	n := &query.Node{Label: tree.Label(label), Extract: extract, Cond: c}
	for i := 0; i < nkids; i++ {
		child, err := d.queryNode(depth + 1)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, child)
	}
	return n, nil
}

// ---- exported value codecs (fuzz + export/import surface) ----

// EncodeTree renders a data tree in the canonical binary form.
func EncodeTree(t tree.Tree) []byte {
	e := newEnc()
	e.tree(t)
	return e.buf
}

// DecodeTree parses a data tree; arbitrary input yields ErrCorrupt, never a
// panic. Trailing bytes are rejected.
func DecodeTree(buf []byte) (tree.Tree, error) {
	d := newDec(buf)
	t, err := d.tree()
	if err != nil {
		return tree.Tree{}, err
	}
	if d.remaining() != 0 {
		return tree.Tree{}, corruptf("%d trailing bytes after tree", d.remaining())
	}
	return t, nil
}

// EncodeCond renders a condition's interval normal form.
func EncodeCond(c cond.Cond) []byte {
	e := newEnc()
	e.cond(c)
	return e.buf
}

// DecodeCond parses a condition. Trailing bytes are rejected.
func DecodeCond(buf []byte) (cond.Cond, error) {
	d := newDec(buf)
	c, err := d.cond()
	if err != nil {
		return cond.Cond{}, err
	}
	if d.remaining() != 0 {
		return cond.Cond{}, corruptf("%d trailing bytes after cond", d.remaining())
	}
	return c, nil
}

// EncodeIncomplete renders an incomplete tree.
func EncodeIncomplete(t *itree.T) []byte {
	e := newEnc()
	e.itree(t)
	return e.buf
}

// DecodeIncomplete parses an incomplete tree. Trailing bytes are rejected.
func DecodeIncomplete(buf []byte) (*itree.T, error) {
	d := newDec(buf)
	t, err := d.itree()
	if err != nil {
		return nil, err
	}
	if d.remaining() != 0 {
		return nil, corruptf("%d trailing bytes after incomplete tree", d.remaining())
	}
	return t, nil
}

// EncodeQuery renders a ps-query.
func EncodeQuery(q query.Query) []byte {
	e := newEnc()
	e.query(q)
	return e.buf
}

// DecodeQuery parses a ps-query. Trailing bytes are rejected.
func DecodeQuery(buf []byte) (query.Query, error) {
	d := newDec(buf)
	q, err := d.query()
	if err != nil {
		return query.Query{}, err
	}
	if d.remaining() != 0 {
		return query.Query{}, corruptf("%d trailing bytes after query", d.remaining())
	}
	return q, nil
}

// sanity guard referenced by the wal reader: record lengths are bounded so a
// corrupt length prefix cannot trigger a giant allocation.
const maxRecordLen = math.MaxUint32 >> 2 // 1 GiB
