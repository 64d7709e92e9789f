package algebra

import (
	"fmt"
	"math"

	"repro/internal/xdm"
)

// Column is one attribute vector of a Table. Storage is type-tagged, in
// one of three forms:
//
//   - packed: a node-only column stores the (doc-stamp, pre) uint64
//     identity of keys.go, 8 bytes per value;
//   - ints: an integer-only column (loop-lifted iter, pos and row tags)
//     stores the int64 payloads, 8 bytes per value;
//   - generic: everything else (and any column that ever mixed kinds)
//     stores full xdm.Items.
//
// Packed and int columns each have a one-word image per value (see
// wordCol), which is the key dedup, joins and row numbering hash on.
// Columns are immutable once built; tables alias them freely (projection
// and rename are pointer copies), which is why every constructor hands out
// fresh backing slices.
type Column struct {
	// packed holds nodeKey64 identities when the column is node-only;
	// docs maps the stamp half back to the document. ints holds the
	// payloads of an integer-only column; dense marks ints == 1..n (the
	// row-tag column). items is the generic fallback. At most one of
	// packed/ints/items is non-nil; an empty column has all three nil and
	// counts as packed.
	packed []uint64
	docs   *docDict
	ints   []int64
	dense  bool
	items  []xdm.Item
}

// Len returns the number of values.
func (c *Column) Len() int {
	switch {
	case c.items != nil:
		return len(c.items)
	case c.ints != nil:
		return len(c.ints)
	}
	return len(c.packed)
}

// IsPacked reports whether the column stores packed node identities.
// Empty columns count as packed (the packed representation of no rows).
func (c *Column) IsPacked() bool { return c.items == nil && c.ints == nil }

// Packed exposes the packed identity vector (nil for int and generic
// columns). Callers must not mutate it.
func (c *Column) Packed() []uint64 { return c.packed }

// Item materializes value i. Packed columns rebuild the NodeRef through
// the doc dictionary; loops that read many values should prefer a reader
// (which caches the last document) or, for node-only access, Node.
func (c *Column) Item(i int) xdm.Item {
	switch {
	case c.items != nil:
		return c.items[i]
	case c.ints != nil:
		return xdm.NewInteger(c.ints[i])
	}
	return xdm.NewNode(c.docs.unpack(c.packed[i]))
}

// Node returns value i as a node reference; valid only when IsNodeAt(i).
func (c *Column) Node(i int) xdm.NodeRef {
	if c.items != nil {
		return c.items[i].Node()
	}
	return c.docs.unpack(c.packed[i])
}

// IsNodeAt reports whether value i is a node.
func (c *Column) IsNodeAt(i int) bool {
	switch {
	case c.items != nil:
		return c.items[i].IsNode()
	case c.ints != nil:
		return false
	}
	return true
}

// reader iterates one column with a per-loop document cache, so unpacking
// runs of same-document nodes costs one map lookup per run, not per row.
// A reader is single-goroutine state; parallel shards each make their own.
type reader struct {
	col  *Column
	last uint64 // last stamp (high half) resolved, 0 = none
	doc  *xdm.Document
}

func (c *Column) reader() reader { return reader{col: c} }

func (r *reader) item(i int) xdm.Item {
	switch {
	case r.col.items != nil:
		return r.col.items[i]
	case r.col.ints != nil:
		return xdm.NewInteger(r.col.ints[i])
	}
	return xdm.NewNode(r.node(i))
}

// node unpacks value i; valid only for packed columns or node items.
func (r *reader) node(i int) xdm.NodeRef {
	if r.col.items != nil {
		return r.col.items[i].Node()
	}
	k := r.col.packed[i]
	if s := k &^ uint64(1<<32-1); s != r.last || r.doc == nil {
		r.last = s
		r.doc = r.col.docs.doc(uint32(k >> 32))
	}
	return xdm.NodeRef{D: r.doc, Pre: int32(uint32(k))}
}

// docDict maps the stamp half of packed identities back to documents.
// It is append-only while exactly one builder owns it and strictly
// read-only once any column references it — builders seeded with a shared
// dictionary clone before growing, so concurrent shards never observe a
// mutation.
type docDict struct {
	m map[uint32]*xdm.Document
}

func newDocDict() *docDict { return &docDict{m: map[uint32]*xdm.Document{}} }

func (d *docDict) doc(stamp uint32) *xdm.Document {
	doc, ok := d.m[stamp]
	if !ok {
		panic(fmt.Sprintf("algebra: packed column references unknown document stamp %d", stamp))
	}
	return doc
}

func (d *docDict) unpack(k uint64) xdm.NodeRef {
	return xdm.NodeRef{D: d.doc(uint32(k >> 32)), Pre: int32(uint32(k))}
}

// has reports whether the document is already interned.
func (d *docDict) has(doc *xdm.Document) bool {
	_, ok := d.m[uint32(doc.Stamp())]
	return ok
}

func (d *docDict) intern(doc *xdm.Document) {
	d.m[uint32(doc.Stamp())] = doc
}

func (d *docDict) clone() *docDict {
	out := newDocDict()
	for s, doc := range d.m {
		out.m[s] = doc
	}
	return out
}

// maxPackedDocs bounds the dictionary size a builder will grow before
// degrading to generic storage: packing is a win when many nodes share few
// documents (steps, fixpoint feeds), and a loss for constructor output,
// where every row mints a fresh single-node document and the dictionary
// would grow one entry per row.
const maxPackedDocs = 64

// colForm names a column's storage form. formNone is a builder that has
// not seen a value yet; a finished empty column counts as formNode.
type colForm uint8

const (
	formNone colForm = iota
	formNode
	formInt
	formGeneric
)

// form reports the column's storage form.
func (c *Column) form() colForm {
	switch {
	case c.items != nil:
		return formGeneric
	case c.ints != nil:
		return formInt
	}
	return formNode
}

// wordCol is the one-word image of a packed or int column: the nodeKey64
// identity of a node, the float64 bits of an integer. It is the image
// packItem gives the same values, so equal words draw exactly the identity
// and join-match boundaries of the generic ikey path within one form,
// integers beyond 2⁵³ included. Words of different forms never compare:
// a node word may equal an integer's bits.
type wordCol struct {
	packed []uint64
	ints   []int64
}

func (w wordCol) at(i int) uint64 {
	if w.ints != nil {
		return math.Float64bits(float64(w.ints[i]))
	}
	return w.packed[i]
}

// words returns the column's word image; ok is false for generic columns.
func (c *Column) words() (w wordCol, ok bool) {
	return wordCol{packed: c.packed, ints: c.ints}, c.items == nil
}

// colBuilder accumulates one output column, typing optimistically: it
// stays packed while every appended value is a node over a bounded set of
// documents, stays int while every value is an integer, and degrades to
// generic items on the first value of another kind (or when the document
// set blows past maxPackedDocs).
type colBuilder struct {
	packed  []uint64
	ints    []int64
	items   []xdm.Item
	dict    *docDict
	lastDoc *xdm.Document // builder-local intern fast path
	hint    int           // expected value count; backing allocated lazily
	ownDict bool          // false while dict is shared with a source column
	form    colForm
}

// newColBuilder sizes the builder for about n values. No backing vector is
// allocated until the first append decides the form, so a column that
// turns out generic never pays for a discarded typed vector.
func newColBuilder(n int) *colBuilder {
	return &colBuilder{hint: n}
}

// shareDict seeds the builder with a source column's dictionary without
// copying it; the builder clones on first growth (appendNode of a document
// the source never saw), so the shared map is never mutated.
func (b *colBuilder) shareDict(d *docDict) {
	if b.dict == nil && d != nil {
		b.dict, b.ownDict = d, false
	}
}

func (b *colBuilder) len() int {
	switch b.form {
	case formGeneric:
		return len(b.items)
	case formInt:
		return len(b.ints)
	}
	return len(b.packed)
}

// degrade materializes the typed prefix as items and switches the builder
// to generic storage.
func (b *colBuilder) degrade() {
	if b.form == formGeneric {
		return
	}
	n := b.len()
	items := make([]xdm.Item, n, max(n, b.hint))
	for i := range items {
		if b.form == formInt {
			items[i] = xdm.NewInteger(b.ints[i])
		} else {
			items[i] = xdm.NewNode(b.dict.unpack(b.packed[i]))
		}
	}
	b.items = items
	b.packed, b.ints = nil, nil
	b.form = formGeneric
}

func (b *colBuilder) appendNode(n xdm.NodeRef) {
	if b.form == formInt {
		b.degrade()
	}
	if b.form == formGeneric {
		b.items = append(b.items, xdm.NewNode(n))
		return
	}
	if b.form == formNone {
		b.form = formNode
		if b.hint > 0 {
			b.packed = make([]uint64, 0, b.hint)
		}
	}
	if b.dict == nil {
		b.dict, b.ownDict = newDocDict(), true
	}
	if b.lastDoc != n.D && !b.dict.has(n.D) {
		if len(b.dict.m) >= maxPackedDocs {
			b.degrade()
			b.items = append(b.items, xdm.NewNode(n))
			return
		}
		if !b.ownDict {
			b.dict, b.ownDict = b.dict.clone(), true
		}
		b.dict.intern(n.D)
	}
	b.lastDoc = n.D
	b.packed = append(b.packed, nodeKey64(n))
}

func (b *colBuilder) appendInt(v int64) {
	switch b.form {
	case formNone:
		b.form = formInt
		if b.hint > 0 {
			b.ints = make([]int64, 0, b.hint)
		}
	case formNode:
		b.degrade()
	}
	if b.form == formGeneric {
		b.items = append(b.items, xdm.NewInteger(v))
		return
	}
	b.ints = append(b.ints, v)
}

func (b *colBuilder) append(it xdm.Item) {
	switch it.Kind() {
	case xdm.KNode:
		b.appendNode(it.Node())
	case xdm.KInteger:
		b.appendInt(it.Int())
	default:
		b.degrade()
		b.items = append(b.items, it)
	}
}

func (b *colBuilder) finish() *Column {
	switch {
	case b.form == formGeneric:
		return &Column{items: b.items}
	case b.form == formInt:
		return &Column{ints: b.ints}
	case len(b.packed) == 0:
		return &Column{}
	}
	return &Column{packed: b.packed, docs: b.dict}
}

// genericColumn wraps an item slice (caller transfers ownership).
func genericColumn(items []xdm.Item) *Column {
	if len(items) == 0 {
		return &Column{}
	}
	return &Column{items: items}
}

// intColumn wraps an integer slice (caller transfers ownership).
func intColumn(ints []int64) *Column {
	if len(ints) == 0 {
		return &Column{}
	}
	return &Column{ints: ints}
}

// columnFromItems builds a column from values, typing node-only and
// integer-only runs.
func columnFromItems(items []xdm.Item) *Column {
	b := newColBuilder(len(items))
	for _, it := range items {
		b.append(it)
	}
	return b.finish()
}

// repeatColumn is the constant column: n copies of one value (attach).
func repeatColumn(it xdm.Item, n int) *Column {
	if n == 0 {
		return &Column{}
	}
	switch it.Kind() {
	case xdm.KNode:
		d := newDocDict()
		d.intern(it.Node().D)
		k := nodeKey64(it.Node())
		packed := make([]uint64, n)
		for i := range packed {
			packed[i] = k
		}
		return &Column{packed: packed, docs: d}
	case xdm.KInteger:
		ints := make([]int64, n)
		for i := range ints {
			ints[i] = it.Int()
		}
		return &Column{ints: ints}
	}
	items := make([]xdm.Item, n)
	for i := range items {
		items[i] = it
	}
	return &Column{items: items}
}

// intRangeColumn is the dense 1..n integer column (row tagging).
func intRangeColumn(n int) *Column {
	if n == 0 {
		return &Column{}
	}
	ints := make([]int64, n)
	for i := range ints {
		ints[i] = int64(i + 1)
	}
	return &Column{ints: ints, dense: true}
}

// gather builds the column of c's values at the given row indices. Typed
// sources stay typed — packed ones share the dictionary (a gather never
// introduces a new document) — so gathering them is a pure word copy.
func (c *Column) gather(idx []int32) *Column {
	if len(idx) == 0 {
		return &Column{}
	}
	switch c.form() {
	case formInt:
		ints := make([]int64, len(idx))
		for i, r := range idx {
			ints[i] = c.ints[r]
		}
		return &Column{ints: ints}
	case formGeneric:
		items := make([]xdm.Item, len(idx))
		for i, r := range idx {
			items[i] = c.items[r]
		}
		return &Column{items: items}
	}
	packed := make([]uint64, len(idx))
	for i, r := range idx {
		packed[i] = c.packed[r]
	}
	return &Column{packed: packed, docs: c.docs}
}

// expandRuns replicates value i counts[i] times, in order — the run-length
// twin of gather used by the segment-sharing step path, where one context
// row fans out into len(segment) result rows. total is the known output
// length (the sum of counts). Typed sources stay typed, exactly like
// gather.
func (c *Column) expandRuns(counts []int32, total int) *Column {
	if total == 0 {
		return &Column{}
	}
	switch c.form() {
	case formInt:
		return &Column{ints: expand(c.ints, counts, total)}
	case formGeneric:
		return &Column{items: expand(c.items, counts, total)}
	}
	return &Column{packed: expand(c.packed, counts, total), docs: c.docs}
}

func expand[T any](vals []T, counts []int32, total int) []T {
	out := make([]T, 0, total)
	for i, v := range vals {
		for j := int32(0); j < counts[i]; j++ {
			out = append(out, v)
		}
	}
	return out
}

// concatColumns concatenates column chunks into one column. Inputs of one
// typed form keep it (packed dictionaries merge, or share when there is
// only one distinct dictionary); any generic chunk, or a mix of forms,
// degrades the result.
func concatColumns(chunks []*Column) *Column {
	total, form := 0, formNone
	var dict *docDict
	oneDict := true
	for _, c := range chunks {
		total += c.Len()
		if c.Len() == 0 {
			continue
		}
		switch f := c.form(); {
		case form == formNone:
			form = f
		case f != form:
			form = formGeneric
		}
		if c.IsPacked() {
			if dict == nil {
				dict = c.docs
			} else if c.docs != dict {
				oneDict = false
			}
		}
	}
	switch form {
	case formNone:
		return &Column{}
	case formInt:
		out := make([]int64, 0, total)
		for _, c := range chunks {
			out = append(out, c.ints...)
		}
		return &Column{ints: out}
	case formNode:
		out := make([]uint64, 0, total)
		for _, c := range chunks {
			out = append(out, c.packed...)
		}
		if !oneDict {
			merged := newDocDict()
			for _, c := range chunks {
				if c.docs == nil {
					continue
				}
				for s, doc := range c.docs.m {
					merged.m[s] = doc
				}
			}
			dict = merged
		}
		return &Column{packed: out, docs: dict}
	}
	items := make([]xdm.Item, 0, total)
	for _, c := range chunks {
		if c.items != nil {
			items = append(items, c.items...)
			continue
		}
		r := c.reader()
		for i := 0; i < c.Len(); i++ {
			items = append(items, r.item(i))
		}
	}
	return &Column{items: items}
}

// packedNodeColumn builds a node column from refs, degrading past the
// dictionary bound exactly like a builder would.
func packedNodeColumn(nodes []xdm.NodeRef) *Column {
	b := newColBuilder(len(nodes))
	for _, n := range nodes {
		b.appendNode(n)
	}
	return b.finish()
}
