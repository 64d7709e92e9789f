package algebra

import (
	"math"
	"strings"

	"repro/internal/xdm"
)

// ikey is a comparable exact-identity key for one item: node identity for
// nodes, (kind, value) for atomics. Namespace kinds > 64 encode the
// general-comparison promotion namespaces used by hash joins.
type ikey struct {
	kind uint8
	doc  *xdm.Document
	pre  int32
	num  float64
	str  string
}

const (
	ikNode uint8 = iota
	ikString
	ikUntyped
	ikInteger
	ikDouble
	ikBoolTrue
	ikBoolFalse
	// join namespaces (buildKeys/probeKeys)
	ikJoinStr // string-comparison namespace
	ikJoinN   // numeric namespace probed by numerics
	ikJoinM   // numeric namespace probed by untyped
)

func itemIKey(it xdm.Item) ikey {
	switch it.Kind() {
	case xdm.KNode:
		n := it.Node()
		return ikey{kind: ikNode, doc: n.D, pre: n.Pre}
	case xdm.KString:
		return ikey{kind: ikString, str: it.StringValue()}
	case xdm.KUntyped:
		return ikey{kind: ikUntyped, str: it.StringValue()}
	case xdm.KInteger:
		return ikey{kind: ikInteger, num: float64(it.Int())}
	case xdm.KDouble:
		return ikey{kind: ikDouble, num: it.Float()}
	case xdm.KBoolean:
		if it.Bool() {
			return ikey{kind: ikBoolTrue}
		}
		return ikey{kind: ikBoolFalse}
	}
	return ikey{kind: 255}
}

// ikey2 and ikey3 are composite row keys.
type ikey2 struct{ a, b ikey }
type ikey3 struct{ a, b, c ikey }

// nodeKey64 packs a node identity into a single word: the document's
// global creation stamp in the high half, the preorder rank in the low.
// Stamps are a monotone counter starting at 1; the packing is injective
// for the first 2³² documents of a process, and the guard turns the
// (constructor-heavy-server) overflow case into a loud failure instead of
// silent key collisions in joins, dedup, and fixpoint accumulation.
func nodeKey64(n xdm.NodeRef) uint64 {
	stamp := uint64(n.D.Stamp())
	if stamp>>32 != 0 {
		panic("algebra: document stamp exceeds the packed node-key space (2^32 documents)")
	}
	return stamp<<32 | uint64(uint32(n.Pre))
}

// pk is a packed exact-identity key: a kind tag plus one word of payload.
// Only kinds whose identity fits a word pack — nodes, integers, booleans;
// strings (and doubles, whose NaN map semantics the ikey float field
// deliberately preserves) fall back to the generic ikey path.
type pk struct {
	tag uint64 // 1 = node, 2 = integer, 3 = boolean
	val uint64
}

// packItem reports whether the item's exact identity fits a pk. Integers
// pack as the bits of their float64 image — the same collapse the ikey
// num field applies — so packed and generic paths draw identical
// distinct-row boundaries for every value, including integers beyond 2⁵³.
func packItem(it xdm.Item) (pk, bool) {
	switch it.Kind() {
	case xdm.KNode:
		return pk{1, nodeKey64(it.Node())}, true
	case xdm.KInteger:
		return pk{2, math.Float64bits(float64(it.Int()))}, true
	case xdm.KBoolean:
		if it.Bool() {
			return pk{3, 1}, true
		}
		return pk{3, 0}, true
	}
	return pk{}, false
}

// buildIKeys/probeIKeys realize general-comparison promotion through
// multi-key insertion and probing (see the scheme documented on buildKeys).
// An item yields at most two keys, so callers pass a stack array to fill
// and get a count back — joins insert and probe millions of rows, and a
// heap-allocated key slice per row was the executor's top allocation site.
func buildIKeys(dst *[2]ikey, it xdm.Item) int {
	switch it.Kind() {
	case xdm.KNode:
		n := it.Node()
		dst[0] = ikey{kind: ikNode, doc: n.D, pre: n.Pre}
		return 1
	case xdm.KString:
		dst[0] = ikey{kind: ikJoinStr, str: it.StringValue()}
		return 1
	case xdm.KUntyped:
		dst[0] = ikey{kind: ikJoinStr, str: it.StringValue()}
		if f, err := xdm.ParseDouble(strings.TrimSpace(it.StringValue())); err == nil {
			dst[1] = ikey{kind: ikJoinN, num: f}
			return 2
		}
		return 1
	case xdm.KInteger:
		f := float64(it.Int())
		dst[0] = ikey{kind: ikJoinN, num: f}
		dst[1] = ikey{kind: ikJoinM, num: f}
		return 2
	case xdm.KDouble:
		dst[0] = ikey{kind: ikJoinN, num: it.Float()}
		dst[1] = ikey{kind: ikJoinM, num: it.Float()}
		return 2
	case xdm.KBoolean:
		if it.Bool() {
			dst[0] = ikey{kind: ikBoolTrue}
		} else {
			dst[0] = ikey{kind: ikBoolFalse}
		}
		return 1
	}
	dst[0] = ikey{kind: 255}
	return 1
}

func probeIKeys(dst *[2]ikey, it xdm.Item) int {
	switch it.Kind() {
	case xdm.KNode:
		n := it.Node()
		dst[0] = ikey{kind: ikNode, doc: n.D, pre: n.Pre}
		return 1
	case xdm.KString:
		dst[0] = ikey{kind: ikJoinStr, str: it.StringValue()}
		return 1
	case xdm.KUntyped:
		dst[0] = ikey{kind: ikJoinStr, str: it.StringValue()}
		if f, err := xdm.ParseDouble(strings.TrimSpace(it.StringValue())); err == nil {
			dst[1] = ikey{kind: ikJoinM, num: f}
			return 2
		}
		return 1
	case xdm.KInteger:
		dst[0] = ikey{kind: ikJoinN, num: float64(it.Int())}
		return 1
	case xdm.KDouble:
		dst[0] = ikey{kind: ikJoinN, num: it.Float()}
		return 1
	case xdm.KBoolean:
		if it.Bool() {
			dst[0] = ikey{kind: ikBoolTrue}
		} else {
			dst[0] = ikey{kind: ikBoolFalse}
		}
		return 1
	}
	dst[0] = ikey{kind: 255}
	return 1
}

// rowSet tracks distinct rows of generic columns: widths 1–3 on ikey
// tuples without string building, wider rows on encoded strings. Rows
// whose columns all have word images take the wordTable instead.
type rowSet struct {
	w  int
	k1 map[ikey]struct{}
	k2 map[ikey2]struct{}
	k3 map[ikey3]struct{}
	ks map[string]struct{}
}

func newRowSet(width int) *rowSet {
	s := &rowSet{w: width}
	switch width {
	case 1:
		s.k1 = map[ikey]struct{}{}
	case 2:
		s.k2 = map[ikey2]struct{}{}
	case 3:
		s.k3 = map[ikey3]struct{}{}
	default:
		s.ks = map[string]struct{}{}
	}
	return s
}

// insert reports whether the row was new.
func (s *rowSet) insert(row []xdm.Item, idx []int) bool {
	switch s.w {
	case 1:
		return insertKey(s.k1, itemIKey(row[idx[0]]))
	case 2:
		return insertKey(s.k2, ikey2{itemIKey(row[idx[0]]), itemIKey(row[idx[1]])})
	case 3:
		return insertKey(s.k3, ikey3{itemIKey(row[idx[0]]), itemIKey(row[idx[1]]), itemIKey(row[idx[2]])})
	}
	return insertKey(s.ks, wideKey(row, idx))
}

func insertKey[K comparable](m map[K]struct{}, k K) bool {
	if _, dup := m[k]; dup {
		return false
	}
	m[k] = struct{}{}
	return true
}

// wideKey encodes a row of more than three columns as one string.
func wideKey(row []xdm.Item, idx []int) string {
	parts := make([]string, len(idx))
	for i, c := range idx {
		parts[i] = exactKey(row[c])
	}
	return strings.Join(parts, "\x01")
}

// rowCounter counts row multiplicities (bag difference) of generic
// columns, keyed like rowSet.
type rowCounter struct {
	w  int
	k1 map[ikey]int
	k2 map[ikey2]int
	ks map[string]int
}

func newRowCounter(width int) *rowCounter {
	c := &rowCounter{w: width}
	switch width {
	case 1:
		c.k1 = map[ikey]int{}
	case 2:
		c.k2 = map[ikey2]int{}
	default:
		c.ks = map[string]int{}
	}
	return c
}

func (c *rowCounter) add(row []xdm.Item, idx []int, delta int) int {
	switch c.w {
	case 1:
		return addCount(c.k1, itemIKey(row[idx[0]]), delta)
	case 2:
		return addCount(c.k2, ikey2{itemIKey(row[idx[0]]), itemIKey(row[idx[1]])}, delta)
	}
	return addCount(c.ks, wideKey(row, idx), delta)
}

func addCount[K comparable](m map[K]int, k K, delta int) int {
	m[k] += delta
	return m[k]
}

// wordTable is a flat open-addressing hash table over keys of one or two
// words (one-word keys pass b = 0). insert hands out dense ids in
// first-seen order, so callers keep per-key payloads — join chains, bag
// counts, partition ids — in plain slices indexed by id. Slots hold id+1
// (0 = empty) and probe linearly; the table is presized from a row-count
// hint to stay at most half full, and doubles if the hint was short.
type wordTable struct {
	slots []int32
	a, b  []uint64 // key words by id
}

func newWordTable(hint int) *wordTable {
	n := 16
	for n < 2*hint {
		n <<= 1
	}
	return &wordTable{
		slots: make([]int32, n),
		a:     make([]uint64, 0, hint),
		b:     make([]uint64, 0, hint),
	}
}

// hashWords mixes a key (murmur3's 64-bit finalizer); integer words carry
// their entropy in the high bits, so the low bits the mask keeps must
// depend on all of them.
func hashWords(a, b uint64) uint64 {
	h := a ^ b*0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// len returns the number of distinct keys.
func (t *wordTable) len() int { return len(t.a) }

// insert returns the key's id and whether the key was new.
func (t *wordTable) insert(a, b uint64) (int32, bool) {
	if 2*(len(t.a)+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := hashWords(a, b) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			id := int32(len(t.a))
			t.a = append(t.a, a)
			t.b = append(t.b, b)
			t.slots[i] = id + 1
			return id, true
		}
		if t.a[s-1] == a && t.b[s-1] == b {
			return s - 1, false
		}
	}
}

// find returns the key's id, or -1 when absent.
func (t *wordTable) find(a, b uint64) int32 {
	mask := uint64(len(t.slots) - 1)
	for i := hashWords(a, b) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if t.a[s-1] == a && t.b[s-1] == b {
			return s - 1
		}
	}
}

func (t *wordTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	mask := uint64(len(t.slots) - 1)
	for id := range t.a {
		i := hashWords(t.a[id], t.b[id]) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(id) + 1
	}
}

// wordKeys returns the word images of one or two key columns; ok is false
// for other widths or when a column is generic.
func wordKeys(cols []*Column) ([]wordCol, bool) {
	if len(cols) == 0 || len(cols) > 2 {
		return nil, false
	}
	ws := make([]wordCol, len(cols))
	for i, c := range cols {
		w, ok := c.words()
		if !ok {
			return nil, false
		}
		ws[i] = w
	}
	return ws, true
}

// keyWords reads row r's key words (b = 0 for one-column keys).
func keyWords(ws []wordCol, r int) (a, b uint64) {
	a = ws[0].at(r)
	if len(ws) == 2 {
		b = ws[1].at(r)
	}
	return a, b
}

// sameForms reports whether two key column lists pair columns of equal
// storage form: only then do equal words mean equal values.
func sameForms(l, r []*Column) bool {
	for i := range l {
		if l[i].form() != r[i].form() {
			return false
		}
	}
	return true
}
