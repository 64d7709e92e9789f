package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/xdm"
)

// These property tests pin the typed kernels — joins, δ, bag difference,
// row numbering and comparisons over packed and int columns — to the generic
// ikey path: every operator runs once on a randomly typed table and once on
// the same table forced to generic columns, and the two results must agree
// byte for byte, column forms aside.

// colKind is one way a random test column is drawn and stored.
type colKind int

const (
	kindNodes      colKind = iota // packed nodes, unsorted
	kindSortedNode                // packed nodes, ascending
	kindInts                      // int column, small values
	kindSortedInts                // int column, non-decreasing
	kindProbe                     // int column reaching below 1 and past n
	kindDense                     // the dense 1..n row-tag column
	kindBigInts                   // int column around 2⁵³
	kindGenericInt                // integers in generic storage
	kindMixed                     // ints, equal doubles, untyped numerics, strings, nodes
	numKinds
)

var bigBase = int64(1) << 53

func randColumn(rng *rand.Rand, docs []*xdm.Document, kind colKind, n int) *Column {
	node := func() xdm.Item {
		d := docs[rng.Intn(len(docs))]
		return xdm.NewNode(xdm.NodeRef{D: d, Pre: int32(rng.Intn(d.Len()))})
	}
	items := make([]xdm.Item, n)
	for i := range items {
		switch kind {
		case kindNodes, kindSortedNode:
			items[i] = node()
		case kindInts, kindSortedInts, kindGenericInt:
			items[i] = xdm.NewInteger(int64(1 + rng.Intn(4)))
		case kindProbe:
			items[i] = xdm.NewInteger(int64(rng.Intn(n+5) - 2))
		case kindDense:
			items[i] = xdm.NewInteger(int64(i + 1))
		case kindBigInts:
			items[i] = xdm.NewInteger(bigBase + int64(rng.Intn(4)))
		case kindMixed:
			v := 1 + rng.Intn(3)
			switch rng.Intn(6) {
			case 0:
				items[i] = xdm.NewInteger(int64(v))
			case 1:
				items[i] = xdm.NewDouble(float64(v)) // 1.0e0 equals 1
			case 2:
				items[i] = xdm.NewDouble(float64(v) + 0.5)
			case 3:
				items[i] = xdm.NewUntyped(fmt.Sprintf(" %d ", v))
			case 4:
				items[i] = xdm.NewString(fmt.Sprint(v))
			default:
				items[i] = node()
			}
		}
	}
	if kind == kindSortedNode || kind == kindSortedInts {
		sort.SliceStable(items, func(a, b int) bool { return compareItems(items[a], items[b]) < 0 })
	}
	switch kind {
	case kindDense:
		return intRangeColumn(n)
	case kindGenericInt, kindMixed:
		return genericColumn(items)
	}
	return columnFromItems(items)
}

// typedTable draws a table whose columns take the given kinds, plus its
// twin forced to generic columns.
func typedTable(rng *rand.Rand, docs []*xdm.Document, names []string, kinds []colKind, n int) (typed, generic *Table) {
	cols := make([]*Column, len(names))
	gcols := make([]*Column, len(names))
	for i, k := range kinds {
		cols[i] = randColumn(rng, docs, k, n)
		gcols[i] = genericColumn(materialize(cols[i]))
	}
	return NewColTable(names, cols), NewColTable(names, gcols)
}

func randKinds(rng *rand.Rand, width int) []colKind {
	kinds := make([]colKind, width)
	for i := range kinds {
		kinds[i] = colKind(rng.Intn(int(numKinds)))
	}
	return kinds
}

// runOp evaluates one operator over literal placeholder inputs bound to the
// given tables.
func runOp(t *testing.T, n *Node, inputs ...*Table) *Table {
	t.Helper()
	ctx := &ExecContext{Parallelism: 1}
	ctx.init()
	for i, in := range inputs {
		ctx.memo[n.Kids[i]] = in
	}
	out, err := ctx.evalOp(n)
	if err != nil {
		t.Fatalf("%v: %v", n.Op, err)
	}
	return out
}

func placeholder(tab *Table) *Node { return &Node{Op: OpLit, LitCols: tab.Cols} }

// requireSameRows checks byte identity of two operator results.
func requireSameRows(t *testing.T, what string, got, want *Table) {
	t.Helper()
	if fmt.Sprint(got.Cols) != fmt.Sprint(want.Cols) {
		t.Fatalf("%s: schema %v, generic %v", what, got.Cols, want.Cols)
	}
	requireTablesIdentical(t, what, got, want)
}

func kernelDocs(rng *rand.Rand) []*xdm.Document {
	return []*xdm.Document{randDoc(rng, 12, "a.xml"), randDoc(rng, 12, "b.xml")}
}

func TestTypedJoinsMatchGeneric(t *testing.T) {
	typedRuns := 0
	for trial := 0; trial < 400; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		docs := kernelDocs(rng)
		lk, rk := randKinds(rng, 3), randKinds(rng, 3)
		// Bias toward the word paths: same-form pairs, dense build sides,
		// out-of-range probes.
		switch rng.Intn(4) {
		case 0:
			lk[0], rk[0] = kindProbe, kindDense
		case 1:
			lk[0], rk[0] = kindInts, kindInts
			lk[1], rk[1] = kindNodes, kindNodes
		case 2:
			lk[0], rk[0] = kindBigInts, kindBigInts
		}
		ln, rn := rng.Intn(12), rng.Intn(12)
		if rng.Intn(8) == 0 {
			ln = 0
		}
		l, lg := typedTable(rng, docs, []string{"a", "b", "c"}, lk, ln)
		r, rg := typedTable(rng, docs, []string{"x", "y", "z"}, rk, rn)
		preds := []JoinPred{{L: "a", R: "x", Cmp: NumEq}}
		if rng.Intn(2) == 0 {
			preds = append(preds, JoinPred{L: "b", R: "y", Cmp: NumEq})
		}
		if rng.Intn(4) == 0 {
			preds = append(preds, JoinPred{L: "c", R: "z", Cmp: NumLe})
		}
		if _, ok := wordKeys([]*Column{l.cols[0]}); ok && r.cols[0].form() == l.cols[0].form() {
			typedRuns++
		}
		for _, op := range []OpKind{OpJoin, OpSemiJoin, OpAntiJoin} {
			n := &Node{Op: op, Kids: []*Node{placeholder(l), placeholder(r)}, Preds: preds}
			what := fmt.Sprintf("trial %d %v %v kinds %v/%v", trial, op, preds, lk, rk)
			requireSameRows(t, what, runOp(t, n, l, r), runOp(t, n, lg, rg))
		}
	}
	if typedRuns < 100 {
		t.Fatalf("only %d trials joined typed key columns", typedRuns)
	}
}

func TestTypedRowOpsMatchGeneric(t *testing.T) {
	for trial := 0; trial < 400; trial++ {
		rng := rand.New(rand.NewSource(int64(11000 + trial)))
		docs := kernelDocs(rng)
		width := 1 + rng.Intn(3)
		names := []string{"a", "b", "c"}[:width]
		kinds := randKinds(rng, width)
		n := rng.Intn(16)
		if rng.Intn(8) == 0 {
			n = 0
		}
		l, lg := typedTable(rng, docs, names, kinds, n)
		what := fmt.Sprintf("trial %d kinds %v rows %d", trial, kinds, n)

		d := &Node{Op: OpDistinct, Kids: []*Node{placeholder(l)}}
		requireSameRows(t, what+" distinct", runOp(t, d, l), runOp(t, d, lg))

		// The right side reuses the left's kinds, or draws its own.
		rkinds := kinds
		if rng.Intn(3) == 0 {
			rkinds = randKinds(rng, width)
		}
		r, rg := typedTable(rng, docs, names, rkinds, rng.Intn(16))
		df := &Node{Op: OpDiff, Kids: []*Node{placeholder(l), placeholder(r)}}
		requireSameRows(t, what+" diff", runOp(t, df, l, r), runOp(t, df, lg, rg))

		for _, op := range []NumKind{NumEq, NumNe, NumLt, NumLe, NumGt, NumGe, NumValCmpEq, NumAdd} {
			num := &Node{Op: OpNumOp, Kids: []*Node{placeholder(l)}, Col: "v", Num: op,
				NumArgs: []string{names[0], names[width-1]}}
			requireSameRows(t, what+fmt.Sprintf(" numop %v", op), runOp(t, num, l), runOp(t, num, lg))
		}

		groups := names[:rng.Intn(width)]
		rn := &Node{Op: OpRowNum, Kids: []*Node{placeholder(l)}, Col: "rank",
			SortCols: []string{names[width-1]}, GroupCols: groups, Desc: rng.Intn(3) == 0}
		what += fmt.Sprintf(" rownum %v desc=%v", groups, rn.Desc)
		got := runOp(t, rn, l)
		requireSameRows(t, what, got, runOp(t, rn, lg))
		// Both paths share the skip-the-sort shortcut, so ranks are also
		// checked against a sort-always reference.
		want := rowNumOracle(lg, rn)
		for r := 0; r < got.Len(); r++ {
			if rank := got.At(r, width).Int(); rank != want[r] {
				t.Fatalf("%s: row %d rank %d, reference %d", what, r, rank, want[r])
			}
		}
	}
}

// rowNumOracle ranks rows the way ϱ did before the word kernels: a stable
// sort by the sort column, then a running count per partition ikey (which,
// unlike exactKey, collapses integers through float64).
func rowNumOracle(t *Table, n *Node) []int64 {
	order := make([]int, t.Len())
	for i := range order {
		order[i] = i
	}
	s := t.Col(n.SortCols[0])
	sort.SliceStable(order, func(a, b int) bool {
		c := compareItems(t.At(order[a], s), t.At(order[b], s))
		if n.Desc {
			return c > 0
		}
		return c < 0
	})
	counts := map[string]int64{}
	ranks := make([]int64, t.Len())
	for _, r := range order {
		key := ""
		for _, g := range n.GroupCols {
			key += fmt.Sprintf("%#v\x01", itemIKey(t.At(r, t.Col(g))))
		}
		counts[key]++
		ranks[r] = counts[key]
	}
	return ranks
}

// TestWordFormsNeverMatch: a node word may equal an integer's float64 bits;
// joins and bag difference must still never pair a node with an integer.
func TestWordFormsNeverMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	doc := randDoc(rng, 3, "a.xml")
	one := math.Float64bits(1)
	dict := newDocDict()
	dict.m[uint32(one>>32)] = doc
	nodes := NewColTable([]string{"a"}, []*Column{{packed: []uint64{one}, docs: dict}})
	ints := NewColTable([]string{"a"}, []*Column{intRangeColumn(1)})
	for _, op := range []OpKind{OpJoin, OpSemiJoin, OpAntiJoin, OpDiff} {
		for _, pair := range [][2]*Table{{nodes, ints}, {ints, nodes}} {
			n := &Node{Op: op, Kids: []*Node{placeholder(pair[0]), placeholder(pair[1])},
				Preds: []JoinPred{{L: "a", R: "a", Cmp: NumEq}}}
			want := 0
			if op == OpAntiJoin || op == OpDiff {
				want = 1
			}
			if got := runOp(t, n, pair[0], pair[1]).Len(); got != want {
				t.Errorf("%v of %v and %v columns: %d rows, want %d", op,
					pair[0].cols[0].form(), pair[1].cols[0].form(), got, want)
			}
		}
	}
}

// TestTypedFormsSurviveColumnOps: gather, expandRuns and concat keep the int
// form (and drop the dense mark where the values move), and mixing forms
// degrades to generic storage without changing a value.
func TestTypedFormsSurviveColumnOps(t *testing.T) {
	dense := intRangeColumn(5)
	if !dense.dense || dense.form() != formInt {
		t.Fatal("row-tag column is not a dense int column")
	}
	g := dense.gather([]int32{4, 0, 0})
	if g.form() != formInt || g.dense || g.Item(0).Int() != 5 {
		t.Fatalf("gather of a dense column: form %v dense %v first %v", g.form(), g.dense, g.Item(0))
	}
	e := dense.expandRuns([]int32{0, 2, 0, 0, 1}, 3)
	if e.form() != formInt || e.Item(1).Int() != 2 || e.Item(2).Int() != 5 {
		t.Fatalf("expandRuns of an int column: form %v", e.form())
	}
	if c := concatColumns([]*Column{dense, {}, g}); c.form() != formInt || c.Len() != 8 {
		t.Fatalf("concat of int columns: form %v len %d", c.form(), c.Len())
	}
	rng := rand.New(rand.NewSource(3))
	doc := randDoc(rng, 5, "a.xml")
	nodes := packedNodeColumn([]xdm.NodeRef{doc.Root()})
	mixed := concatColumns([]*Column{dense, nodes})
	if mixed.form() != formGeneric || !mixed.Item(5).IsNode() || mixed.Item(4).Int() != 5 {
		t.Fatalf("concat of int and node columns: form %v", mixed.form())
	}
	b := newColBuilder(2)
	b.append(xdm.NewInteger(7))
	b.append(xdm.NewNode(doc.Root()))
	if c := b.finish(); c.form() != formGeneric || c.Item(0).Int() != 7 {
		t.Fatalf("builder mixing ints and nodes: form %v", c.form())
	}
}
