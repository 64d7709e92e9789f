package algebra

import (
	"cmp"
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/xdm"
	"repro/internal/xq/ast"
)

// Table is a materialized relation in columnar layout: one Column vector
// per attribute, positionally aligned with Cols. The executor treats
// tables as immutable once produced, which lets operators alias column
// vectors instead of copying them — projection and rename are pointer
// copies, and a gather of a packed node column is a flat uint64 copy.
type Table struct {
	Cols []string

	cols []*Column
	n    int
	idx  map[string]int
}

// NewTable builds a table from row-major data (literal plans, tests).
// Columns holding only nodes pack to (doc-stamp, pre) identity vectors.
func NewTable(cols []string, rows [][]xdm.Item) *Table {
	t := &Table{Cols: cols, cols: make([]*Column, len(cols)), n: len(rows)}
	for c := range cols {
		b := newColBuilder(len(rows))
		for _, row := range rows {
			b.append(row[c])
		}
		t.cols[c] = b.finish()
	}
	return t
}

// NewColTable builds a table directly from column vectors; all columns
// must have equal length (mismatches are executor bugs).
func NewColTable(names []string, cols []*Column) *Table {
	t := &Table{Cols: names, cols: cols}
	if len(cols) > 0 {
		t.n = cols[0].Len()
		for i, c := range cols {
			if c.Len() != t.n {
				panic(fmt.Sprintf("algebra: column %q length %d != %d", names[i], c.Len(), t.n))
			}
		}
	}
	return t
}

// Len returns the row count.
func (t *Table) Len() int { return t.n }

// ColAt returns column vector i.
func (t *Table) ColAt(i int) *Column { return t.cols[i] }

// At materializes the value at row r, column c.
func (t *Table) At(r, c int) xdm.Item { return t.cols[c].Item(r) }

// Row materializes row i. It exists for the few genuinely row-oriented
// consumers (constructor assembly, result serialization, tests); bulk
// operators read column vectors instead.
func (t *Table) Row(i int) []xdm.Item {
	row := make([]xdm.Item, len(t.cols))
	for c, col := range t.cols {
		row[c] = col.Item(i)
	}
	return row
}

// gather builds the table of t's rows at the given indices (every column
// gathered; packed columns stay packed).
func (t *Table) gather(idx []int32) *Table {
	cols := make([]*Column, len(t.cols))
	for i, c := range t.cols {
		cols[i] = c.gather(idx)
	}
	return &Table{Cols: t.Cols, cols: cols, n: len(idx)}
}

// Col returns the index of a column, panicking on unknown names (schema
// mismatches are compiler bugs, not user errors).
func (t *Table) Col(name string) int {
	if t.idx == nil {
		t.idx = make(map[string]int, len(t.Cols))
		for i, c := range t.Cols {
			t.idx[c] = i
		}
	}
	i, ok := t.idx[name]
	if !ok {
		panic(fmt.Sprintf("algebra: unknown column %q in %v", name, t.Cols))
	}
	return i
}

// MuRun instruments one µ/µ∆ operator site.
type MuRun struct {
	Delta      bool
	Executions int
	Stats      core.Stats
}

// ExecContext carries everything one plan execution needs.
type ExecContext struct {
	// Docs resolves fn:doc URIs.
	Docs func(uri string) (*xdm.Document, error)
	// MaxIterations bounds fixpoint rounds (0 = core.DefaultMaxIterations).
	MaxIterations int
	// Parallelism is the worker-pool width for the µ/µ∆ round internals —
	// step joins, join probes, and per-iteration absorption all shard row
	// ranges across it (0 = GOMAXPROCS, 1 = sequential). Output order is
	// chunk-deterministic: results are byte-identical at every setting.
	Parallelism int
	// NoIndex disables the name-index probe path: optimizer-flagged steps
	// fall back to arena walks. Results are byte-identical either way —
	// the toggle exists for the difftest parity gate and the bench sweep.
	NoIndex bool
	// Ctx, when non-nil, cancels the execution between fixpoint rounds and
	// inside the sharded operators; the pool always drains before the
	// context's error is returned.
	Ctx context.Context
	// Budget, when non-nil, bounds the execution: eval charges each freshly
	// computed operator table against the row budget and polls the deadline,
	// and evalMu adds per-round deadline/round checks plus feed and growth
	// charges. All check sites run on the driving goroutine at points whose
	// order does not depend on the worker count, so a truncation error is
	// byte-identical at every parallelism setting.
	Budget *xdm.Budget
	// Trace, when non-nil, records one span per fixpoint round at every µ
	// site; Prof, when non-nil, accumulates per-operator actuals. Both are
	// read-only instrumentation — the disabled path is a nil check.
	Trace *obs.Trace
	Prof  *obs.PlanProfile

	memo      map[*Node]*Table
	binding   map[*Node]*Table // OpRecBase → current feed
	deltaBind map[*Node]*Table // OpRecBase → current round's delta (OpRecDelta reads)
	muAgg     map[*Node]*MuRun
	muDeps    map[*Node]map[*Node]bool // µ node → rec-dependent body nodes
	muSite    map[*Node]int            // µ node → Trace site index
	docs      map[string]*xdm.Document
	stepCache map[stepCacheKey][]xdm.NodeRef
	segCache  map[segKey][]uint64 // shared step segments (SegShare path)
	stepMu    sync.Mutex          // guards stepCache/segCache when step joins shard
	// childNs threads descendant evaluation time through the profiled
	// recursion so each operator's SelfNs excludes its children; see
	// evalProfiled. Only the driving goroutine touches it.
	childNs int64
}

// workers is the normalized pool width.
func (ctx *ExecContext) workers() int { return par.Workers(ctx.Parallelism) }

// cancelled reports the context's error, if any.
func (ctx *ExecContext) cancelled() error { return par.CtxErr(ctx.Ctx) }

// parMinRows is the smallest per-chunk row count worth a goroutine in the
// sharded row-wise operators; below workers × this, they run sequentially.
const parMinRows = 512

// stepCacheKey caches axis-step results per (node, axis, test): documents
// are immutable, so repeated step joins from the same node (every fixpoint
// round re-steps from the same contexts) become lookups.
type stepCacheKey struct {
	doc  *xdm.Document
	pre  int32
	axis ast.Axis
	kind ast.TestKind
	name string
	// Pushed-down value-equality filter (Node.ValEq): steps that differ
	// only in the filter must not share cache entries.
	val    string
	hasVal bool
}

// MuRuns returns the fixpoint instrumentation collected so far.
func (ctx *ExecContext) MuRuns() []MuRun {
	out := make([]MuRun, 0, len(ctx.muAgg))
	for _, r := range ctx.muAgg {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stats.NodesFedBack > out[j].Stats.NodesFedBack })
	return out
}

func (ctx *ExecContext) init() {
	if ctx.memo == nil {
		ctx.memo = map[*Node]*Table{}
		ctx.binding = map[*Node]*Table{}
		ctx.deltaBind = map[*Node]*Table{}
		ctx.muAgg = map[*Node]*MuRun{}
		ctx.muDeps = map[*Node]map[*Node]bool{}
		ctx.muSite = map[*Node]int{}
		ctx.docs = map[string]*xdm.Document{}
		ctx.stepCache = map[stepCacheKey][]xdm.NodeRef{}
		ctx.segCache = map[segKey][]uint64{}
	}
}

// Eval executes a plan DAG, memoizing shared sub-plans.
func Eval(root *Node, ctx *ExecContext) (*Table, error) {
	ctx.init()
	return ctx.eval(root)
}

func (ctx *ExecContext) eval(n *Node) (*Table, error) {
	if t, ok := ctx.memo[n]; ok {
		return t, nil
	}
	if ctx.Prof != nil {
		return ctx.evalProfiled(n)
	}
	t, err := ctx.evalOp(n)
	if err != nil {
		return nil, err
	}
	if n.Op != OpRecBase && n.Op != OpRecDelta {
		ctx.memo[n] = t
		// A memoized table was freshly materialized by this operator:
		// charge it. OpRecBase/OpRecDelta are exempt — they alias the current
		// fixpoint feeds, which evalMu charges once per round where built.
		if err := ctx.chargeTable(t); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// evalProfiled is eval's EXPLAIN ANALYZE twin: identical memoization and
// budget charging, plus per-operator actuals. Self time is derived with a
// child-time accumulator threaded through the recursion: each call zeroes
// ctx.childNs for its own children and, on return, adds its total into the
// parent's accumulator — so SelfNs is wall time minus descendant time, and
// the column sums to the plan's total. Memo hits return above without
// touching the accumulator: their (near-zero) lookup cost stays with the
// parent.
func (ctx *ExecContext) evalProfiled(n *Node) (*Table, error) {
	start := time.Now()
	outer := ctx.childNs
	ctx.childNs = 0
	t, err := ctx.evalOp(n)
	total := time.Since(start).Nanoseconds()
	self := total - ctx.childNs
	if self < 0 {
		self = 0
	}
	ctx.childNs = outer + total
	st := ctx.Prof.Op(n)
	st.Calls++
	st.SelfNs += self
	if err != nil {
		return nil, err
	}
	for _, k := range n.Kids {
		if kt, ok := ctx.memo[k]; ok {
			st.RowsIn += int64(kt.Len())
		} else if bt, ok := ctx.binding[k]; ok {
			st.RowsIn += int64(bt.Len())
		} else if k.Op == OpRecDelta {
			if dt, ok := ctx.deltaBind[k.RecBase]; ok {
				st.RowsIn += int64(dt.Len())
			}
		}
	}
	st.RowsOut += int64(t.Len())
	if opGathers(n.Op) {
		st.Gathers += int64(t.Len()) * int64(len(t.cols))
	}
	st.AllocBytes += t.approxBytes()
	if n.Op != OpRecBase && n.Op != OpRecDelta {
		ctx.memo[n] = t
		if err := ctx.chargeTable(t); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// opGathers marks the operators whose output is assembled by positional
// column gathers (selection vectors, join index vectors, step expansion) —
// the Gathers counter estimates rows × columns moved through them.
func opGathers(op OpKind) bool {
	switch op {
	case OpSelect, OpJoin, OpSemiJoin, OpAntiJoin, OpDistinct, OpDiff,
		OpStep, OpIDLookup:
		return true
	}
	return false
}

// approxBytes estimates a table's resident bytes: a packed node or int
// column costs one 8-byte word per row, a generic column one xdm.Item per
// row — the vector payload only, ignoring per-column headers.
func (t *Table) approxBytes() int64 {
	var b int64
	for _, c := range t.cols {
		if c.form() == formGeneric {
			b += int64(unsafe.Sizeof(xdm.Item{})) * int64(c.Len())
		} else {
			b += 8 * int64(c.Len())
		}
	}
	return b
}

// chargeTable accounts one freshly materialized table against the budget
// and polls the deadline — the executor's row-materialization check site.
func (ctx *ExecContext) chargeTable(t *Table) error {
	if ctx.Budget == nil {
		return nil
	}
	if err := ctx.Budget.CheckDeadline(); err != nil {
		return err
	}
	return ctx.Budget.ChargeRows(t.Len())
}

func (ctx *ExecContext) kid(n *Node, i int) (*Table, error) { return ctx.eval(n.Kids[i]) }

// aliasCols copies the column-pointer slice so an operator can swap or
// extend columns without touching the (shared, immutable) input table.
func aliasCols(t *Table) []*Column {
	out := make([]*Column, len(t.cols))
	copy(out, t.cols)
	return out
}

func (ctx *ExecContext) evalOp(n *Node) (*Table, error) {
	switch n.Op {
	case OpLit:
		return NewTable(n.LitCols, n.Rows), nil
	case OpDoc:
		d, ok := ctx.docs[n.URI]
		if !ok {
			if ctx.Docs == nil {
				return nil, xdm.Errorf(xdm.ErrDoc, "no document resolver (doc(%q))", n.URI)
			}
			var err error
			d, err = ctx.Docs(n.URI)
			if err != nil {
				return nil, err
			}
			ctx.docs[n.URI] = d
		}
		return NewColTable([]string{"item"}, []*Column{packedNodeColumn([]xdm.NodeRef{d.Root()})}), nil
	case OpRecBase:
		t, ok := ctx.binding[n]
		if !ok {
			return nil, xdm.NewError(xdm.ErrIFP, "recursion base referenced outside fixpoint")
		}
		return t, nil
	case OpRecDelta:
		t, ok := ctx.deltaBind[n.RecBase]
		if !ok {
			return nil, xdm.NewError(xdm.ErrIFP, "recursion delta referenced outside fixpoint")
		}
		return t, nil
	case OpProject:
		in, err := ctx.kid(n, 0)
		if err != nil {
			return nil, err
		}
		// π is column aliasing: rename and reorder are pointer copies.
		cols := make([]*Column, len(n.Proj))
		names := make([]string, len(n.Proj))
		for i, p := range n.Proj {
			cols[i] = in.cols[in.Col(p.In)]
			names[i] = p.Out
		}
		return &Table{Cols: names, cols: cols, n: in.n}, nil
	case OpAttach:
		in, err := ctx.kid(n, 0)
		if err != nil {
			return nil, err
		}
		return NewColTable(n.Schema(), append(aliasCols(in), repeatColumn(n.Val, in.n))), nil
	case OpSelect:
		in, err := ctx.kid(n, 0)
		if err != nil {
			return nil, err
		}
		cond := in.cols[in.Col(n.Col)]
		var sel []int32
		// Only a generic column can hold booleans.
		for i, it := range cond.items {
			if it.Kind() == xdm.KBoolean && it.Bool() {
				sel = append(sel, int32(i))
			}
		}
		return in.gather(sel), nil
	case OpJoin:
		return ctx.evalJoin(n, false, false)
	case OpSemiJoin:
		return ctx.evalJoin(n, true, false)
	case OpAntiJoin:
		return ctx.evalJoin(n, true, true)
	case OpCross:
		l, err := ctx.kid(n, 0)
		if err != nil {
			return nil, err
		}
		r, err := ctx.kid(n, 1)
		if err != nil {
			return nil, err
		}
		li := make([]int32, 0, l.n*r.n)
		ri := make([]int32, 0, l.n*r.n)
		for i := 0; i < l.n; i++ {
			for j := 0; j < r.n; j++ {
				li = append(li, int32(i))
				ri = append(ri, int32(j))
			}
		}
		return joinGather(n.Schema(), l, li, r, ri), nil
	case OpDistinct:
		in, err := ctx.kid(n, 0)
		if err != nil {
			return nil, err
		}
		return distinctTable(in), nil
	case OpUnion:
		l, err := ctx.kid(n, 0)
		if err != nil {
			return nil, err
		}
		r, err := ctx.kid(n, 1)
		if err != nil {
			return nil, err
		}
		cols := make([]*Column, len(l.Cols))
		for i, c := range l.Cols {
			cols[i] = concatColumns([]*Column{l.cols[i], r.cols[r.Col(c)]})
		}
		return &Table{Cols: l.Cols, cols: cols, n: l.n + r.n}, nil
	case OpDiff:
		l, err := ctx.kid(n, 0)
		if err != nil {
			return nil, err
		}
		r, err := ctx.kid(n, 1)
		if err != nil {
			return nil, err
		}
		return diffTable(l, r), nil
	case OpGroupCount:
		in, err := ctx.kid(n, 0)
		if err != nil {
			return nil, err
		}
		if len(n.GroupCols) != 1 {
			return nil, xdm.Errorf(xdm.ErrType, "algebra: grouped count supports one group column, got %d", len(n.GroupCols))
		}
		g := in.cols[in.Col(n.GroupCols[0])].reader()
		slot := map[ikey]int{}
		var reps []xdm.Item
		var counts []int64
		for r := 0; r < in.n; r++ {
			it := g.item(r)
			k := itemIKey(it)
			i, ok := slot[k]
			if !ok {
				i = len(reps)
				slot[k] = i
				reps = append(reps, it)
				counts = append(counts, 0)
			}
			counts[i]++
		}
		return NewColTable(n.Schema(), []*Column{columnFromItems(reps), intColumn(counts)}), nil
	case OpNumOp:
		return ctx.evalNumOp(n)
	case OpRowTag:
		in, err := ctx.kid(n, 0)
		if err != nil {
			return nil, err
		}
		return NewColTable(n.Schema(), append(aliasCols(in), intRangeColumn(in.n))), nil
	case OpRowNum:
		return ctx.evalRowNum(n)
	case OpStep:
		return ctx.evalStep(n)
	case OpIDLookup:
		return ctx.evalIDLookup(n)
	case OpCtor:
		return ctx.evalCtor(n)
	case OpMu:
		return ctx.evalMu(n)
	}
	return nil, xdm.Errorf(xdm.ErrType, "algebra: unknown operator %v", n.Op)
}

// joinGather materializes a join result: left columns gathered by li,
// right columns by ri, under the operator's output schema.
func joinGather(names []string, l *Table, li []int32, r *Table, ri []int32) *Table {
	cols := make([]*Column, 0, len(l.cols)+len(r.cols))
	for _, c := range l.cols {
		cols = append(cols, c.gather(li))
	}
	for _, c := range r.cols {
		cols = append(cols, c.gather(ri))
	}
	return &Table{Cols: names, cols: cols, n: len(li)}
}

// distinctTable is δ over the full row. Rows of one or two typed columns
// deduplicate on their key words in a presized wordTable; general rows go
// through the rowSet scratch-row path.
func distinctTable(in *Table) *Table {
	var sel []int32
	if ws, ok := wordKeys(in.cols); ok {
		set := newWordTable(in.n)
		for r := 0; r < in.n; r++ {
			if _, fresh := set.insert(keyWords(ws, r)); fresh {
				sel = append(sel, int32(r))
			}
		}
		return in.gather(sel)
	}
	idx := make([]int, len(in.cols))
	readers := make([]reader, len(in.cols))
	for i, c := range in.cols {
		idx[i] = i
		readers[i] = c.reader()
	}
	set := newRowSet(len(idx))
	row := make([]xdm.Item, len(in.cols))
	for r := 0; r < in.n; r++ {
		for c := range readers {
			row[c] = readers[c].item(r)
		}
		if set.insert(row, idx) {
			sel = append(sel, int32(r))
		}
	}
	return in.gather(sel)
}

// diffTable is bag difference (EXCEPT ALL) with right columns aligned to
// the left schema by name. Rows of one or two typed columns, paired with
// right columns of the same forms, count their key words.
func diffTable(l, r *Table) *Table {
	rcols := make([]*Column, len(l.Cols))
	for i, c := range l.Cols {
		rcols[i] = r.cols[r.Col(c)]
	}
	var sel []int32
	lw, lok := wordKeys(l.cols)
	rw, rok := wordKeys(rcols)
	if lok && rok && sameForms(l.cols, rcols) {
		set := newWordTable(r.n)
		var counts []int32
		for i := 0; i < r.n; i++ {
			id, fresh := set.insert(keyWords(rw, i))
			if fresh {
				counts = append(counts, 0)
			}
			counts[id]++
		}
		for i := 0; i < l.n; i++ {
			if id := set.find(keyWords(lw, i)); id >= 0 && counts[id] > 0 {
				counts[id]--
				continue
			}
			sel = append(sel, int32(i))
		}
		return l.gather(sel)
	}
	counts := newRowCounter(len(l.Cols))
	rrow := make([]xdm.Item, len(rcols))
	rIdent := make([]int, len(rcols))
	rReaders := make([]reader, len(rcols))
	for i, c := range rcols {
		rIdent[i] = i
		rReaders[i] = c.reader()
	}
	for i := 0; i < r.n; i++ {
		for c := range rReaders {
			rrow[c] = rReaders[c].item(i)
		}
		counts.add(rrow, rIdent, 1)
	}
	lReaders := make([]reader, len(l.cols))
	for i, c := range l.cols {
		lReaders[i] = c.reader()
	}
	lrow := make([]xdm.Item, len(l.cols))
	for i := 0; i < l.n; i++ {
		for c := range lReaders {
			lrow[c] = lReaders[c].item(i)
		}
		if counts.add(lrow, rIdent, 0) > 0 {
			counts.add(lrow, rIdent, -1)
			continue
		}
		sel = append(sel, int32(i))
	}
	return l.gather(sel)
}

// ---- keys and comparisons ---------------------------------------------

func nodeKey(n xdm.NodeRef) string {
	return "o\x00" + strconv.FormatInt(n.D.Stamp(), 36) + ":" + strconv.FormatInt(int64(n.Pre), 36)
}

// exactKey is the identity key used by δ, \ and grouping (no promotion).
func exactKey(it xdm.Item) string {
	switch it.Kind() {
	case xdm.KNode:
		return nodeKey(it.Node())
	case xdm.KString:
		return "s\x00" + it.StringValue()
	case xdm.KUntyped:
		return "u\x00" + it.StringValue()
	case xdm.KInteger:
		return "i\x00" + strconv.FormatInt(it.Int(), 10)
	case xdm.KDouble:
		return "d\x00" + strconv.FormatFloat(it.Float(), 'g', -1, 64)
	case xdm.KBoolean:
		if it.Bool() {
			return "b1"
		}
		return "b0"
	}
	return "?"
}

// compareItems orders items for ϱ and result extraction: nodes by document
// order, numerics numerically, everything else by string value; distinct
// classes order node < numeric < other (a total, deterministic order).
func compareItems(a, b xdm.Item) int {
	class := func(it xdm.Item) int {
		switch {
		case it.IsNode():
			return 0
		case it.IsNumeric():
			return 1
		default:
			return 2
		}
	}
	ca, cb := class(a), class(b)
	if ca != cb {
		return ca - cb
	}
	switch ca {
	case 0:
		an, bn := a.Node(), b.Node()
		if an.Same(bn) {
			return 0
		}
		if an.Before(bn) {
			return -1
		}
		return 1
	case 1:
		av, bv := a.NumberValue(), b.NumberValue()
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
		return 0
	default:
		return strings.Compare(a.StringValue(), b.StringValue())
	}
}

// ---- joins --------------------------------------------------------------

func (ctx *ExecContext) evalJoin(n *Node, semi, anti bool) (*Table, error) {
	l, err := ctx.kid(n, 0)
	if err != nil {
		return nil, err
	}
	r, err := ctx.kid(n, 1)
	if err != nil {
		return nil, err
	}
	var eq, theta []JoinPred
	for _, p := range n.Preds {
		if p.Cmp == NumEq {
			eq = append(eq, p)
		} else {
			theta = append(theta, p)
		}
	}
	if len(eq) > 2 {
		return nil, xdm.Errorf(xdm.ErrType, "algebra: joins support at most two equality predicates")
	}
	rEqCols := make([]*Column, len(eq))
	lEqCols := make([]*Column, len(eq))
	for i, p := range eq {
		lEqCols[i] = l.cols[l.Col(p.L)]
		rEqCols[i] = r.cols[r.Col(p.R)]
	}
	// Typed key columns join on their word images: a node only ever meets
	// the same node and an integer only an equal integer, so when every
	// predicate pairs two columns of one typed form, word equality is the
	// match relation. A dense (1..n) build column is its own index: the
	// probe value v meets build row v-1. Otherwise the build side's words
	// go into a presized wordTable whose ids head int32 chains of build
	// rows in ascending order. All other key columns take the promotion
	// scheme of buildIKeys/probeIKeys, which guarantees each matching pair
	// meets under exactly one key, so no match deduplication is needed.
	lw, lok := wordKeys(lEqCols)
	rw, rok := wordKeys(rEqCols)
	wordy := lok && rok && sameForms(lEqCols, rEqCols)
	dense := -1
	var words *wordTable
	var head, next []int32
	var idx1 map[ikey][]int32
	var idx2 map[ikey2][]int32
	var ka, kb [2]ikey // stack scratch for promoted keys
	switch {
	case wordy:
		for i, c := range rEqCols {
			if c.dense && dense < 0 {
				dense = i
			}
		}
		if dense >= 0 {
			break
		}
		words = newWordTable(r.n)
		next = make([]int32, r.n)
		for ri := r.n - 1; ri >= 0; ri-- {
			id, fresh := words.insert(keyWords(rw, ri))
			if fresh {
				head = append(head, -1)
			}
			next[ri] = head[id]
			head[id] = int32(ri)
		}
	case len(eq) == 1:
		idx1 = map[ikey][]int32{}
		ra := rEqCols[0].reader()
		for ri := 0; ri < r.n; ri++ {
			for _, k := range ka[:buildIKeys(&ka, ra.item(ri))] {
				idx1[k] = append(idx1[k], int32(ri))
			}
		}
	case len(eq) == 2:
		idx2 = map[ikey2][]int32{}
		ra, rb := rEqCols[0].reader(), rEqCols[1].reader()
		for ri := 0; ri < r.n; ri++ {
			na, nb := buildIKeys(&ka, ra.item(ri)), buildIKeys(&kb, rb.item(ri))
			for _, a := range ka[:na] {
				for _, b := range kb[:nb] {
					k := ikey2{a, b}
					idx2[k] = append(idx2[k], int32(ri))
				}
			}
		}
	}
	lThetaCols := make([]*Column, len(theta))
	rThetaCols := make([]*Column, len(theta))
	for i, p := range theta {
		lThetaCols[i] = l.cols[l.Col(p.L)]
		rThetaCols[i] = r.cols[r.Col(p.R)]
	}
	// probe matches one probe-side row range against the (now read-only)
	// indexes, producing matched index pairs — materialization is a single
	// gather after all chunks return. Sharded probing hands each chunk its
	// own readers and candidates scratch; per-chunk outputs concatenate in
	// chunk order, so the join's row order is identical at every worker
	// count.
	probe := func(lo, hi int) ([]int32, []int32) {
		var li, ri []int32
		var candidates []int32
		var pka, pkb [2]ikey // per-shard stack scratch for promoted keys
		lReaders := make([]reader, len(theta))
		rReaders := make([]reader, len(theta))
		for i := range theta {
			lReaders[i] = lThetaCols[i].reader()
			rReaders[i] = rThetaCols[i].reader()
		}
		var pa, pb reader
		if len(eq) >= 1 {
			pa = lEqCols[0].reader()
		}
		if len(eq) == 2 {
			pb = lEqCols[1].reader()
		}
		for row := lo; row < hi; row++ {
			matched := false
			candidates = candidates[:0]
			switch {
			case len(eq) == 0:
				for i := 0; i < r.n; i++ {
					candidates = append(candidates, int32(i))
				}
			case dense >= 0:
				if v := lw[dense].ints[row]; v >= 1 && v <= int64(r.n) && wordsEqual(lw, row, rw, int(v-1)) {
					candidates = append(candidates, int32(v-1))
				}
			case wordy:
				if id := words.find(keyWords(lw, row)); id >= 0 {
					for c := head[id]; c >= 0; c = next[c] {
						candidates = append(candidates, c)
					}
				}
			case len(eq) == 1:
				for _, k := range pka[:probeIKeys(&pka, pa.item(row))] {
					candidates = append(candidates, idx1[k]...)
				}
			default:
				na, nb := probeIKeys(&pka, pa.item(row)), probeIKeys(&pkb, pb.item(row))
				for _, a := range pka[:na] {
					for _, b := range pkb[:nb] {
						candidates = append(candidates, idx2[ikey2{a, b}]...)
					}
				}
			}
			for _, cand := range candidates {
				ok := true
				for i := range theta {
					if !predHolds(lReaders[i].item(row), rReaders[i].item(int(cand)), theta[i].Cmp) {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				matched = true
				if semi {
					break
				}
				li = append(li, int32(row))
				ri = append(ri, cand)
			}
			if semi && matched != anti {
				li = append(li, int32(row))
			}
		}
		return li, ri
	}
	var li, ri []int32
	workers := ctx.workers()
	if workers <= 1 || l.n < 2*parMinRows {
		if err := ctx.cancelled(); err != nil {
			return nil, err
		}
		li, ri = probe(0, l.n)
	} else {
		chunks := par.Chunks(l.n, workers, parMinRows)
		louts := make([][]int32, len(chunks))
		routs := make([][]int32, len(chunks))
		if err := par.Run(ctx.Ctx, workers, len(chunks), func(i int) error {
			louts[i], routs[i] = probe(chunks[i][0], chunks[i][1])
			return nil
		}); err != nil {
			return nil, err
		}
		li = concatIndexChunks(louts)
		ri = concatIndexChunks(routs)
	}
	if semi {
		return l.gather(li), nil
	}
	return joinGather(n.Schema(), l, li, r, ri), nil
}

// wordsEqual reports whether probe row l and build row r agree on every
// key word.
func wordsEqual(lw []wordCol, l int, rw []wordCol, r int) bool {
	for i := range lw {
		if lw[i].at(l) != rw[i].at(r) {
			return false
		}
	}
	return true
}

// predHolds evaluates one theta-join predicate, covering node comparisons
// that general-comparison promotion does not.
func predHolds(a, b xdm.Item, k NumKind) bool {
	switch k {
	case NumIs, NumPrecedes, NumFollows:
		if !a.IsNode() || !b.IsNode() {
			return false
		}
		switch k {
		case NumIs:
			return a.Node().Same(b.Node())
		case NumPrecedes:
			return a.Node().Before(b.Node())
		default:
			return b.Node().Before(a.Node())
		}
	}
	ok, err := xdm.GeneralCompareItems(a, b, numToCompOp(k))
	return err == nil && ok
}

func numToCompOp(k NumKind) xdm.CompOp {
	switch k {
	case NumEq, NumValCmpEq:
		return xdm.OpEq
	case NumNe:
		return xdm.OpNe
	case NumLt:
		return xdm.OpLt
	case NumLe:
		return xdm.OpLe
	case NumGt:
		return xdm.OpGt
	case NumGe:
		return xdm.OpGe
	}
	return xdm.OpEq
}

// ---- row-wise operators --------------------------------------------------

func (ctx *ExecContext) evalNumOp(n *Node) (*Table, error) {
	in, err := ctx.kid(n, 0)
	if err != nil {
		return nil, err
	}
	if out := intCompare(n, in); out != nil {
		return NewColTable(n.Schema(), append(aliasCols(in), out)), nil
	}
	readers := make([]reader, len(n.NumArgs))
	for i, a := range n.NumArgs {
		readers[i] = in.cols[in.Col(a)].reader()
	}
	out := newColBuilder(in.n)
	args := make([]xdm.Item, len(readers))
	for r := 0; r < in.n; r++ {
		for i := range readers {
			args[i] = readers[i].item(r)
		}
		out.append(applyNumOp(n.Num, args))
	}
	return NewColTable(n.Schema(), append(aliasCols(in), out.finish())), nil
}

// intCompare evaluates a comparison of two int columns straight off their
// payloads — integers compare exactly, as xdm.CompareValues does — and
// returns nil for any other operator or column form.
func intCompare(n *Node, in *Table) *Column {
	if len(n.NumArgs) != 2 {
		return nil
	}
	a, b := in.cols[in.Col(n.NumArgs[0])].ints, in.cols[in.Col(n.NumArgs[1])].ints
	if a == nil || b == nil {
		return nil
	}
	var holds func(c int) bool
	switch n.Num {
	case NumEq, NumValCmpEq:
		holds = func(c int) bool { return c == 0 }
	case NumNe:
		holds = func(c int) bool { return c != 0 }
	case NumLt:
		holds = func(c int) bool { return c < 0 }
	case NumLe:
		holds = func(c int) bool { return c <= 0 }
	case NumGt:
		holds = func(c int) bool { return c > 0 }
	case NumGe:
		holds = func(c int) bool { return c >= 0 }
	default:
		return nil
	}
	out := make([]xdm.Item, len(a))
	for i := range out {
		out[i] = xdm.NewBoolean(holds(cmp.Compare(a[i], b[i])))
	}
	return &Column{items: out}
}

// applyNumOp computes one ⊚ application over the fetched argument items.
// The relational engine glosses dynamic type errors (it computes over flat
// columns, not sequences): a failed comparison yields false, failed
// arithmetic yields NaN. DESIGN.md §7 records this deliberate divergence
// from the interpreter.
func applyNumOp(kind NumKind, args []xdm.Item) xdm.Item {
	arg := func(i int) xdm.Item { return args[i] }
	switch kind {
	case NumAdd, NumSub, NumMul, NumDiv, NumIDiv, NumMod:
		a := xdm.AtomizeItem(arg(0)).NumberValue()
		b := xdm.AtomizeItem(arg(1)).NumberValue()
		var f float64
		switch kind {
		case NumAdd:
			f = a + b
		case NumSub:
			f = a - b
		case NumMul:
			f = a * b
		case NumDiv:
			f = a / b
		case NumIDiv:
			return xdm.NewInteger(int64(a / b))
		case NumMod:
			f = a - b*float64(int64(a/b))
		}
		if f == float64(int64(f)) && arg(0).Kind() == xdm.KInteger && arg(1).Kind() == xdm.KInteger {
			return xdm.NewInteger(int64(f))
		}
		return xdm.NewDouble(f)
	case NumNeg:
		a := xdm.AtomizeItem(arg(0))
		if a.Kind() == xdm.KInteger {
			return xdm.NewInteger(-a.Int())
		}
		return xdm.NewDouble(-a.NumberValue())
	case NumEq, NumNe, NumLt, NumLe, NumGt, NumGe, NumValCmpEq:
		ok, err := xdm.GeneralCompareItems(arg(0), arg(1), numToCompOp(kind))
		return xdm.NewBoolean(err == nil && ok)
	case NumAnd:
		return xdm.NewBoolean(truthy(arg(0)) && truthy(arg(1)))
	case NumOr:
		return xdm.NewBoolean(truthy(arg(0)) || truthy(arg(1)))
	case NumNot:
		return xdm.NewBoolean(!truthy(arg(0)))
	case NumTruthy:
		return xdm.NewBoolean(truthy(arg(0)))
	case NumAtomize:
		return xdm.AtomizeItem(arg(0))
	case NumStringOf:
		return xdm.NewString(arg(0).StringValue())
	case NumNumberOf:
		return xdm.NewDouble(xdm.AtomizeItem(arg(0)).NumberValue())
	case NumNameOf:
		if arg(0).IsNode() {
			return xdm.NewString(arg(0).Node().Name())
		}
		return xdm.NewString("")
	case NumRootOf:
		if arg(0).IsNode() {
			return xdm.NewNode(arg(0).Node().D.Root())
		}
		return arg(0)
	case NumIs, NumPrecedes, NumFollows:
		a, b := arg(0), arg(1)
		if !a.IsNode() || !b.IsNode() {
			return xdm.NewBoolean(false)
		}
		switch kind {
		case NumIs:
			return xdm.NewBoolean(a.Node().Same(b.Node()))
		case NumPrecedes:
			return xdm.NewBoolean(a.Node().Before(b.Node()))
		default:
			return xdm.NewBoolean(b.Node().Before(a.Node()))
		}
	}
	return xdm.Item{}
}

func truthy(it xdm.Item) bool {
	b, err := xdm.EBV(xdm.Singleton(it))
	return err == nil && b
}

func (ctx *ExecContext) evalRowNum(n *Node) (*Table, error) {
	in, err := ctx.kid(n, 0)
	if err != nil {
		return nil, err
	}
	if len(n.GroupCols) > 2 {
		return nil, xdm.Errorf(xdm.ErrType, "algebra: row numbering supports at most two partition columns")
	}
	gcols := make([]*Column, len(n.GroupCols))
	for i, c := range n.GroupCols {
		gcols[i] = in.cols[in.Col(c)]
	}
	part, nparts := partitionIDs(gcols, in.n)
	cmps := make([]func(a, b int) int, len(n.SortCols))
	for i, c := range n.SortCols {
		cmps[i] = comparator(in.cols[in.Col(c)])
	}
	// before reports whether row a sorts strictly before row b.
	before := func(a, b int) bool {
		for _, compare := range cmps {
			if c := compare(a, b); c != 0 {
				if n.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	}
	order := make([]int, in.n)
	for i := range order {
		order[i] = i
	}
	// Ranks follow a stable sort, which a table already in order within
	// each partition — step output almost always is — can skip.
	last := make([]int, nparts)
	for i := range last {
		last[i] = -1
	}
	for r := 0; r < in.n; r++ {
		if l := last[part[r]]; l >= 0 && before(r, l) {
			sort.SliceStable(order, func(a, b int) bool { return before(order[a], order[b]) })
			break
		}
		last[part[r]] = r
	}
	ranks := make([]int64, in.n)
	seen := make([]int64, nparts)
	for _, r := range order {
		seen[part[r]]++
		ranks[r] = seen[part[r]]
	}
	return NewColTable(n.Schema(), append(aliasCols(in), intColumn(ranks))), nil
}

// partitionIDs numbers the distinct rows of the group columns in
// first-seen order: typed columns through a wordTable, generic ones
// through their ikeys. No group columns put every row in partition 0.
func partitionIDs(cols []*Column, n int) ([]int32, int) {
	part := make([]int32, n)
	if len(cols) == 0 {
		return part, 1
	}
	if ws, ok := wordKeys(cols); ok {
		ids := newWordTable(n)
		for r := range part {
			part[r], _ = ids.insert(keyWords(ws, r))
		}
		return part, ids.len()
	}
	ids := map[ikey2]int32{}
	readers := make([]reader, len(cols))
	for i, c := range cols {
		readers[i] = c.reader()
	}
	for r := range part {
		var k ikey2
		k.a = itemIKey(readers[0].item(r))
		if len(readers) == 2 {
			k.b = itemIKey(readers[1].item(r))
		}
		id, ok := ids[k]
		if !ok {
			id = int32(len(ids))
			ids[k] = id
		}
		part[r] = id
	}
	return part, len(ids)
}

// comparator orders a column's values by compareItems: packed node words
// order as (stamp, pre), which is document order; integers compare by
// their float64 image, as compareItems does.
func comparator(c *Column) func(a, b int) int {
	switch c.form() {
	case formInt:
		return func(a, b int) int { return cmp.Compare(float64(c.ints[a]), float64(c.ints[b])) }
	case formGeneric:
		return func(a, b int) int { return compareItems(c.items[a], c.items[b]) }
	}
	return func(a, b int) int { return cmp.Compare(c.packed[a], c.packed[b]) }
}

// materialize flattens a column into an item slice (random-access reads).
func materialize(c *Column) []xdm.Item {
	if c.items != nil {
		return c.items
	}
	out := make([]xdm.Item, c.Len())
	r := c.reader()
	for i := range out {
		out[i] = r.item(i)
	}
	return out
}

// evalStep is the XPath step join: the relational face of the staircase
// join, answering axis steps with range scans over the pre/size/level
// encoding in the xdm store. Each context row contributes one (source row,
// result node) pair per match — the output is assembled as one gather of
// the carried columns plus a fresh packed node column, so a step no longer
// copies a row per match. Large inputs shard row ranges across the worker
// pool — axis scans from distinct context nodes are independent — with
// chunk-ordered concatenation, so the output row order never depends on
// the worker count.
func (ctx *ExecContext) evalStep(n *Node) (*Table, error) {
	in, err := ctx.kid(n, 0)
	if err != nil {
		return nil, err
	}
	c := in.Col(n.ItemCol)
	if n.SegShare && in.cols[c].IsPacked() {
		// Optimizer-flagged node-only context over a packed column: assemble
		// the output from shared per-(context,axis,test) segments instead of
		// materializing a gather entry per match (step_seg.go). Generic
		// columns (>64-doc degradation, mixed provenance) keep the classic
		// path — both produce byte-identical tables.
		return ctx.evalStepSeg(n, in, c)
	}
	var src []int32
	var nodes *Column
	workers := ctx.workers()
	if workers <= 1 || in.n < 2*parMinRows {
		if err := ctx.cancelled(); err != nil {
			return nil, err
		}
		src, nodes = ctx.stepRange(n, in.cols[c], 0, in.n, false)
	} else {
		chunks := par.Chunks(in.n, workers, parMinRows)
		srcs := make([][]int32, len(chunks))
		outs := make([]*Column, len(chunks))
		if err := par.Run(ctx.Ctx, workers, len(chunks), func(i int) error {
			srcs[i], outs[i] = ctx.stepRange(n, in.cols[c], chunks[i][0], chunks[i][1], true)
			return nil
		}); err != nil {
			return nil, err
		}
		src = concatIndexChunks(srcs)
		nodes = concatColumns(outs)
	}
	cols := make([]*Column, len(in.cols))
	for i, col := range in.cols {
		if i == c {
			cols[i] = nodes
			continue
		}
		cols[i] = col.gather(src)
	}
	return &Table{Cols: in.Cols, cols: cols, n: len(src)}, nil
}

// stepRange answers the step for rows [lo, hi) of the context column,
// returning the source row index and result node per match. When the call
// is one shard of a parallel step (shared), the axis-result cache is
// accessed under stepMu; a raced miss computes the identical slice twice
// and last-write-wins, which is safe because axis scans are pure functions
// of immutable documents. Unsharded calls skip the lock — the plan walk is
// single-threaded outside par.Run sections, so nothing else can touch the
// cache concurrently. The result column shares the input's document
// dictionary: every axis stays inside its context node's document, so a
// packed input's dictionary already covers every match.
func (ctx *ExecContext) stepRange(n *Node, col *Column, lo, hi int, shared bool) ([]int32, *Column) {
	var src []int32
	b := newColBuilder(hi - lo)
	if col.IsPacked() {
		b.shareDict(col.docs)
	}
	r := col.reader()
	for i := lo; i < hi; i++ {
		if !col.IsNodeAt(i) {
			continue
		}
		node := r.node(i)
		key := stepCacheKey{doc: node.D, pre: node.Pre, axis: n.Axis, kind: n.Test.Kind, name: n.Test.Name,
			val: n.ValEq, hasVal: n.ValEqSet}
		if shared {
			ctx.stepMu.Lock()
		}
		matches, ok := ctx.stepCache[key]
		if shared {
			ctx.stepMu.Unlock()
		}
		if !ok {
			matches = ctx.stepMatches(node, n)
			if shared {
				ctx.stepMu.Lock()
			}
			ctx.stepCache[key] = matches
			if shared {
				ctx.stepMu.Unlock()
			}
		}
		for _, m := range matches {
			src = append(src, int32(i))
			b.appendNode(m)
		}
	}
	return src, b.finish()
}

// concatIndexChunks flattens per-chunk index vectors in chunk order.
func concatIndexChunks(outs [][]int32) []int32 {
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	idx := make([]int32, 0, total)
	for _, o := range outs {
		idx = append(idx, o...)
	}
	return idx
}

func axisNodes(node xdm.NodeRef, axis ast.Axis) []xdm.NodeRef {
	switch axis {
	case ast.AxisChild:
		return node.Children()
	case ast.AxisDescendant:
		return node.Descendants(false)
	case ast.AxisDescendantOrSelf:
		return node.Descendants(true)
	case ast.AxisAttribute:
		return node.Attributes()
	case ast.AxisSelf:
		return []xdm.NodeRef{node}
	case ast.AxisParent:
		if p, ok := node.Parent(); ok {
			return []xdm.NodeRef{p}
		}
		return nil
	case ast.AxisAncestor:
		return node.Ancestors(false)
	case ast.AxisAncestorOrSelf:
		return node.Ancestors(true)
	case ast.AxisFollowingSibling:
		return node.FollowingSiblings()
	case ast.AxisPrecedingSibling:
		return node.PrecedingSiblings()
	case ast.AxisFollowing:
		return node.Following()
	case ast.AxisPreceding:
		return node.Preceding()
	}
	return nil
}

// matchTest mirrors the interpreter's node-test semantics (the principal
// node kind of the attribute axis is attribute, of every other axis
// element).
func matchTest(n xdm.NodeRef, t ast.NodeTest, axis ast.Axis) bool {
	nameOK := func(pattern string) bool {
		return pattern == "" || pattern == "*" || pattern == n.Name()
	}
	switch t.Kind {
	case ast.TestName:
		if axis == ast.AxisAttribute {
			return n.Kind() == xdm.AttributeNode && nameOK(t.Name)
		}
		return n.Kind() == xdm.ElementNode && nameOK(t.Name)
	case ast.TestAnyKind:
		return true
	case ast.TestText:
		return n.Kind() == xdm.TextNode
	case ast.TestComment:
		return n.Kind() == xdm.CommentNode
	case ast.TestPI:
		return n.Kind() == xdm.PINode && (t.Name == "" || n.Name() == t.Name)
	case ast.TestElement:
		return n.Kind() == xdm.ElementNode && nameOK(t.Name)
	case ast.TestAttr:
		return n.Kind() == xdm.AttributeNode && nameOK(t.Name)
	case ast.TestDocument:
		return n.Kind() == xdm.DocumentNode
	}
	return false
}

func (ctx *ExecContext) evalIDLookup(n *Node) (*Table, error) {
	in, err := ctx.kid(n, 0)
	if err != nil {
		return nil, err
	}
	valIdx := in.Col(n.ItemCol)
	ctxCol := in.cols[in.Col(n.Col)]
	valReader := in.cols[valIdx].reader()
	var src []int32
	out := newColBuilder(in.n)
	for i := 0; i < in.n; i++ {
		if !ctxCol.IsNodeAt(i) {
			continue
		}
		doc := ctxCol.Node(i).D
		for _, tok := range strings.Fields(valReader.item(i).StringValue()) {
			if m, ok := doc.ByID(tok); ok {
				src = append(src, int32(i))
				out.appendNode(m)
			}
		}
	}
	cols := make([]*Column, len(in.cols))
	for i, col := range in.cols {
		if i == valIdx {
			cols[i] = out.finish()
			continue
		}
		cols[i] = col.gather(src)
	}
	return &Table{Cols: in.Cols, cols: cols, n: len(src)}, nil
}
