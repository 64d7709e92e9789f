package algebra

import (
	"context"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/xdm"
)

// evalMu executes the algebraic fixpoint operators µ (Naïve) and µ∆
// (Delta) of Section 4.1 on core.Iterate, the round loop the interpreter
// shares. Unlike the interpreter, the relational fixpoint is set-oriented:
// one µ execution iterates the body over *all* live iterations of the
// enclosing loop simultaneously (the way MonetDB/XQuery evaluates the
// bidder network's per-person recursion in bulk), so the value flowing
// around the loop is an iterSets family, and the run converges when no
// iteration's node set grows.
//
// What is left here is the relational payload step: loop-invariant
// hoisting (sub-plans that do not depend on the recursion base stay
// memoized across rounds; only rec-dependent nodes re-evaluate), binding
// the feed and delta tables, and turning the result into a table.
func (ctx *ExecContext) evalMu(n *Node) (*Table, error) {
	seedT, err := ctx.kid(n, 0)
	if err != nil {
		return nil, err
	}
	run := ctx.muAgg[n]
	if run == nil {
		run = &MuRun{Delta: n.Delta}
		ctx.muAgg[n] = run
	}
	run.Executions++
	alg := core.Naive
	if n.Delta {
		alg = core.Delta
	}
	cfg := core.Config{
		MaxIterations: ctx.MaxIterations,
		Parallelism:   ctx.Parallelism,
		Context:       ctx.Ctx,
		Budget:        ctx.Budget,
	}
	if tr := ctx.Trace; tr != nil {
		site, ok := ctx.muSite[n]
		if !ok {
			label := "µ"
			if n.Delta {
				label = "µ∆"
			}
			site = tr.AddSite(label)
			ctx.muSite[n] = site
		}
		cfg.Trace, cfg.TraceSite = tr, site
	}
	deps := ctx.bodyDeps(n)
	// The optimizer's delta-fed step rewrite replaces eligible recursion-base
	// chains with OpRecDelta leaves. Bind only the feeds the body actually
	// reads: -O0 plans never contain recdelta, so useDelta stays false and
	// the evaluation (tables built, budget charges, stats) is byte-identical
	// to the unrewritten path. A Naïve body reading recdelta sees only the
	// previous round's growth; for a body certified linear in the recursion
	// variable that is answer- and stats-preserving (opt/deltarules.go).
	useBase, useDelta := false, false
	for dep := range deps {
		switch dep.Op {
		case OpRecBase:
			useBase = useBase || dep == n.RecBase
		case OpRecDelta:
			useDelta = useDelta || dep.RecBase == n.RecBase
		}
	}
	workers := ctx.workers()
	apply := func(feed, delta *iterSets) (*iterSets, error) {
		for dep := range deps {
			delete(ctx.memo, dep)
		}
		// The previous round's feed table and rec-dependent intermediates
		// become collectible here: their memo entries were just dropped,
		// and columnar tables own their vectors outright — no shared slab
		// pins O(rounds × result) rows across rounds. The feed's rows are
		// charged by core.Iterate; a separate delta table is charged here.
		var ft *Table
		if useBase || !useDelta {
			ft = feed.table()
			ctx.binding[n.RecBase] = ft
		}
		if useDelta {
			dt := ft
			if delta != feed {
				dt = delta.table()
				if err := ctx.chargeTable(dt); err != nil {
					return nil, err
				}
			} else if dt == nil {
				dt = delta.table()
			}
			ctx.deltaBind[n.RecBase] = dt
		}
		out, err := ctx.eval(n.Kids[1])
		if err != nil {
			return nil, err
		}
		return newIterSetsN(out, workers, ctx.Ctx)
	}
	seed, err := newIterSetsN(seedT, workers, ctx.Ctx)
	if err != nil {
		return nil, err
	}
	res := emptyIterSets()
	st, err := core.Iterate(alg, res, seed, apply, cfg)
	run.Stats.Add(st)
	if err != nil {
		return nil, err
	}
	delete(ctx.binding, n.RecBase)
	delete(ctx.deltaBind, n.RecBase)
	for dep := range deps {
		delete(ctx.memo, dep)
	}
	return res.table(), nil
}

// bodyDeps returns the µ body's rec-dependent node set — the nodes whose
// memo entries must drop every round while everything else stays hoisted —
// cached per µ site across re-executions.
func (ctx *ExecContext) bodyDeps(mu *Node) map[*Node]bool {
	d, ok := ctx.muDeps[mu]
	if !ok {
		d = RecDependents(mu.Kids[1], mu)
		ctx.muDeps[mu] = d
	}
	return d
}

// RecDependents collects the sub-plan nodes reachable from root that
// contain an OpRecBase or OpRecDelta leaf: the loop-dependence property.
//
// With mu non-nil, root is mu's body and the set is what every round of mu
// must re-evaluate while everything else stays hoisted in the memo cache.
// It then also holds the constructors compiled inside mu's own body (their
// RecBase is mu's) and everything above them: every evaluation mints fresh
// node identities, so a body that returns constructed nodes grows res every
// round, as in the interpreter, and its IFP is undefined (Definition 2.1)
// instead of converging on one memoized node. Any other constructor is not
// followed. One bound outside mu's body (by a let or for around the µ) is
// evaluated once per execution of mu and keeps its identity, as the
// interpreter's variable binding does; one inside a nested µ is re-evaluated
// by that µ, which itself contains a recursion base.
func RecDependents(root, mu *Node) map[*Node]bool {
	memo := map[*Node]bool{}
	var walk func(n *Node) bool
	walk = func(n *Node) bool {
		if v, ok := memo[n]; ok {
			return v
		}
		leaf := n.Op == OpRecBase || n.Op == OpRecDelta
		if mu != nil && n.Op == OpCtor {
			if n.RecBase != mu.RecBase {
				memo[n] = false
				return false
			}
			leaf = true
		}
		memo[n] = leaf // guards against cycles (none expected)
		dep := leaf
		for _, k := range n.Kids {
			if walk(k) {
				dep = true
			}
		}
		memo[n] = dep
		return dep
	}
	walk(root)
	out := map[*Node]bool{}
	for n, dep := range memo {
		if dep {
			out[n] = true
		}
	}
	return out
}

// iterSet is one iteration's node set: members in document order plus a
// per-document bitmap for O(1) identity tests.
type iterSet struct {
	rep   xdm.Item
	nodes []xdm.NodeRef
	seen  xdm.NodeSet
}

// iterSets is the per-iteration node-set family: the value flowing around
// the µ loop. Items are deduplicated per iteration and kept in document
// order. Iterations are looked up by the word their iter value packs to
// (packItem: loop-lifted iters are integers) in a wordTable whose ids are
// positions in iters and sets.
type iterSets struct {
	iters []xdm.Item // distinct iter values, insertion order
	sets  []*iterSet // parallel to iters
	words *wordTable
	other map[ikey]uint64 // serial words of iters packItem cannot pack
	n     int
}

func emptyIterSets() *iterSets {
	return &iterSets{words: newWordTable(0)}
}

// newIterSets ingests an iter|…|item table, deduplicating per iter and
// sorting into document order. Non-node items are a type error: the IFP is
// defined over node()* (Definition 2.1).
func newIterSets(t *Table) (*iterSets, error) { return newIterSetsN(t, 1, nil) }

// newIterSetsN is newIterSets with the per-iteration document-order sorts
// sharded across the worker pool. Ingest stays sequential (it builds the
// shared iter index); each set's sort is independent, so sharding them
// changes nothing observable. A packed item column feeds node references
// straight off the identity vector — no Item is ever built; only a generic
// column can carry the non-node values Definition 2.1 rules out. An int
// iter column resolves each run of equal iters with one lookup.
func newIterSetsN(t *Table, workers int, cctx context.Context) (*iterSets, error) {
	s := emptyIterSets()
	iterCol := t.ColAt(t.Col("iter"))
	iters := iterCol.reader()
	items := t.ColAt(t.Col("item"))
	itemR := items.reader()
	var cur *iterSet
	for i := 0; i < t.Len(); i++ {
		if !items.IsNodeAt(i) {
			return nil, xdm.NewError(xdm.ErrType, "inflationary fixed point over non-node items")
		}
		if cur == nil || iterCol.ints == nil || iterCol.ints[i] != iterCol.ints[i-1] {
			cur = s.set(iters.item(i))
		}
		s.addTo(cur, itemR.node(i))
	}
	if workers <= 1 || len(s.sets) < 2 {
		s.sortAll()
		return s, nil
	}
	if err := par.Run(cctx, workers, len(s.sets), func(i int) error {
		xdm.SortNodes(s.sets[i].nodes)
		return nil
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// key returns iter's lookup words: its packItem image, or for a value
// without one (strings, doubles) a serial word under tag 0, which packItem
// never uses.
func (s *iterSets) key(iter xdm.Item) (tag, word uint64) {
	if k, ok := packItem(iter); ok {
		return k.tag, k.val
	}
	ik := itemIKey(iter)
	w, ok := s.other[ik]
	if !ok {
		if s.other == nil {
			s.other = map[ikey]uint64{}
		}
		w = uint64(len(s.other))
		s.other[ik] = w
	}
	return 0, w
}

// set returns the set of iter, creating it empty on first sight.
func (s *iterSets) set(iter xdm.Item) *iterSet {
	id, fresh := s.words.insert(s.key(iter))
	if fresh {
		s.iters = append(s.iters, iter)
		s.sets = append(s.sets, &iterSet{rep: iter})
	}
	return s.sets[id]
}

// addTo adds node to one of s's sets unless it is already there.
func (s *iterSets) addTo(set *iterSet, node xdm.NodeRef) {
	if set.seen.Add(node) {
		set.nodes = append(set.nodes, node)
		s.n++
	}
}

func (s *iterSets) sortAll() {
	for _, set := range s.sets {
		xdm.SortNodes(set.nodes)
	}
}

// Len is the family's node count, summed over its iterations.
func (s *iterSets) Len() int { return s.n }

// Feed is the family as a payload input: itself. A µ body reads it through
// table, never mutating it.
func (s *iterSets) Feed() *iterSets { return s }

// Absorb folds another family — each of its sets already sorted, as
// newIterSetsN leaves them — into s in place and returns the genuinely new
// part: per iteration, the nodes not previously in s, in document order.
// The returned delta is read-only (fed back through table, never mutated).
//
// An empty s adopts o wholesale and is itself the delta: the seeding round
// copies nothing, and the next round, whose feed and delta are then the
// same family, builds one table for both.
//
// Otherwise the per-iteration work is sharded across the worker pool:
// within one round, distinct iterations' sets are disjoint — their bitmap
// dedups and sorted-run merges never touch shared state — so they shard
// freely. Set creation (phase 1) and the bookkeeping that fixes the
// delta's iteration order (phase 3) stay sequential; only the O(nodes)
// middle runs on workers. The delta is assembled in o's iteration order,
// making the result byte-identical at every worker count. The only error
// is the context's, with s possibly part-mutated — callers abort the whole
// execution on cancellation, so the partial state is never observed.
func (s *iterSets) Absorb(o *iterSets, workers int, cctx context.Context) (*iterSets, error) {
	if len(s.iters) == 0 {
		*s = *o
		return s, nil
	}
	targets := make([]*iterSet, len(o.iters))
	for i, iter := range o.iters {
		targets[i] = s.set(iter)
	}
	fresh := make([][]xdm.NodeRef, len(targets))
	absorbOne := func(i int) {
		set := targets[i]
		var f []xdm.NodeRef
		for _, nd := range o.sets[i].nodes {
			if set.seen.Add(nd) {
				f = append(f, nd)
			}
		}
		if len(f) > 0 {
			set.nodes = xdm.MergeSortedNodes(set.nodes, f)
		}
		fresh[i] = f
	}
	if workers > 1 && len(targets) > 1 {
		if err := par.Run(cctx, workers, len(targets), func(i int) error {
			absorbOne(i)
			return nil
		}); err != nil {
			return nil, err
		}
	} else {
		for i := range targets {
			absorbOne(i)
		}
	}
	delta := emptyIterSets()
	for i, iter := range o.iters {
		f := fresh[i]
		if len(f) == 0 {
			continue
		}
		s.n += len(f)
		delta.set(iter).nodes = f
		delta.n += len(f)
	}
	return delta, nil
}

// table materializes the sets as an iter|pos|item relation with pos the
// document-order rank within each iteration. Iterations are emitted in a
// deterministic order. The layout is columnar: three vectors for the whole
// family — iter and pos as int columns, the item column packed to identity
// words — instead of one row allocation per node, which is what makes the
// per-round µ feed cheap.
func (s *iterSets) table() *Table {
	order := make([]int, len(s.iters))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return compareItems(s.iters[order[i]], s.iters[order[j]]) < 0 })
	iterB := newColBuilder(s.n)
	pos := make([]int64, 0, s.n)
	itemB := newColBuilder(s.n)
	for _, i := range order {
		for p, n := range s.sets[i].nodes {
			iterB.append(s.iters[i])
			pos = append(pos, int64(p+1))
			itemB.appendNode(n)
		}
	}
	return NewColTable([]string{"iter", "pos", "item"},
		[]*Column{iterB.finish(), intColumn(pos), itemB.finish()})
}

// evalCtor executes a constructor operator: Kids[0] is the loop relation
// (one element/attribute/text node is built per live iteration), Kids[1]
// the iter|pos|item content plan. Attribute items must precede content;
// runs of atomic items merge into space-separated text nodes; node items
// are deep-copied — every execution mints fresh identities, which is why ε
// blocks distributivity (Table 1).
func (ctx *ExecContext) evalCtor(n *Node) (*Table, error) {
	loop, err := ctx.kid(n, 0)
	if err != nil {
		return nil, err
	}
	content, err := ctx.kid(n, 1)
	if err != nil {
		return nil, err
	}
	iterR := content.ColAt(content.Col("iter")).reader()
	posVals := materialize(content.ColAt(content.Col("pos")))
	itemVals := materialize(content.ColAt(content.Col("item")))
	byIter := map[ikey][]int32{}
	for i := 0; i < content.Len(); i++ {
		k := itemIKey(iterR.item(i))
		byIter[k] = append(byIter[k], int32(i))
	}
	loopIter := loop.ColAt(loop.Col("iter")).reader()
	iterV := make([]xdm.Item, 0, loop.Len())
	itemV := make([]xdm.Item, 0, loop.Len())
	var scratch []xdm.Item // reused across loop rows; buildCtorNode copies out
	for li := 0; li < loop.Len(); li++ {
		iter := loopIter.item(li)
		idx := byIter[itemIKey(iter)]
		sort.SliceStable(idx, func(a, b int) bool {
			return compareItems(posVals[idx[a]], posVals[idx[b]]) < 0
		})
		scratch = scratch[:0]
		for _, r := range idx {
			scratch = append(scratch, itemVals[r])
		}
		node, err := buildCtorNode(n, scratch)
		if err != nil {
			return nil, err
		}
		if node != nil {
			iterV = append(iterV, iter)
			itemV = append(itemV, *node)
		}
	}
	// The item column stays generic by construction: every constructed node
	// lives in its own fresh document, exactly the shape packing loses on.
	return NewColTable([]string{"iter", "pos", "item"}, []*Column{
		columnFromItems(iterV),
		repeatColumn(xdm.NewInteger(1), len(iterV)),
		genericColumn(itemV),
	}), nil
}

func buildCtorNode(n *Node, items []xdm.Item) (*xdm.Item, error) {
	switch n.Ctor {
	case CtorText:
		if len(items) == 0 {
			return nil, nil
		}
		parts := make([]string, len(items))
		for i, it := range items {
			parts[i] = it.StringValue()
		}
		it := xdm.NewNode(xdm.NewLeafDoc(xdm.TextNode, "", strings.Join(parts, " ")))
		return &it, nil
	case CtorAttr:
		parts := make([]string, len(items))
		for i, it := range items {
			parts[i] = it.StringValue()
		}
		it := xdm.NewNode(xdm.NewLeafDoc(xdm.AttributeNode, n.CtorName, strings.Join(parts, " ")))
		return &it, nil
	case CtorElem:
		b := xdm.NewBuilder("")
		b.StartElement(n.CtorName)
		contentStarted := false
		var atomics []string
		flush := func() {
			if len(atomics) > 0 {
				b.Text(strings.Join(atomics, " "))
				atomics = nil
			}
		}
		for _, it := range items {
			if !it.IsNode() {
				atomics = append(atomics, it.StringValue())
				contentStarted = true
				continue
			}
			node := it.Node()
			if node.Kind() == xdm.AttributeNode {
				if contentStarted {
					return nil, xdm.NewError("XQTY0024", "attribute follows element content in constructor")
				}
				b.Attribute(node.Name(), node.Value())
				continue
			}
			flush()
			contentStarted = true
			b.CopyTree(node)
		}
		flush()
		b.EndElement()
		it := xdm.NewNode(xdm.NodeRef{D: b.Done(), Pre: 1})
		return &it, nil
	}
	return nil, xdm.NewError(xdm.ErrType, "algebra: unknown constructor kind")
}
