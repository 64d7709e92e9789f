// Package opt is the property-driven plan optimizer: a rewrite layer
// between the loop-lifting compiler and the relational executor. It mirrors
// Pathfinder's peephole optimization pipeline — the part of the paper's
// MonetDB/XQuery substrate whose performance story rests on algebraic
// rewriting rather than operator speed alone: property inference annotates
// every plan node (live columns, key sets, duplicate-freedom, node-only
// columns, loop dependence), and a rule engine applies semantics-preserving
// rewrites to a fixed point (dead-column pruning, selection pushdown,
// distinct elimination over keyed inputs, join→semijoin reduction,
// projection collapsing) before a final hash-consing pass merges
// structurally identical sub-plans so the executor's DAG memoization fires
// on equal-but-not-pointer-shared subtrees.
//
// Every rewrite preserves the executed relation exactly — row multiset AND
// row order — so -O0 and -O1 plans produce byte-identical results and
// identical fixpoint instrumentation (guarded by internal/difftest).
package opt

import (
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/xq/ast"
)

// Props are the inferred static properties of one plan node's output.
type Props struct {
	// Keys holds key sets: column sets on which no two output rows agree.
	// Any key set implies the full rows are duplicate-free. An empty key
	// set means the relation holds at most one row.
	Keys [][]string
	// NodeOnly marks columns that provably hold nodes in every row — the
	// columns the columnar executor packs to (doc-stamp, pre) words.
	NodeOnly map[string]bool
	// LoopDep reports whether the subtree reaches an OpRecBase leaf, i.e.
	// the node must be re-evaluated on every fixpoint round.
	LoopDep bool
}

// Distinct reports whether the node's rows are provably duplicate-free.
func (p *Props) Distinct() bool { return len(p.Keys) > 0 }

// HasKeyWithin reports whether some key set is contained in cols.
func (p *Props) HasKeyWithin(cols map[string]bool) bool {
	for _, k := range p.Keys {
		ok := true
		for _, c := range k {
			if !cols[c] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// maxKeys bounds the key sets tracked per node (join/cross products would
// otherwise grow combinatorially).
const maxKeys = 4

// Analysis memoizes inferred properties over one plan DAG.
type Analysis struct {
	props map[*algebra.Node]*Props
}

// Analyze infers properties bottom-up for every node reachable from root.
func Analyze(root *algebra.Node) *Analysis {
	a := &Analysis{props: map[*algebra.Node]*Props{}}
	a.infer(root)
	return a
}

// Props returns the inferred properties of n (inferring on first use, so
// the analysis can serve nodes off the original DAG lazily).
func (a *Analysis) Props(n *algebra.Node) *Props { return a.infer(n) }

func (a *Analysis) infer(n *algebra.Node) *Props {
	if p, ok := a.props[n]; ok {
		return p
	}
	p := &Props{NodeOnly: map[string]bool{}}
	a.props[n] = p // DAGs are acyclic; pre-registering guards stray cycles
	kids := make([]*Props, len(n.Kids))
	for i, k := range n.Kids {
		kids[i] = a.infer(k)
		p.LoopDep = p.LoopDep || kids[i].LoopDep
	}
	switch n.Op {
	case algebra.OpLit:
		if len(n.Rows) <= 1 {
			p.Keys = [][]string{{}}
		}
		for c, name := range n.LitCols {
			nodeOnly := len(n.Rows) > 0
			for _, row := range n.Rows {
				if !row[c].IsNode() {
					nodeOnly = false
					break
				}
			}
			if nodeOnly {
				p.NodeOnly[name] = true
			}
		}
	case algebra.OpDoc:
		p.Keys = [][]string{{}}
		p.NodeOnly["item"] = true
	case algebra.OpRecBase, algebra.OpRecDelta, algebra.OpMu:
		// µ results, recursion-base feeds, and per-round deltas are iterSets
		// tables: nodes deduplicated per iteration, pos the per-iteration rank.
		p.Keys = [][]string{{"item", "iter"}, {"iter", "pos"}}
		p.NodeOnly["item"] = true
		p.LoopDep = p.LoopDep || n.Op != algebra.OpMu
	case algebra.OpProject:
		// A key set survives a projection when every key column keeps at
		// least one output name; node-onlyness follows the rename.
		outsOf := map[string][]string{}
		for _, pr := range n.Proj {
			outsOf[pr.In] = append(outsOf[pr.In], pr.Out)
			if kids[0].NodeOnly[pr.In] {
				p.NodeOnly[pr.Out] = true
			}
		}
		for _, key := range kids[0].Keys {
			mapped := make([]string, 0, len(key))
			ok := true
			for _, c := range key {
				outs := outsOf[c]
				if len(outs) == 0 {
					ok = false
					break
				}
				mapped = append(mapped, outs[0])
			}
			if ok {
				p.addKey(mapped)
			}
		}
	case algebra.OpAttach:
		p.Keys = kids[0].Keys
		p.copyNodeOnly(kids[0])
		if n.Val.IsNode() {
			p.NodeOnly[n.Col] = true
		}
	case algebra.OpSelect, algebra.OpSemiJoin, algebra.OpAntiJoin:
		// Row subsets: left/input keys and column contents survive.
		p.Keys = kids[0].Keys
		p.copyNodeOnly(kids[0])
	case algebra.OpDistinct:
		p.copyNodeOnly(kids[0])
		for _, k := range kids[0].Keys {
			p.addKey(k)
		}
		p.addKey(append([]string{}, n.Kids[0].Schema()...))
	case algebra.OpJoin:
		p.copyNodeOnly(kids[0])
		p.copyNodeOnly(kids[1])
		var eqL, eqR []string
		for _, pr := range n.Preds {
			if pr.Cmp == algebra.NumEq {
				eqL = append(eqL, pr.L)
				eqR = append(eqR, pr.R)
			}
		}
		// A keyed side bounds the other side's match count to one, so the
		// other side's keys survive; pairwise unions always key the product.
		if kids[1].HasKeyWithin(toSet(eqR)) {
			for _, k := range kids[0].Keys {
				p.addKey(k)
			}
		}
		if kids[0].HasKeyWithin(toSet(eqL)) {
			for _, k := range kids[1].Keys {
				p.addKey(k)
			}
		}
		p.addPairKeys(kids[0].Keys, kids[1].Keys)
	case algebra.OpCross:
		p.copyNodeOnly(kids[0])
		p.copyNodeOnly(kids[1])
		p.addPairKeys(kids[0].Keys, kids[1].Keys)
	case algebra.OpUnion:
		// Concatenation: no keys survive; a column stays node-only when it
		// is node-only on both inputs (schemas align by name).
		for c := range kids[0].NodeOnly {
			if kids[1].NodeOnly[c] {
				p.NodeOnly[c] = true
			}
		}
	case algebra.OpDiff:
		// A sub-bag of the left input.
		p.Keys = kids[0].Keys
		p.copyNodeOnly(kids[0])
	case algebra.OpGroupCount:
		p.addKey(append([]string{}, n.GroupCols...))
		for _, c := range n.GroupCols {
			if kids[0].NodeOnly[c] {
				p.NodeOnly[c] = true
			}
		}
	case algebra.OpNumOp:
		p.Keys = kids[0].Keys
		p.copyNodeOnly(kids[0])
		if n.Num == algebra.NumRootOf && len(n.NumArgs) == 1 && kids[0].NodeOnly[n.NumArgs[0]] {
			p.NodeOnly[n.Col] = true
		}
	case algebra.OpRowTag:
		p.copyNodeOnly(kids[0])
		for _, k := range kids[0].Keys {
			p.addKey(k)
		}
		p.addKey([]string{n.Col})
	case algebra.OpRowNum:
		p.copyNodeOnly(kids[0])
		for _, k := range kids[0].Keys {
			p.addKey(k)
		}
		p.addKey(append(append([]string{}, n.GroupCols...), n.Col))
	case algebra.OpStep:
		// One output row per (input row, distinct axis match): a key not
		// involving the replaced context column extends by it. On the
		// child, attribute and self axes distinct contexts have disjoint
		// match sets, so a key containing the context column holds as is.
		p.copyNodeOnly(kids[0])
		p.NodeOnly[n.ItemCol] = true
		disjoint := n.Axis == ast.AxisChild || n.Axis == ast.AxisAttribute || n.Axis == ast.AxisSelf
		for _, k := range kids[0].Keys {
			switch {
			case !contains(k, n.ItemCol):
				p.addKey(append(append([]string{}, k...), n.ItemCol))
			case disjoint:
				p.addKey(k)
			}
		}
	case algebra.OpIDLookup:
		// Repeated IDREF tokens can emit the same match twice per row: no
		// keys survive.
		p.copyNodeOnly(kids[0])
		p.NodeOnly[n.ItemCol] = true
	case algebra.OpCtor:
		// At most one constructed node per live loop iteration.
		if kids[0].HasKeyWithin(map[string]bool{"iter": true}) {
			p.addKey([]string{"iter"})
		}
		p.NodeOnly["item"] = true
	}
	return p
}

func (p *Props) addKey(key []string) {
	if len(p.Keys) >= maxKeys {
		return
	}
	k := append([]string{}, key...)
	sort.Strings(k)
	for _, have := range p.Keys {
		if equalStrings(have, k) {
			return
		}
	}
	p.Keys = append(p.Keys, k)
}

func (p *Props) addPairKeys(l, r [][]string) {
	for _, kl := range l {
		for _, kr := range r {
			p.addKey(append(append([]string{}, kl...), kr...))
		}
	}
}

func (p *Props) copyNodeOnly(kid *Props) {
	for c := range kid.NodeOnly {
		p.NodeOnly[c] = true
	}
}

func toSet(cols []string) map[string]bool {
	s := make(map[string]bool, len(cols))
	for _, c := range cols {
		s[c] = true
	}
	return s
}

func contains(cols []string, c string) bool {
	for _, x := range cols {
		if x == c {
			return true
		}
	}
	return false
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Annotation renders a node's properties for explain output: live columns
// are rendered by the rewriter (it owns liveness); this covers the
// bottom-up properties. Deterministic and compact, e.g.
// "key=(iter,item) node=(item) rec".
func (a *Analysis) Annotation(n *algebra.Node) string {
	p, ok := a.props[n]
	if !ok {
		return ""
	}
	var parts []string
	if len(p.Keys) > 0 {
		keys := make([]string, len(p.Keys))
		for i, k := range p.Keys {
			keys[i] = "(" + strings.Join(k, ",") + ")"
		}
		sort.Strings(keys)
		parts = append(parts, "key="+strings.Join(keys, ""))
	}
	if len(p.NodeOnly) > 0 {
		cols := make([]string, 0, len(p.NodeOnly))
		for c := range p.NodeOnly {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		parts = append(parts, "node=("+strings.Join(cols, ",")+")")
	}
	if p.LoopDep {
		parts = append(parts, "rec")
	}
	return strings.Join(parts, " ")
}
