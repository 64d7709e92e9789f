package algebra

import (
	"repro/internal/xdm"
	"repro/internal/xq/ast"
)

// Index-probed steps. An optimizer-flagged step (Node.IndexProbe) resolves
// its concrete name test against the document's name index through
// xdm.ProbeStep, the rule the interpreter shares: the matches of
// descendant::a under a context node are a's posting list cut to the
// subtree window (pre, pre+size] — two binary searches and a sub-slice
// instead of a subtree walk — and child:: and attribute:: keep the window's
// candidates whose parent is the context node. When the walk is judged
// cheaper, it runs instead.

// stepMatches computes one context node's matches — the shared cache-miss
// core of stepRange and stepSegRange. The probe path and the walk path
// return identical slices; a pushed-down value filter (Node.ValEq) applies
// to both.
func (ctx *ExecContext) stepMatches(node xdm.NodeRef, n *Node) []xdm.NodeRef {
	matches, ok := []xdm.NodeRef(nil), false
	if n.IndexProbe && !ctx.NoIndex {
		matches, ok = indexProbe(node, n)
	}
	if !ok {
		for _, m := range axisNodes(node, n.Axis) {
			if matchTest(m, n.Test, n.Axis) {
				matches = append(matches, m)
			}
		}
	}
	if n.ValEqSet {
		kept := matches[:0:len(matches)]
		for _, m := range matches {
			if m.StringValue() == n.ValEq {
				kept = append(kept, m)
			}
		}
		matches = kept
	}
	return matches
}

// indexProbe answers an index-eligible step from the posting lists; the
// second result is false when the walk was judged cheaper.
func indexProbe(node xdm.NodeRef, n *Node) ([]xdm.NodeRef, bool) {
	kind := xdm.ElementNode
	if n.Axis == ast.AxisAttribute {
		kind = xdm.AttributeNode
	}
	var buf [8]int32
	children := n.Axis == ast.AxisChild || n.Axis == ast.AxisAttribute
	pres, ok := xdm.ProbeStep(node, n.Test.Name, kind, children, buf[:0])
	if !ok {
		return nil, false
	}
	self := n.Axis == ast.AxisDescendantOrSelf && matchTest(node, n.Test, n.Axis)
	if len(pres) == 0 && !self {
		return nil, true
	}
	out := make([]xdm.NodeRef, 0, len(pres)+1)
	if self {
		out = append(out, node)
	}
	for _, p := range pres {
		out = append(out, xdm.NodeRef{D: node.D, Pre: p})
	}
	return out, true
}
