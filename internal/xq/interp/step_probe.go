package interp

import (
	"repro/internal/xdm"
	"repro/internal/xq/ast"
)

// Index-probed axis steps. The interpreter evaluates each step by
// materializing the axis (a full subtree walk for descendant::) and
// filtering by the node test — every call, with no step cache, so a
// recursive function re-walks the document on every invocation. When the
// step names a concrete element or attribute, xdm.ProbeStep — the rule the
// relational engine shares — answers it from the document's name index
// instead, or declines when the walk is cheaper.

// stepIndexEligible reports whether an axis step can be answered from the
// name index: a forward downward axis with a concrete (non-wildcard) name
// test for that axis's principal node kind. Attribute tests on child and
// descendant axes are excluded — those walks never yield attributes.
func stepIndexEligible(axis ast.Axis, t ast.NodeTest) bool {
	if t.Name == "" || t.Name == "*" {
		return false
	}
	switch axis {
	case ast.AxisChild, ast.AxisDescendant, ast.AxisDescendantOrSelf:
		return t.Kind == ast.TestName || t.Kind == ast.TestElement
	case ast.AxisAttribute:
		return t.Kind == ast.TestName || t.Kind == ast.TestAttr
	}
	return false
}

// indexAxisNodes answers an eligible step from the posting lists; the
// second result is false when the walk was judged cheaper.
func indexAxisNodes(node xdm.NodeRef, axis ast.Axis, t ast.NodeTest) (xdm.Sequence, bool) {
	kind := xdm.ElementNode
	if axis == ast.AxisAttribute {
		kind = xdm.AttributeNode
	}
	var buf [8]int32
	children := axis == ast.AxisChild || axis == ast.AxisAttribute
	pres, ok := xdm.ProbeStep(node, t.Name, kind, children, buf[:0])
	if !ok {
		return nil, false
	}
	self := axis == ast.AxisDescendantOrSelf && matchNodeTest(node, t, axis)
	if len(pres) == 0 && !self {
		return nil, true
	}
	out := make(xdm.Sequence, 0, len(pres)+1)
	if self {
		out = append(out, xdm.NewNode(node))
	}
	for _, p := range pres {
		out = append(out, xdm.NewNode(xdm.NodeRef{D: node.D, Pre: p}))
	}
	return out, true
}
