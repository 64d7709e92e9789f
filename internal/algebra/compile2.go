package algebra

import (
	"fmt"
	"sort"

	"repro/internal/xdm"
	"repro/internal/xq/ast"
)

// compileSlash lowers e1/e2: each node of e1 (in distinct document order)
// becomes one inner iteration in which e2 is evaluated with that node as
// context item; results are mapped back and, for node-producing steps,
// ddo-normalized.
func (c *compiler) compileSlash(n *ast.Slash, loop *Node, env cenv) (*Node, error) {
	// Fast path: a plain axis step on the right needs no iteration map —
	// the step join applies per node, keeping the source tag for
	// per-context predicate positions (the relational face of XPath's
	// step-at-a-time evaluation). Predicates touching position()/last()
	// take the general path.
	if st, ok := n.R.(*ast.AxisStep); ok && !predsUsePosLast(st.Preds) {
		return c.compileFusedStep(n.L, st, loop, env)
	}
	q1, err := c.compile(n.L, loop, env)
	if err != nil {
		return nil, err
	}
	d := ddoNodes(q1)
	mapT := rowtag(d, "inner")
	innerLoop := project(mapT, pp("iter", "inner"))
	lifted, err := c.liftEnv(env, mapT)
	if err != nil {
		return nil, err
	}
	lifted.dot = project(mapT, pp("iter", "inner"), pp("item", "item"))
	cpos := rownum(mapT, "cp", []string{"pos"}, []string{"iter"})
	lifted.pos = project(cpos, pp("iter", "inner"), pp("item", "cp"))
	cnt := &Node{Op: OpGroupCount, Kids: []*Node{d}, GroupCols: []string{"iter"}, Col: "sz"}
	szJoin := join(mapT, project(cnt, pp("citer", "iter"), pp("sz", "sz")),
		JoinPred{L: "iter", R: "citer", Cmp: NumEq})
	lifted.last = project(szJoin, pp("iter", "inner"), pp("item", "sz"))
	r, err := c.compile(n.R, innerLoop, lifted)
	if err != nil {
		return nil, err
	}
	back := project(mapT, pp("outer", "iter"), pp("in2", "inner"), pp("spos", "pos"))
	joined := join(r, back, JoinPred{L: "iter", R: "in2", Cmp: NumEq})
	if producesAtomics(n.R) {
		rn := rownum(joined, "npos", []string{"spos", "pos"}, []string{"outer"})
		rn.Bookkeeping = true
		return project(rn, pp("iter", "outer"), pp("pos", "npos"), pp("item", "item")), nil
	}
	return ddoNodes(project(joined, pp("iter", "outer"), pp("item", "item"))), nil
}

// predsUsePosLast reports whether any predicate mentions fn:position or
// fn:last (such steps go through the general loop-lifted path).
func predsUsePosLast(preds []ast.Expr) bool {
	found := false
	for _, p := range preds {
		ast.Walk(p, func(e ast.Expr) bool {
			if fc, ok := e.(*ast.FuncCall); ok && (fc.Name == "position" || fc.Name == "last") {
				found = true
			}
			return !found
		})
	}
	return found
}

// compileFusedStep lowers L/axis::test[preds] without the per-step
// iteration map: the step join runs directly over L's nodes, tagged with
// their source row so predicate positions stay per context node.
func (c *compiler) compileFusedStep(l ast.Expr, st *ast.AxisStep, loop *Node, env cenv) (*Node, error) {
	q, err := c.fusedStepBase(l, st, loop, env)
	if err != nil {
		return nil, err
	}
	for _, p := range st.Preds {
		ranked := rownum(q, "prank", []string{"pos"}, []string{"iter", "src"})
		ranked.Template = true
		if lit, ok := p.(*ast.Literal); ok && lit.Kind == ast.LitInteger {
			eq := numop(attach(ranked, "want", xdm.NewInteger(lit.Int)), "keep", NumEq, "prank", "want")
			q = project(sel(eq, "keep"), pp("iter", "iter"), pp("pos", "pos"), pp("item", "item"), pp("src", "src"))
			continue
		}
		// Boolean predicate: one inner iteration per candidate node.
		mapT := rowtag(ranked, "inner")
		innerLoop := project(mapT, pp("iter", "inner"))
		lifted, err := c.liftEnv(env, mapT)
		if err != nil {
			return nil, err
		}
		lifted.dot = project(mapT, pp("iter", "inner"), pp("item", "item"))
		lifted.pos = project(mapT, pp("iter", "inner"), pp("item", "prank"))
		lifted.last = nil // excluded by predsUsePosLast
		ci, err := c.compileCondition(p, innerLoop, lifted)
		if err != nil {
			return nil, err
		}
		keep := semijoin(mapT, project(ci, pp("pi", "iter")),
			JoinPred{L: "inner", R: "pi", Cmp: NumEq})
		q = project(keep, pp("iter", "iter"), pp("pos", "pos"), pp("item", "item"), pp("src", "src"))
	}
	return ddoNodes(project(q, pp("iter", "iter"), pp("item", "item"))), nil
}

// fusedStepBase produces the pre-predicate step relation
// iter|pos|item|src. When the step's input (and the step itself) is
// loop-invariant and the predicates carry no positional semantics against
// it, the bare step is hoisted: compiled once in the top loop, shared
// across the plan, and crossed into the current iteration space.
func (c *compiler) fusedStepBase(l ast.Expr, st *ast.AxisStep, loop *Node, env cenv) (*Node, error) {
	allBoolean := true
	for _, p := range st.Preds {
		if lit, ok := p.(*ast.Literal); ok && lit.Kind == ast.LitInteger {
			allBoolean = false
		}
	}
	if c.topLoop != nil && loop != c.topLoop && allBoolean && c.isInvariant(l) {
		top, ok := c.hoisted[st]
		if !ok {
			bare := &ast.AxisStep{Axis: st.Axis, Test: st.Test} // predicates stay per-loop
			var err error
			top, err = c.fusedStepBase(l, bare, c.topLoop, c.topEnv)
			if err != nil {
				return nil, err
			}
			top = ddoNodes(project(top, pp("iter", "iter"), pp("item", "item")))
			c.hoisted[st] = top
		}
		adapted := &Node{Op: OpCross, Kids: []*Node{loop, project(top, pp("pos", "pos"), pp("item", "item"))}}
		return attach(adapted, "src", xdm.NewInteger(0)), nil
	}
	q1, err := c.compile(l, loop, env)
	if err != nil {
		return nil, err
	}
	m := rowtag(ddoNodes(q1), "src")
	step := &Node{Op: OpStep,
		Kids: []*Node{project(m, pp("iter", "iter"), pp("item", "item"), pp("src", "src"))},
		Axis: st.Axis, Test: st.Test, ItemCol: "item"}
	rn := rownum(step, "spos", []string{"item"}, []string{"iter", "src"})
	rn.Desc = st.Axis.Reverse()
	rn.Template = true
	return project(rn, pp("iter", "iter"), pp("pos", "spos"), pp("item", "item"), pp("src", "src")), nil
}

// producesAtomics decides statically whether the right-hand side of a path
// yields atomic values (last steps like /string() or /data(·)); everything
// else is treated as node-producing and ddo-normalized. Mixed results are
// a dynamic error in XQuery; the static split mirrors that.
func producesAtomics(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Literal:
		return true
	case *ast.FuncCall:
		switch x.Name {
		case "string", "data", "number", "name", "local-name", "count", "string-length", "position", "last":
			return true
		}
	case *ast.Binary:
		switch x.Op {
		case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv, ast.OpIDiv, ast.OpMod:
			return true
		}
	case *ast.Unary:
		return true
	}
	return false
}

// compileAxisStep lowers a context-relative axis step. The per-context
// positional machinery (ϱ ranking step results within each iteration) is
// part of the step template (Figure 7(b)) and marked accordingly.
func (c *compiler) compileAxisStep(n *ast.AxisStep, loop *Node, env cenv) (*Node, error) {
	if env.dot == nil {
		return nil, xdm.NewError(xdm.ErrCtxItem, "axis step without context item")
	}
	step := &Node{Op: OpStep, Kids: []*Node{project(env.dot, pp("iter", "iter"), pp("item", "item"))},
		Axis: n.Axis, Test: n.Test, ItemCol: "item"}
	rn := rownum(step, "pos", []string{"item"}, []string{"iter"})
	rn.Desc = n.Axis.Reverse()
	rn.Template = true
	q := project(rn, pp("iter", "iter"), pp("pos", "pos"), pp("item", "item"))
	q, err := c.compilePreds(q, n.Preds, loop, env, true)
	if err != nil {
		return nil, err
	}
	if n.Axis.Reverse() {
		q = ddoNodes(q) // axis order was reverse; results go out in doc order
	}
	return q, nil
}

// compilePreds applies predicates to an iter|pos|item plan. inStep marks
// per-context-node positional machinery as step-template internals; a
// predicate over a general primary ($x[1]) stays semantic and blocks the
// ∪ push-up, per §3.1.
func (c *compiler) compilePreds(q *Node, preds []ast.Expr, loop *Node, env cenv, inStep bool) (*Node, error) {
	for _, p := range preds {
		ranked := rownum(q, "prank", []string{"pos"}, []string{"iter"})
		ranked.Template = inStep
		if lit, ok := p.(*ast.Literal); ok && lit.Kind == ast.LitInteger {
			eq := numop(attach(ranked, "want", xdm.NewInteger(lit.Int)), "keep", NumEq, "prank", "want")
			q = project(sel(eq, "keep"), pp("iter", "iter"), pp("pos", "pos"), pp("item", "item"))
			continue
		}
		if fc, ok := p.(*ast.FuncCall); ok && fc.Name == "last" && len(fc.Args) == 0 {
			cnt := &Node{Op: OpGroupCount, Kids: []*Node{q}, GroupCols: []string{"iter"}, Col: "sz", Template: inStep}
			j := join(ranked, project(cnt, pp("citer", "iter"), pp("sz", "sz")),
				JoinPred{L: "iter", R: "citer", Cmp: NumEq})
			eq := numop(j, "keep", NumEq, "prank", "sz")
			q = project(sel(eq, "keep"), pp("iter", "iter"), pp("pos", "pos"), pp("item", "item"))
			continue
		}
		if staticallyNumeric(p) {
			return nil, unsupported("dynamic numeric predicate [%s]", ast.Format(p))
		}
		// Boolean predicate: one inner iteration per candidate row.
		mapT := rowtag(ranked, "pinner")
		innerLoop := project(mapT, pp("iter", "pinner"))
		lifted, err := c.liftEnv(env, project(mapT, pp("iter", "iter"), pp("pos", "pos"),
			pp("item", "item"), pp("inner", "pinner")))
		if err != nil {
			return nil, err
		}
		lifted.dot = project(mapT, pp("iter", "pinner"), pp("item", "item"))
		lifted.pos = project(mapT, pp("iter", "pinner"), pp("item", "prank"))
		cnt := &Node{Op: OpGroupCount, Kids: []*Node{q}, GroupCols: []string{"iter"}, Col: "sz", Template: inStep}
		szJoin := join(mapT, project(cnt, pp("citer", "iter"), pp("sz", "sz")),
			JoinPred{L: "iter", R: "citer", Cmp: NumEq})
		lifted.last = project(szJoin, pp("iter", "pinner"), pp("item", "sz"))
		ci, err := c.compileCondition(p, innerLoop, lifted)
		if err != nil {
			return nil, err
		}
		keep := semijoin(mapT, project(ci, pp("pi", "iter")),
			JoinPred{L: "pinner", R: "pi", Cmp: NumEq})
		q = project(keep, pp("iter", "iter"), pp("pos", "pos"), pp("item", "item"))
	}
	return q, nil
}

func staticallyNumeric(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Literal:
		return x.Kind != ast.LitString
	case *ast.Unary:
		return true
	case *ast.Binary:
		switch x.Op {
		case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv, ast.OpIDiv, ast.OpMod:
			return true
		}
	case *ast.FuncCall:
		switch x.Name {
		case "count", "sum", "number", "string-length":
			return true
		}
	}
	return false
}

const maxInlineDepth = 64

// compileCall lowers built-ins directly and inlines user-defined functions
// (Pathfinder-style); recursion through user functions is rejected — the
// IFP form is the supported recursion construct in the relational back-end,
// which is exactly the paper's point.
func (c *compiler) compileCall(n *ast.FuncCall, loop *Node, env cenv) (*Node, error) {
	if decl := c.module.Function(n.Name, len(n.Args)); decl != nil {
		if c.inlineDepth >= maxInlineDepth {
			return nil, unsupported(
				"recursive user-defined function %s (recast the recursion as `with … seeded by … recurse`)", n.Name)
		}
		c.inlineDepth++
		defer func() { c.inlineDepth-- }()
		body := ast.Copy(decl.Body)
		callEnv := cenv{vars: map[string]*Node{}}
		// Functions see globals, not caller locals.
		for _, g := range c.module.Vars {
			if p, ok := env.vars[g.Name]; ok {
				callEnv.vars[g.Name] = p
			}
		}
		for i, prm := range decl.Params {
			argPlan, err := c.compile(n.Args[i], loop, env)
			if err != nil {
				return nil, err
			}
			fresh := fmt.Sprintf("%s\x00%d", prm.Name, c.inlineDepth)
			body = ast.Substitute(body, prm.Name, &ast.VarRef{Name: fresh})
			callEnv.vars[fresh] = argPlan
		}
		return c.compile(body, loop, callEnv)
	}
	switch n.Name {
	case "doc":
		lit, ok := n.Args[0].(*ast.Literal)
		if !ok || lit.Kind != ast.LitString {
			return nil, unsupported("fn:doc with non-literal URI")
		}
		docLeaf := &Node{Op: OpDoc, URI: lit.Str}
		return attach(&Node{Op: OpCross, Kids: []*Node{loop, docLeaf}}, "pos", xdm.NewInteger(1)), nil
	case "count":
		if len(n.Args) != 1 {
			return nil, xdm.Errorf(xdm.ErrArity, "count expects 1 argument")
		}
		q, err := c.compile(n.Args[0], loop, env)
		if err != nil {
			return nil, err
		}
		cnt := &Node{Op: OpGroupCount, Kids: []*Node{q}, GroupCols: []string{"iter"}, Col: "cnt"}
		nonEmpty := project(cnt, pp("iter", "iter"), pp("item", "cnt"))
		zero := attach(antijoin(loop, iters(q), JoinPred{L: "iter", R: "iter", Cmp: NumEq}),
			"item", xdm.NewInteger(0))
		return attach(union(nonEmpty, zero), "pos", xdm.NewInteger(1)), nil
	case "empty", "exists", "not", "boolean", "true", "false":
		ci, err := c.compileCondition(n, loop, env)
		if err != nil {
			return nil, err
		}
		return boolify(loop, ci), nil
	case "data":
		q, err := c.compile(n.Args[0], loop, env)
		if err != nil {
			return nil, err
		}
		a := numop(q, "a", NumAtomize, "item")
		return project(a, pp("iter", "iter"), pp("pos", "pos"), pp("item", "a")), nil
	case "string", "number", "name", "local-name":
		var q *Node
		var err error
		if len(n.Args) == 0 {
			if env.dot == nil {
				return nil, xdm.NewError(xdm.ErrCtxItem, "fn:"+n.Name+" with absent context item")
			}
			q = attach(env.dot, "pos", xdm.NewInteger(1))
		} else {
			q, err = c.compile(n.Args[0], loop, env)
			if err != nil {
				return nil, err
			}
		}
		kind := map[string]NumKind{"string": NumStringOf, "number": NumNumberOf,
			"name": NumNameOf, "local-name": NumNameOf}[n.Name]
		r := numop(q, "r", kind, "item")
		mapped := project(r, pp("iter", "iter"), pp("item", "r"))
		// fn:string(()) is "" and fn:number(()) is NaN: fill empty iters.
		var fillVal xdm.Item
		if n.Name == "number" {
			fillVal = xdm.NewDouble(nan())
		} else {
			fillVal = xdm.NewString("")
		}
		fill := attach(antijoin(loop, iters(q), JoinPred{L: "iter", R: "iter", Cmp: NumEq}), "item", fillVal)
		return attach(union(mapped, fill), "pos", xdm.NewInteger(1)), nil
	case "position":
		if env.pos == nil {
			return nil, xdm.NewError(xdm.ErrCtxItem, "fn:position with absent context")
		}
		return attach(env.pos, "pos", xdm.NewInteger(1)), nil
	case "last":
		if env.last == nil {
			return nil, xdm.NewError(xdm.ErrCtxItem, "fn:last with absent context")
		}
		return attach(env.last, "pos", xdm.NewInteger(1)), nil
	case "id":
		v, err := c.compile(n.Args[0], loop, env)
		if err != nil {
			return nil, err
		}
		var ctxPlan *Node
		if len(n.Args) == 2 {
			ctxPlan, err = c.compile(n.Args[1], loop, env)
			if err != nil {
				return nil, err
			}
		} else if env.dot != nil {
			ctxPlan = attach(env.dot, "pos", xdm.NewInteger(1))
		} else {
			return nil, xdm.NewError(xdm.ErrCtxItem, "fn:id requires a node context")
		}
		ctxP := project(ctxPlan, pp("citer", "iter"), pp("cnode", "item"))
		j := join(v, ctxP, JoinPred{L: "iter", R: "citer", Cmp: NumEq})
		idl := &Node{Op: OpIDLookup, Kids: []*Node{j}, ItemCol: "item", Col: "cnode"}
		return ddoNodes(project(idl, pp("iter", "iter"), pp("item", "item"))), nil
	case "root":
		var q *Node
		var err error
		if len(n.Args) == 0 {
			if env.dot == nil {
				return nil, xdm.NewError(xdm.ErrCtxItem, "fn:root with absent context item")
			}
			q = attach(env.dot, "pos", xdm.NewInteger(1))
		} else {
			q, err = c.compile(n.Args[0], loop, env)
			if err != nil {
				return nil, err
			}
		}
		r := numop(q, "r", NumRootOf, "item")
		return project(r, pp("iter", "iter"), pp("pos", "pos"), pp("item", "r")), nil
	}
	return nil, unsupported("function %s#%d", n.Name, len(n.Args))
}

func nan() float64 {
	var f float64
	return f / f
}

// compileFixpoint lowers `with $x seeded by e_seed recurse e_rec` to the µ
// operator (Section 4.1): the body is compiled with the recursion variable
// bound to the recursion-base placeholder and the executor feeds the
// placeholder each round. Whether µ or µ∆ runs is decided by the engine
// after the algebraic distributivity check.
func (c *compiler) compileFixpoint(n *ast.Fixpoint, loop *Node, env cenv) (*Node, error) {
	seed, err := c.compile(n.Seed, loop, env)
	if err != nil {
		return nil, err
	}
	rb := &Node{Op: OpRecBase}
	outer := c.scope
	c.scope = rb
	body, err := c.compile(n.Body, loop, env.bind(n.Var, rb))
	c.scope = outer
	if err != nil {
		return nil, err
	}
	mu := &Node{Op: OpMu, Kids: []*Node{seed, body}, RecBase: rb}
	site := &MuSite{Mu: mu, Var: n.Var}
	site.Distributive = CheckDistributive(mu, true)
	site.DistributiveExt = CheckDistributive(mu, false)
	c.mus = append(c.mus, site)
	return mu, nil
}

func (c *compiler) compileElemCtor(n *ast.ElemCtor, loop *Node, env cenv) (*Node, error) {
	if n.NameExpr != nil {
		return nil, unsupported("computed element name")
	}
	parts := make([]*Node, 0, len(n.Attrs)+len(n.Content))
	for _, a := range n.Attrs {
		p, err := c.compileAttrCtor(a, loop, env)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	for _, ce := range n.Content {
		p, err := c.compile(ce, loop, env)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	var content *Node
	if len(parts) == 0 {
		content = NewLit([]string{"iter", "pos", "item", "ord"}, nil)
	} else {
		for i, p := range parts {
			tagged := attach(p, "ord", xdm.NewInteger(int64(i)))
			if content == nil {
				content = tagged
			} else {
				content = union(content, tagged)
			}
		}
	}
	rn := rownum(content, "npos", []string{"ord", "pos"}, []string{"iter"})
	rn.Bookkeeping = true
	ordered := project(rn, pp("iter", "iter"), pp("pos", "npos"), pp("item", "item"))
	return c.ctor(CtorElem, n.Name, loop, ordered), nil
}

func (c *compiler) compileAttrCtor(n *ast.AttrCtor, loop *Node, env cenv) (*Node, error) {
	if n.NameExpr != nil {
		return nil, unsupported("computed attribute name")
	}
	// Literal-only multi-part values fold at compile time; a single
	// expression part is supported; mixed parts are not (DESIGN.md §6).
	allLit := true
	folded := ""
	for _, p := range n.Content {
		if lit, ok := p.(*ast.Literal); ok && lit.Kind == ast.LitString {
			folded += lit.Str
			continue
		}
		allLit = false
	}
	var content *Node
	switch {
	case allLit:
		content = constSeq(loop, xdm.NewString(folded))
	case len(n.Content) == 1:
		q, err := c.compile(n.Content[0], loop, env)
		if err != nil {
			return nil, err
		}
		a := numop(q, "a", NumAtomize, "item")
		content = project(a, pp("iter", "iter"), pp("pos", "pos"), pp("item", "a"))
	default:
		return nil, unsupported("attribute value mixing literals and expressions")
	}
	return c.ctor(CtorAttr, n.Name, loop, content), nil
}

// ctor builds a constructor operator scoped to the innermost enclosing µ
// body, the fixpoint whose every round must re-evaluate it (RecDependents).
func (c *compiler) ctor(kind CtorKind, name string, loop, content *Node) *Node {
	return &Node{Op: OpCtor, Ctor: kind, CtorName: name, Kids: []*Node{loop, content}, RecBase: c.scope}
}

// ResultSequence extracts the XDM sequence of the top-level iteration from
// a result table (iter is constant 1 at the top loop).
func ResultSequence(t *Table) xdm.Sequence {
	posVals := materialize(t.ColAt(t.Col("pos")))
	itemVals := materialize(t.ColAt(t.Col("item")))
	order := make([]int, t.Len())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return compareItems(posVals[order[a]], posVals[order[b]]) < 0
	})
	out := make(xdm.Sequence, 0, len(order))
	for _, i := range order {
		out = append(out, itemVals[i])
	}
	return out
}
