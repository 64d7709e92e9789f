package main

import (
	"runtime"

	ifpxq "repro"
	"repro/internal/algebra"
	"repro/internal/algebra/opt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/xdm"
	"repro/internal/xmldoc"
	"repro/internal/xq/interp"
	"repro/internal/xq/parser"
)

// fixSummary condenses an evaluation's fixpoint statistics the way Table 2
// reports them: nodes fed back and payload calls summed over every
// fixpoint, depth the deepest.
type fixSummary struct {
	fed, calls int64
	depth      int
	naiveFed   int64 // the part of fed fed back by Naive fixpoints
}

func (f *fixSummary) add(naive bool, st core.Stats) {
	f.fed += st.NodesFedBack
	f.calls += int64(st.PayloadCalls)
	f.depth = max(f.depth, st.Depth)
	if naive {
		f.naiveFed += st.NodesFedBack
	}
}

func summarize(fps []ifpxq.FixpointStats) fixSummary {
	var f fixSummary
	for _, fp := range fps {
		f.add(fp.Algorithm == core.Naive, fp.Stats)
	}
	return f
}

// evalPublic runs one query through the public path the end-to-end
// numbers measure: ifpxq.Parse → Query.Eval with the store → Result.String.
func evalPublic(src string, rel bool, mode ifpxq.Mode, st *store.Store) (string, fixSummary, error) {
	q, err := ifpxq.Parse(src)
	if err != nil {
		return "", fixSummary{}, err
	}
	opts := ifpxq.Options{Mode: mode, Store: st, Parallelism: 1}
	if rel {
		opts.Engine = ifpxq.EngineRelational
	}
	res, err := q.Eval(opts)
	if err != nil {
		return "", fixSummary{}, err
	}
	return res.String(), summarize(res.Fixpoints), nil
}

// evalDocs evaluates src on one engine and mode over parsed documents.
func evalDocs(src string, rel bool, mode ifpxq.Mode, docs map[string]*xdm.Document) (string, fixSummary, error) {
	q, err := ifpxq.Parse(src)
	if err != nil {
		return "", fixSummary{}, err
	}
	opts := ifpxq.Options{Mode: mode, Docs: ifpxq.DocsFromDocuments(docs), Parallelism: 1}
	if rel {
		opts.Engine = ifpxq.EngineRelational
	}
	res, err := q.Eval(opts)
	if err != nil {
		return "", fixSummary{}, err
	}
	return res.String(), summarize(res.Fixpoints), nil
}

// opAgg accumulates one relational operator kind's profile actuals.
type opAgg struct {
	selfNs, rowsIn int64
}

// layerStats accumulates the counters of a traced run's layered
// evaluations; times come from the tracer's spans.
type layerStats struct {
	relQueries, interpQueries int
	rawOps, optOps            int64
	execAlloc, interpAlloc    uint64
	rowsIn, relItems          int64
	ops                       map[string]*opAgg
	fix                       fixSummary
	queries                   int
	probes, fallbacks         int64
}

func newLayerStats() *layerStats { return &layerStats{ops: map[string]*opAgg{}} }

// evalLayered runs one query with every layer called directly and timed
// from outside: parser.Parse, algebra.CompilePlan with opt.Optimize as a
// timed hook, algebra.NewEngineFromPlan(…).Eval or interp.New(…).Eval,
// store Session.Resolve, and xmldoc.SerializeSequence. It does the same
// work as evalPublic, uncached.
func (ls *layerStats) evalLayered(t *tracer, qid int32, src string, rel bool, mode ifpxq.Mode, st *store.Store) (string, fixSummary, error) {
	var fix fixSummary
	root := t.begin("query", -1, qid)
	defer t.end(root)
	sp := t.begin("parser.parse", root, qid)
	m, err := parser.Parse(src)
	t.end(sp)
	if err != nil {
		return "", fix, err
	}
	sess := st.Session()
	defer sess.Close()
	resolveParent := root
	docs := func(uri string) (*xdm.Document, error) {
		s := t.begin("store.resolve", resolveParent, qid)
		d, err := sess.Resolve(uri)
		t.end(s)
		return d, err
	}
	probes0, falls0 := xdm.IndexCounters()
	var seq xdm.Sequence
	var before, after runtime.MemStats
	if rel {
		ls.relQueries++
		cs := t.begin("algebra.compile", root, qid)
		optimize := func(p *algebra.Plan) {
			ls.rawOps += countOps(p.Root)
			osp := t.begin("opt.optimize", cs, qid)
			opt.Optimize(p)
			t.end(osp)
			ls.optOps += countOps(p.Root)
		}
		plan, err := algebra.CompilePlan(m, relMode(mode), false, optimize, nil)
		t.end(cs)
		if err != nil {
			return "", fix, err
		}
		prof := obs.NewPlanProfile()
		runtime.ReadMemStats(&before)
		es := t.begin("algebra.exec", root, qid)
		resolveParent = es
		var runs []algebra.MuRun
		seq, runs, err = algebra.NewEngineFromPlan(plan, algebra.Options{Docs: docs, Parallelism: 1, Prof: prof}).Eval()
		t.end(es)
		runtime.ReadMemStats(&after)
		if err != nil {
			return "", fix, err
		}
		ls.execAlloc += after.TotalAlloc - before.TotalAlloc
		ls.relItems += int64(len(seq))
		ls.addProfile(plan.Root, prof)
		for _, r := range runs {
			fix.add(!r.Delta, r.Stats)
		}
	} else {
		ls.interpQueries++
		runtime.ReadMemStats(&before)
		is := t.begin("interp.eval", root, qid)
		resolveParent = is
		res, err := interp.New(m, interp.Options{Mode: interpMode(mode), Docs: docs, Parallelism: 1}).Eval()
		t.end(is)
		runtime.ReadMemStats(&after)
		if err != nil {
			return "", fix, err
		}
		ls.interpAlloc += after.TotalAlloc - before.TotalAlloc
		seq = res.Value
		for _, r := range res.IFPRuns {
			fix.add(r.Algorithm == core.Naive, r.Stats)
		}
	}
	probes1, falls1 := xdm.IndexCounters()
	ls.probes += probes1 - probes0
	ls.fallbacks += falls1 - falls0
	ss := t.begin("xmldoc.serialize", root, qid)
	out := xmldoc.SerializeSequence(seq)
	t.end(ss)
	ls.queries++
	ls.fix.fed += fix.fed
	ls.fix.naiveFed += fix.naiveFed
	ls.fix.calls += fix.calls
	ls.fix.depth += fix.depth
	return out, fix, nil
}

func relMode(m ifpxq.Mode) algebra.FixpointMode {
	switch m {
	case ifpxq.ModeNaive:
		return algebra.ModeNaive
	case ifpxq.ModeDelta:
		return algebra.ModeDelta
	}
	return algebra.ModeAuto
}

func interpMode(m ifpxq.Mode) interp.Mode {
	switch m {
	case ifpxq.ModeNaive:
		return interp.ModeNaive
	case ifpxq.ModeDelta:
		return interp.ModeDelta
	}
	return interp.ModeAuto
}

// walkPlan visits every node of a plan DAG once.
func walkPlan(root *algebra.Node, visit func(*algebra.Node)) {
	seen := map[*algebra.Node]bool{}
	var walk func(n *algebra.Node)
	walk = func(n *algebra.Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		visit(n)
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(root)
}

func countOps(root *algebra.Node) int64 {
	n := int64(0)
	walkPlan(root, func(*algebra.Node) { n++ })
	return n
}

// addProfile folds one execution's per-operator actuals into per-kind
// totals.
func (ls *layerStats) addProfile(root *algebra.Node, prof *obs.PlanProfile) {
	walkPlan(root, func(n *algebra.Node) {
		st, ok := prof.Stats(n)
		if !ok {
			return
		}
		kind := n.Op.String()
		a := ls.ops[kind]
		if a == nil {
			a = &opAgg{}
			ls.ops[kind] = a
		}
		a.selfNs += st.SelfNs
		a.rowsIn += st.RowsIn
		ls.rowsIn += st.RowsIn
	})
}

// report sets the per-layer metrics that the layered evaluations and
// their spans measure: per-query means of times, counts and allocations.
func (ls *layerStats) report(m map[string]float64, self map[string]layerTime) {
	perQ := func(x float64, n int) float64 { return ratio(x, float64(n)) }
	m["parser.parse_ms"] = self["parser.parse"].meanSelfMs()
	m["xmldoc.serialize_ms"] = self["xmldoc.serialize"].meanSelfMs()
	m["store.resolve_us"] = self["store.resolve"].meanSelfMs() * 1e3
	m["core.nodes_fed.naive"] = perQ(float64(ls.fix.naiveFed), ls.queries)
	m["core.nodes_fed.delta"] = perQ(float64(ls.fix.fed-ls.fix.naiveFed), ls.queries)
	m["core.depth"] = perQ(float64(ls.fix.depth), ls.queries)
	m["core.payload_calls"] = perQ(float64(ls.fix.calls), ls.queries)
	m["xdm.index_probes"] = perQ(float64(ls.probes), ls.queries)
	m["xdm.index_fallbacks"] = perQ(float64(ls.fallbacks), ls.queries)
	m["xdm.probe_ratio"] = ratio(float64(ls.probes), float64(ls.probes+ls.fallbacks))
	if ls.interpQueries > 0 {
		m["interp.eval_ms"] = self["interp.eval"].meanSelfMs()
		m["interp.alloc_mb"] = perQ(float64(ls.interpAlloc)/1e6, ls.interpQueries)
	}
	if ls.relQueries > 0 {
		m["algebra.compile_ms"] = self["algebra.compile"].meanSelfMs()
		m["opt.optimize_ms"] = self["opt.optimize"].meanSelfMs()
		m["algebra.plan_ops"] = perQ(float64(ls.rawOps), ls.relQueries)
		m["opt.plan_ops"] = perQ(float64(ls.optOps), ls.relQueries)
		m["algebra.exec_ms"] = self["algebra.exec"].meanSelfMs()
		m["algebra.exec_alloc_mb"] = perQ(float64(ls.execAlloc)/1e6, ls.relQueries)
		m["algebra.rows_per_result"] = ratio(float64(ls.rowsIn), float64(ls.relItems))
		for _, k := range opKinds {
			a := ls.ops[k]
			if a == nil {
				a = &opAgg{}
			}
			m["algebra.op."+k+".self_ms"] = perQ(float64(a.selfNs)/1e6, ls.relQueries)
			m["algebra.op."+k+".rows_in"] = perQ(float64(a.rowsIn), ls.relQueries)
		}
	}
	// The spans below a query root are its layers; what the root keeps for
	// itself is the benchmark's own glue (allocation probes, profile
	// folding). Their share says how much of the traced wall time the
	// layers account for.
	if q := self["query"]; q.wallNs > 0 {
		m["bench.layer_cover_pct"] = 100 * float64(q.wallNs-q.selfNs) / float64(q.wallNs)
	}
}
