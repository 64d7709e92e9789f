package main

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names; TestMetricCatalogMatchesManifest
// keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the user-visible metrics, printed by every untraced run
// (-trace 0) of every workload. Each is measured through the public path:
// ifpxq.Parse → Query.Eval with a store → Result.String in-process, or HTTP
// against a separate xqd process.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"suite_s", "s"},
	{"cell_ms.geomean", "ms"},
	{"req_ms.p50", "ms"},
	{"cpu_ms_per_query", "ms"},
	{"peak_rss_mb", "MB"},
}

// opKinds are the relational operator kinds whose self time and input rows
// the traced run reports (algebra.op.<kind>.*).
var opKinds = []string{"cross", "semijoin", "join", "distinct", "step", "id", "numop", "rownum", "mu"}

// perLayer are the single-layer metrics, printed by every traced run
// (-trace 1). Times are self times (span minus child spans) per call of the
// layer unless the name says otherwise. req_ms.p99 is end-to-end, but
// serve-mix's tail moves by half its median from one run to the next on a
// shared two-core box, more than any regression bound can allow, so it is
// reported here, without a bound.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"req_ms.p99", "ms"},
		{"xmldoc.parse_ms", "ms"},
		{"store.save_ms", "ms"},
		{"store.open_ms", "ms"},
		{"store.resolve_us", "us"},
		{"parser.parse_ms", "ms"},
		{"algebra.compile_ms", "ms"},
		{"algebra.plan_ops", "count"},
		{"opt.optimize_ms", "ms"},
		{"opt.plan_ops", "count"},
		{"algebra.exec_ms", "ms"},
		{"algebra.exec_alloc_mb", "MB"},
		{"algebra.rows_per_result", "ratio"},
	}
	for _, k := range opKinds {
		defs = append(defs,
			metricDef{"algebra.op." + k + ".self_ms", "ms"},
			metricDef{"algebra.op." + k + ".rows_in", "count"})
	}
	return append(defs, []metricDef{
		{"interp.eval_ms", "ms"},
		{"interp.alloc_mb", "MB"},
		{"core.nodes_fed.naive", "count"},
		{"core.nodes_fed.delta", "count"},
		{"core.depth", "count"},
		{"core.payload_calls", "count"},
		{"xdm.index_probes", "count"},
		{"xdm.index_fallbacks", "count"},
		{"xdm.probe_ratio", "ratio"},
		{"xmldoc.serialize_ms", "ms"},
		{"plancache.plan_hit_ratio", "ratio"},
		{"plancache.result_hit_ratio", "ratio"},
		{"plancache.result_invalidations", "count"},
		{"store.cache_hit_ratio", "ratio"},
		{"store.reload_ms", "ms"},
		{"store.invalidations", "count"},
		{"admission.queue_wait_ms.p99", "ms"},
		{"admission.shed", "count"},
		{"xqd.eval_ms.p50", "ms"},
		{"xqd.doc_wait_ms.p50", "ms"},
		{"xqd.overhead_ms.p50", "ms"},
		{"bench.late_ms.p99", "ms"},
		{"bench.trace_overhead_pct", "%"},
		{"bench.layer_cover_pct", "%"},
		{"bench.repeat_share", "ratio"},
		{"failed_frac", "ratio"},
	}...)
}()

// unexercised lists, per workload, the per-layer metrics whose layer the
// workload never calls. They are reported as 0 so every traced run prints
// the full catalog; any other metric a workload fails to set is a bug.
var unexercised = map[string][]string{
	"table2-rel": serveOnly("interp.eval_ms", "interp.alloc_mb"),
	"table2-interp": serveOnly(append([]string{
		"algebra.compile_ms", "algebra.plan_ops", "opt.optimize_ms", "opt.plan_ops",
		"algebra.exec_ms", "algebra.exec_alloc_mb", "algebra.rows_per_result",
	}, opMetricNames()...)...),
	"serve-mix": nil,
}

// serveOnly returns the metrics only an xqd process under load produces,
// plus extra.
func serveOnly(extra ...string) []string {
	return append([]string{
		"plancache.plan_hit_ratio", "plancache.result_hit_ratio", "plancache.result_invalidations",
		"store.reload_ms", "store.invalidations",
		"admission.queue_wait_ms.p99", "admission.shed",
		"xqd.eval_ms.p50", "xqd.doc_wait_ms.p50", "xqd.overhead_ms.p50",
		"bench.late_ms.p99", "bench.repeat_share",
	}, extra...)
}

func opMetricNames() []string {
	var out []string
	for _, k := range opKinds {
		out = append(out, "algebra.op."+k+".self_ms", "algebra.op."+k+".rows_in")
	}
	return out
}
