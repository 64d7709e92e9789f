package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	ifpxq "repro"
	"repro/internal/store"
	"repro/internal/xmldoc"
)

// setupReps is how many times a run sets the system up; setup_s is the
// median.
const setupReps = 9

// t2cell is one (row, mode) cell of a table2 workload.
type t2cell struct {
	exp  int
	mode ifpxq.Mode
}

func (c t2cell) name(exps []t2exp) string {
	if c.mode == ifpxq.ModeNaive {
		return exps[c.exp].id + "/naive"
	}
	return exps[c.exp].id + "/delta"
}

// setupTimes are one set-up's per-layer wall times in ms.
type setupTimes struct {
	parse, save, open float64
}

// setupTable2 makes the system ready to answer: it parses every row's XML,
// saves it as a .xqs snapshot in a directory of its own, opens an mmap'd
// store on that directory and resolves the document once (cold).
func setupTable2(t *tracer, dir string, exps []t2exp) ([]*store.Store, setupTimes, error) {
	var tm setupTimes
	var stores []*store.Store
	fail := func(err error) ([]*store.Store, setupTimes, error) {
		for _, st := range stores {
			st.Close()
		}
		return nil, tm, err
	}
	root := t.begin("setup", -1, -1)
	defer t.end(root)
	for _, e := range exps {
		d := filepath.Join(dir, e.id)
		if err := os.MkdirAll(d, 0o755); err != nil {
			return fail(err)
		}
		t0 := time.Now()
		sp := t.begin("xmldoc.parse", root, -1)
		doc, err := xmldoc.ParseString(e.xml, e.uri)
		t.end(sp)
		t1 := time.Now()
		if err != nil {
			return fail(fmt.Errorf("%s: parse: %w", e.id, err))
		}
		sp = t.begin("store.save", root, -1)
		err = store.Save(filepath.Join(d, e.uri+".xqs"), doc)
		t.end(sp)
		t2 := time.Now()
		if err != nil {
			return fail(fmt.Errorf("%s: save: %w", e.id, err))
		}
		sp = t.begin("store.open", root, -1)
		st, err := store.Open(store.Options{Dir: d, Mmap: true})
		if err == nil {
			sess := st.Session()
			_, err = sess.Resolve(e.uri)
			sess.Close()
		}
		t.end(sp)
		t3 := time.Now()
		if st != nil {
			stores = append(stores, st)
		}
		if err != nil {
			return fail(fmt.Errorf("%s: open: %w", e.id, err))
		}
		tm.parse += ms(t1.Sub(t0))
		tm.save += ms(t2.Sub(t1))
		tm.open += ms(t3.Sub(t2))
	}
	return stores, tm, nil
}

// expectation is what a cell's answer must match: the other engine's
// answer, and at the default seed also the pinned digest and counts.
type expectation struct {
	ref    string
	digest string  // "" when nothing is pinned
	counts *counts // nil when nothing is pinned
}

func (x expectation) check(out string, fix fixSummary) bool {
	if out != x.ref || (x.digest != "" && digest(out) != x.digest) {
		return false
	}
	return x.counts == nil || (fix.fed == x.counts.Fed && fix.depth == x.counts.Depth && fix.calls == x.counts.Calls)
}

// setupRepeated sets the system up setupReps times, each in a directory of
// its own, and returns the last set-up's stores with every set-up's wall
// time in seconds and its per-layer times.
func setupRepeated(cfg *config, t *tracer, exps []t2exp) ([]*store.Store, []float64, []setupTimes, error) {
	var setups []float64
	var layer []setupTimes
	for rep := 0; ; rep++ {
		dir := filepath.Join(cfg.runDir, fmt.Sprintf("setup%d", rep))
		t0 := time.Now()
		sts, tm, err := setupTable2(t, dir, exps)
		if err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		layer = append(layer, tm)
		if rep == setupReps-1 {
			return sts, setups, layer, nil
		}
		for _, st := range sts {
			st.Close()
		}
		os.RemoveAll(dir)
	}
}

// table2Expectations lists the cells and what each answer must match:
// the row's answer from the other engine (in Delta, which these
// distributive bodies make equal to Naive) and, at the default seed, the
// pinned digest and the engine's pinned counts for the cell's mode.
func table2Expectations(cfg *config, exps []t2exp, stores []*store.Store, engine string) ([]t2cell, map[t2cell]expectation, error) {
	pins, err := loadPinned()
	if err != nil {
		return nil, nil, err
	}
	pinned := cfg.seed == pins.Seed && !cfg.tiny
	var cells []t2cell
	expect := map[t2cell]expectation{}
	for i, e := range exps {
		ref, _, err := evalPublic(e.query, engine != "rel", ifpxq.ModeDelta, stores[i])
		if err != nil {
			return nil, nil, fmt.Errorf("%s: reference: %w", e.id, err)
		}
		if cfg.corrupt && i == 0 {
			ref += " corrupted"
		}
		for _, mode := range []ifpxq.Mode{ifpxq.ModeNaive, ifpxq.ModeDelta} {
			c := t2cell{i, mode}
			x := expectation{ref: ref}
			if pinned {
				row, ok := pins.Table2[e.id]
				if !ok {
					return nil, nil, fmt.Errorf("pinned.json has no row %s", e.id)
				}
				x.digest = row.Digest
				k := engine + "/naive"
				if mode == ifpxq.ModeDelta {
					k = engine + "/delta"
				}
				cn, ok := row.Counts[k]
				if !ok {
					return nil, nil, fmt.Errorf("pinned.json has no %s counts for %s", k, e.id)
				}
				x.counts = &cn
			}
			cells = append(cells, c)
			expect[c] = x
		}
	}
	return cells, expect, nil
}

// runTable2 measures the Table-2 cells on one engine in-process, closed
// loop with one client, documents served from mmap'd .xqs stores and no
// plan or result cache.
func runTable2(cfg *config, rel bool) (*result, error) {
	engine, other := "interp", "rel"
	if rel {
		engine, other = "rel", "interp"
	}
	sz := cfg.sizes()
	exps := table2Exps(cfg.seed, sz)
	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	res := &result{metrics: map[string]float64{}}

	stores, setups, layer, err := setupRepeated(cfg, t, exps)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, st := range stores {
			st.Close()
		}
	}()
	cells, expect, err := table2Expectations(cfg, exps, stores, engine)
	if err != nil {
		return nil, err
	}

	order := rand.New(rand.NewSource(cfg.seed))
	lat := map[t2cell][]float64{}
	fixes := map[t2cell]fixSummary{}
	var passes, tracedPasses []float64
	evals := 0
	var cpu time.Duration
	ls := newLayerStats()
	var hits0, miss0 int64
	for _, st := range stores {
		cs := st.Cache().Stats()
		hits0, miss0 = hits0+cs.Hits, miss0+cs.Misses
	}
	pid := os.Getpid()
	rss := sampleRSS(pid)
	deadline := time.Now().Add(cfg.duration())
	qid := int32(0)
	// Untraced passes measure the end-to-end metrics. In a traced run they
	// alternate with traced passes, whose spans give the per-layer metrics
	// and whose extra time is the tracing overhead.
	for pass := 0; pass == 0 || time.Now().Before(deadline) || (cfg.trace && pass < 2); pass++ {
		traced := cfg.trace && pass%2 == 1
		passMs := 0.0
		for _, ci := range order.Perm(len(cells)) {
			c := cells[ci]
			e := exps[c.exp]
			runtime.GC()
			c0 := selfCPU()
			t0 := time.Now()
			var out string
			var fix fixSummary
			var err error
			if traced {
				out, fix, err = ls.evalLayered(t, qid, e.query, rel, c.mode, stores[c.exp])
				qid++
			} else {
				out, fix, err = evalPublic(e.query, rel, c.mode, stores[c.exp])
			}
			d := ms(time.Since(t0))
			cpu += selfCPU() - c0
			passMs += d
			res.attempted++
			if err != nil || !expect[c].check(out, fix) {
				res.failed++
				if err != nil {
					res.notef("FAIL %s %s: %v", engine, c.name(exps), err)
				} else {
					res.notef("FAIL %s %s: answer differs from the reference", engine, c.name(exps))
				}
				d = failedMs
			}
			fixes[c] = fix
			if traced {
				continue
			}
			lat[c] = append(lat[c], d)
			evals++
		}
		if traced {
			tracedPasses = append(tracedPasses, passMs/1e3)
		} else {
			passes = append(passes, passMs/1e3)
		}
	}
	peak := rss.finish(pid)

	m := res.metrics
	m["setup_s"] = median(setups)
	m["suite_s"] = finite(median(passes))
	var cellMedians []float64
	for _, c := range cells {
		cellMedians = append(cellMedians, median(lat[c]))
	}
	m["cell_ms.geomean"] = finite(geomean(cellMedians))
	// A table2 "request" is a cell: with ten cells of very different cost,
	// percentiles over single evaluations would jump between cells from run
	// to run, so they are taken over the cells' medians (p99 is the slowest
	// cell).
	m["req_ms.p50"] = finite(median(cellMedians))
	m["req_ms.p99"] = finite(percentile(cellMedians, 0.99))
	m["cpu_ms_per_query"] = ms(cpu) / float64(res.attempted)
	m["peak_rss_mb"] = peak

	res.notef("%s on %s: %d untraced passes over %d cells (%d evaluations), %d traced passes; references from %s",
		cfg.workload, engine, len(passes), len(cells), evals, len(tracedPasses), other)
	sorted := append([]t2cell(nil), cells...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].name(exps) < sorted[b].name(exps) })
	for _, c := range sorted {
		f := fixes[c]
		res.notef("  %-11s median %10.3f ms over %d runs   fed back %8d  depth %3d  payload calls %6d",
			c.name(exps), median(lat[c]), len(lat[c]), f.fed, f.depth, f.calls)
	}

	if cfg.trace {
		self := t.selfTimes()
		ls.report(m, self)
		m["xmldoc.parse_ms"] = median(pick(layer, func(s setupTimes) float64 { return s.parse }))
		m["store.save_ms"] = median(pick(layer, func(s setupTimes) float64 { return s.save }))
		m["store.open_ms"] = median(pick(layer, func(s setupTimes) float64 { return s.open }))
		var hits, miss int64
		for _, st := range stores {
			cs := st.Cache().Stats()
			hits, miss = hits+cs.Hits, miss+cs.Misses
		}
		m["store.cache_hit_ratio"] = ratio(float64(hits-hits0), float64(hits-hits0+miss-miss0))
		m["bench.trace_overhead_pct"] = 100 * (median(tracedPasses) - median(passes)) / median(passes)
		if err := writeTrace(cfg, t); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func pick[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}
