// Benchmarks regenerating the paper's evaluation (Table 2): one benchmark
// per table row and engine/algorithm cell, at scales tuned so a full
// `go test -bench=. -benchmem` sweep stays in the minutes. The full-size
// table is produced by `go run ./cmd/ifpbench` (see EXPERIMENTS.md).
//
// Ablation benches at the bottom cover the design choices DESIGN.md §7
// calls out: strict vs. extended algebraic check, loop-invariant hoisting
// in µ/µ∆ (via forced plan invalidation), and the two engines on identical
// plans.
package ifpxq

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/xdm"
	"repro/internal/xmldoc"
	"repro/internal/xmlgen"
	"repro/internal/xq/dist"
	"repro/internal/xq/parser"

	"repro/internal/algebra"
	"repro/internal/xq/ast"
	"repro/internal/xq/interp"
)

// findFixpoint locates the first fixpoint site in a module.
func findFixpoint(m *ast.Module) *ast.Fixpoint {
	var out *ast.Fixpoint
	scan := func(e ast.Expr) {
		ast.Walk(e, func(x ast.Expr) bool {
			if fp, ok := x.(*ast.Fixpoint); ok && out == nil {
				out = fp
			}
			return out == nil
		})
	}
	scan(m.Body)
	for _, f := range m.Funcs {
		scan(f.Body)
	}
	return out
}

// benchDoc memoizes generated+parsed documents across benchmark runs.
var benchDocs = map[string]*xdm.Document{}

func docFor(b *testing.B, uri, xml string) DocResolver {
	b.Helper()
	key := fmt.Sprintf("%s/%d/%s", uri, len(xml), xml[:32])
	d, ok := benchDocs[key]
	if !ok {
		var err error
		d, err = xmldoc.ParseString(xml, uri)
		if err != nil {
			b.Fatal(err)
		}
		benchDocs[key] = d
	}
	return func(u string) (*xdm.Document, error) {
		if u != uri {
			return nil, xdm.Errorf(xdm.ErrDoc, "unknown doc %q", u)
		}
		return d, nil
	}
}

func benchQuery(b *testing.B, query, uri, xml string, engine Engine, mode Mode) {
	b.Helper()
	docs := docFor(b, uri, xml)
	q, err := Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var fed int64
	for i := 0; i < b.N; i++ {
		res, err := q.Eval(Options{Engine: engine, Mode: mode, Docs: docs})
		if err != nil {
			b.Fatal(err)
		}
		fed = 0
		for _, fp := range res.Fixpoints {
			fed += fp.Stats.NodesFedBack
		}
	}
	b.ReportMetric(float64(fed), "nodes-fed")
}

// ---- Table 2 rows ---------------------------------------------------------

func auctionXML(scale float64) string { return xmlgen.Auction(xmlgen.FromScale(scale)) }

// T2.1–T2.4: the XMark bidder network (Figure 10) at growing scales.
func BenchmarkBidderNetworkSmall_InterpNaive(b *testing.B) {
	benchQuery(b, bench.BidderNetworkQuery, "auction.xml", auctionXML(0.002), EngineInterpreter, ModeNaive)
}
func BenchmarkBidderNetworkSmall_InterpDelta(b *testing.B) {
	benchQuery(b, bench.BidderNetworkQuery, "auction.xml", auctionXML(0.002), EngineInterpreter, ModeDelta)
}
func BenchmarkBidderNetworkSmall_RelNaive(b *testing.B) {
	benchQuery(b, bench.BidderNetworkQuery, "auction.xml", auctionXML(0.002), EngineRelational, ModeNaive)
}
func BenchmarkBidderNetworkSmall_RelDelta(b *testing.B) {
	benchQuery(b, bench.BidderNetworkQuery, "auction.xml", auctionXML(0.002), EngineRelational, ModeDelta)
}
func BenchmarkBidderNetworkMedium_InterpNaive(b *testing.B) {
	benchQuery(b, bench.BidderNetworkQuery, "auction.xml", auctionXML(0.004), EngineInterpreter, ModeNaive)
}
func BenchmarkBidderNetworkMedium_InterpDelta(b *testing.B) {
	benchQuery(b, bench.BidderNetworkQuery, "auction.xml", auctionXML(0.004), EngineInterpreter, ModeDelta)
}
func BenchmarkBidderNetworkMedium_RelDelta(b *testing.B) {
	benchQuery(b, bench.BidderNetworkQuery, "auction.xml", auctionXML(0.004), EngineRelational, ModeDelta)
}

// T2.5: Romeo and Juliet dialogs (horizontal structural recursion).
func BenchmarkDialogs_InterpNaive(b *testing.B) {
	benchQuery(b, bench.DialogsQuery, "play.xml", xmlgen.Play(xmlgen.PlaySized()), EngineInterpreter, ModeNaive)
}
func BenchmarkDialogs_InterpDelta(b *testing.B) {
	benchQuery(b, bench.DialogsQuery, "play.xml", xmlgen.Play(xmlgen.PlaySized()), EngineInterpreter, ModeDelta)
}
func BenchmarkDialogs_RelNaive(b *testing.B) {
	benchQuery(b, bench.DialogsQuery, "play.xml", xmlgen.Play(xmlgen.PlaySized()), EngineRelational, ModeNaive)
}
func BenchmarkDialogs_RelDelta(b *testing.B) {
	benchQuery(b, bench.DialogsQuery, "play.xml", xmlgen.Play(xmlgen.PlaySized()), EngineRelational, ModeDelta)
}

// T2.6–T2.7: curriculum consistency check (xlinkit Rule 5).
func BenchmarkCurriculumMedium_InterpNaive(b *testing.B) {
	benchQuery(b, bench.CurriculumQuery, "curriculum.xml",
		xmlgen.Curriculum(xmlgen.CurriculumSized(200)), EngineInterpreter, ModeNaive)
}
func BenchmarkCurriculumMedium_InterpDelta(b *testing.B) {
	benchQuery(b, bench.CurriculumQuery, "curriculum.xml",
		xmlgen.Curriculum(xmlgen.CurriculumSized(200)), EngineInterpreter, ModeDelta)
}
func BenchmarkCurriculumMedium_RelDelta(b *testing.B) {
	benchQuery(b, bench.CurriculumQuery, "curriculum.xml",
		xmlgen.Curriculum(xmlgen.CurriculumSized(200)), EngineRelational, ModeDelta)
}
func BenchmarkCurriculumLarge_InterpDelta(b *testing.B) {
	benchQuery(b, bench.CurriculumQuery, "curriculum.xml",
		xmlgen.Curriculum(xmlgen.CurriculumSized(800)), EngineInterpreter, ModeDelta)
}

// T2.8: hospital hereditary-disease records.
func BenchmarkHospital_InterpNaive(b *testing.B) {
	benchQuery(b, bench.HospitalQuery, "hospital.xml",
		xmlgen.Hospital(xmlgen.HospitalSized(10000)), EngineInterpreter, ModeNaive)
}
func BenchmarkHospital_InterpDelta(b *testing.B) {
	benchQuery(b, bench.HospitalQuery, "hospital.xml",
		xmlgen.Hospital(xmlgen.HospitalSized(10000)), EngineInterpreter, ModeDelta)
}
func BenchmarkHospital_RelDelta(b *testing.B) {
	benchQuery(b, bench.HospitalQuery, "hospital.xml",
		xmlgen.Hospital(xmlgen.HospitalSized(10000)), EngineRelational, ModeDelta)
}

// ---- ablations (DESIGN.md §7) ----------------------------------------------

// BenchmarkAblationDistributivityChecks measures the cost of the two
// distributivity approximations themselves (they run once per query plan).
func BenchmarkAblationDistributivityChecks(b *testing.B) {
	m, err := parser.Parse(bench.BidderNetworkQuery)
	if err != nil {
		b.Fatal(err)
	}
	fp := findFixpoint(m)
	if fp == nil {
		b.Fatal("no fixpoint in bidder query")
	}
	b.Run("syntactic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist.Check(fp.Body, fp.Var, dist.ModuleResolver(m))
		}
	})
	b.Run("algebraic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := algebra.CompileModule(m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationStrictVsExtended compares admission under the strict
// (Table 1 exact) and extended (left-of-\ pushes) algebraic rules across
// the benchmark query corpus; the work measured is the check itself.
func BenchmarkAblationStrictVsExtended(b *testing.B) {
	queries := []string{bench.BidderNetworkQuery, bench.DialogsQuery, bench.CurriculumQuery, bench.HospitalQuery}
	var plans []*algebra.Plan
	for _, src := range queries {
		m, err := parser.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		p, err := algebra.CompileModule(m)
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, p)
	}
	for _, strict := range []bool{true, false} {
		name := "extended"
		if strict {
			name = "strict"
		}
		b.Run(name, func(b *testing.B) {
			admitted := 0
			for i := 0; i < b.N; i++ {
				admitted = 0
				for _, p := range plans {
					for _, site := range p.Mus {
						if algebra.CheckDistributive(site.Mu, strict) {
							admitted++
						}
					}
				}
			}
			b.ReportMetric(float64(admitted), "admitted")
		})
	}
}

// BenchmarkAblationHoisting contrasts µ∆ with loop-invariant hoisting
// intact (sub-plans independent of the recursion base stay memoized across
// rounds) against a context that discards the whole memo each round.
func BenchmarkAblationHoisting(b *testing.B) {
	xml := auctionXML(0.002)
	m, err := parser.Parse(bench.BidderNetworkQuery)
	if err != nil {
		b.Fatal(err)
	}
	doc, err := xmldoc.ParseString(xml, "auction.xml")
	if err != nil {
		b.Fatal(err)
	}
	docs := func(string) (*xdm.Document, error) { return doc, nil }
	b.Run("hoisted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			en, err := algebra.NewEngine(m, algebra.Options{Mode: algebra.ModeDelta, Docs: docs})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := en.Eval(); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The no-hoisting variant is approximated by re-compiling and
	// re-running from scratch per iteration AND running the interpreter,
	// which recomputes invariant subexpressions per payload call.
	b.Run("interp-per-call", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			en := interp.New(m, interp.Options{Mode: interp.ModeDelta, Docs: docs})
			if _, err := en.Eval(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIFPCore measures the bare Naïve/Delta drivers over a synthetic
// linked structure (no query machinery): the asymptotic gap the paper's
// §2.1 analysis predicts.
func BenchmarkIFPCore(b *testing.B) {
	// Build a chain document c0 → c1 → … → c399 via child nesting.
	bld := xdm.NewBuilder("chain")
	const n = 400
	for i := 0; i < n; i++ {
		bld.StartElement("n")
	}
	for i := 0; i < n; i++ {
		bld.EndElement()
	}
	doc := bld.Done()
	payload := func(xs xdm.Sequence) (xdm.Sequence, error) {
		var out xdm.Sequence
		for _, it := range xs {
			for _, c := range it.Node().Children() {
				out = append(out, xdm.NewNode(c))
			}
		}
		return out, nil
	}
	seed := xdm.NodeSeq([]xdm.NodeRef{{D: doc, Pre: 1}})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.RunWith(core.Naive, seed, payload, core.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.RunWith(core.Delta, seed, payload, core.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
