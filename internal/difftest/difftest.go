// Package difftest is the differential fuzz harness for the fixpoint
// engines: from one integer seed it derives a random document (through
// internal/xmlgen) and a random fixpoint or Regular XPath query, then
// checks that every evaluation strategy the repository offers — Naïve vs
// Delta (the paper's Figure 3 pair), tree-at-a-time vs relational,
// sequential vs parallel rounds, and verbatim (-O0) vs optimized (-O1)
// relational plans — produces byte-identical results and, within one
// engine and mode, identical instrumentation at every worker count and
// optimizer level. Calvanese et al.'s observation that fixpoint semantics admit many
// equivalent evaluation strategies is exactly what makes this harness
// decisive: any divergence is a bug in some engine, never in the query.
package difftest

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	ifpxq "repro"
	"repro/internal/core"
	"repro/internal/xdm"
	"repro/internal/xmlgen"
)

// Case is one generated differential scenario.
type Case struct {
	Seed  int64
	URI   string
	XML   string
	Query string
	// RegularXPath marks context-item-driven cases (interpreter surface
	// only; still differential across modes and worker counts).
	RegularXPath bool
}

// Parallelisms are the worker-pool widths every case is evaluated at; the
// first must be 1 (the sequential baseline).
var Parallelisms = []int{1, 3}

// OptLevels are the relational plan-optimizer levels every case is
// evaluated at; the first must be the optimized default (the baseline
// configuration). The interpreter engine has no plan stage — the flag is a
// no-op there — so only the relational engine multiplies by this
// dimension; the -O0/-O1 parity the optimizer promises (byte-identical
// results AND identical fixpoint statistics) is checked per (mode, worker
// count) against the shared baseline.
var OptLevels = []ifpxq.OptLevel{ifpxq.Opt1, ifpxq.Opt0}

// Generate derives a case from a seed. Documents are kept small — tens to
// a few hundred nodes — so thousands of cases stay cheap; the engines'
// sharding thresholds do not gate correctness, only goroutine count.
func Generate(seed int64) Case {
	rng := rand.New(rand.NewSource(seed))
	c := Case{Seed: seed}
	switch rng.Intn(6) {
	case 0: // curriculum: fn:id closures over the prerequisite graph
		n := 15 + rng.Intn(50)
		cfg := xmlgen.CurriculumConfig{
			Courses:       n,
			MaxPrereqs:    1 + rng.Intn(3),
			CycleFraction: 0.3 * rng.Float64(),
			Seed:          rng.Int63(),
		}
		c.URI, c.XML = "curriculum.xml", xmlgen.Curriculum(cfg)
		switch rng.Intn(3) {
		case 0:
			c.Query = fmt.Sprintf(`
for $c in doc(%q)/curriculum/course
where exists($c intersect (with $x seeded by $c recurse $x/id(./prerequisites/pre_code)))
return $c/@code/string()`, c.URI)
		case 1:
			c.Query = fmt.Sprintf(`
count(with $x seeded by doc(%q)//course[@code = "c%d"]
recurse $x/id(./prerequisites/pre_code))`, c.URI, rng.Intn(n))
		default:
			c.Query = fmt.Sprintf(`
for $y in (with $x seeded by doc(%q)/curriculum/course[@code = "c%d"]
           recurse $x/id(./prerequisites/pre_code))
return $y/@code/string()`, c.URI, rng.Intn(n))
		}
	case 1: // hospital: vertical recursion through nested pedigrees
		cfg := xmlgen.HospitalConfig{
			Patients:        30 + rng.Intn(120),
			Depth:           3 + rng.Intn(3),
			DiseaseFraction: 0.2 + 0.4*rng.Float64(),
			Seed:            rng.Int63(),
		}
		c.URI, c.XML = "hospital.xml", xmlgen.Hospital(cfg)
		body := `$x/parents/patient[diagnosis = "hd"]`
		if rng.Intn(2) == 0 {
			body = `$x/parents/patient`
		}
		if rng.Intn(2) == 0 {
			c.Query = fmt.Sprintf(`
count(with $x seeded by doc(%q)/hospital/patient[diagnosis = "hd"]
recurse %s)`, c.URI, body)
		} else {
			c.Query = fmt.Sprintf(`
for $p in (with $x seeded by doc(%q)//patient[diagnosis = "hd"] recurse %s)
return $p/@id/string()`, c.URI, body)
		}
	case 2: // auction: the Figure 10 bidder network, scaled down
		cfg := xmlgen.AuctionConfig{
			People:               10 + rng.Intn(15),
			OpenAuctions:         4 + rng.Intn(10),
			MaxBiddersPerAuction: 2 + rng.Intn(3),
			Seed:                 rng.Int63(),
		}
		c.URI, c.XML = "auction.xml", xmlgen.Auction(cfg)
		prologue := fmt.Sprintf(`
declare variable $doc := doc(%q);
declare function bidder($in as node()*) as node()* {
  for $id in $in/@id
  let $b := $doc//open_auction[seller/@person = $id]/bidder/personref
  return $doc//people/person[@id = $b/@person]
};`, c.URI)
		if rng.Intn(2) == 0 {
			c.Query = prologue + `
for $p in $doc//people/person
return <person>{ $p/@id }{ count(with $x seeded by $p recurse bidder($x)) }</person>`
		} else {
			c.Query = prologue + fmt.Sprintf(`
count(with $x seeded by $doc//person[@id = "person%d"] recurse bidder($x))`,
				rng.Intn(cfg.People))
		}
	case 3: // play: horizontal following-sibling recursion
		cfg := xmlgen.PlayConfig{
			Acts:             1,
			ScenesPerAct:     1 + rng.Intn(2),
			SpeechesPerScene: 10 + rng.Intn(15),
			MaxDialogRun:     3 + rng.Intn(6),
			Seed:             rng.Int63(),
		}
		c.URI, c.XML = "play.xml", xmlgen.Play(cfg)
		c.Query = fmt.Sprintf(`
count(with $x seeded by doc(%q)//SPEECH[not(preceding-sibling::SPEECH[1]/SPEAKER != SPEAKER)]
recurse for $s in $x
        return $s/following-sibling::SPEECH[1][SPEAKER != $s/SPEAKER])`, c.URI)
	case 4: // wide tables and empty columns through the columnar executor
		n := 15 + rng.Intn(40)
		cfg := xmlgen.CurriculumConfig{
			Courses:       n,
			MaxPrereqs:    1 + rng.Intn(3),
			CycleFraction: 0.3 * rng.Float64(),
			Seed:          rng.Int63(),
		}
		c.URI, c.XML = "curriculum.xml", xmlgen.Curriculum(cfg)
		switch rng.Intn(3) {
		case 0:
			// Several live loop variables: the loop-lifted relation carries
			// one column per variable, so the fixpoint body runs over tables
			// far wider than iter|pos|item (the generic rowSet fallback).
			c.Query = fmt.Sprintf(`
for $a in (1, 2, 3), $b in (10, 20), $m in ("x", "yy")
for $c in doc(%q)/curriculum/course
where count(with $x seeded by $c recurse $x/id(./prerequisites/pre_code)) >= $a
return ($a * $b, $m)`, c.URI)
		case 1:
			// Empty seed: zero-row (empty-column) tables flow through every
			// operator of the µ body without ever growing.
			c.Query = fmt.Sprintf(`
count(with $x seeded by doc(%q)/curriculum/course[@code = "nosuchcourse"]
recurse $x/id(./prerequisites/pre_code))`, c.URI)
		default:
			// Recursion that dries up immediately: non-empty seed, empty
			// step results from round one on.
			c.Query = fmt.Sprintf(`
for $a in (1, 2), $c in doc(%q)/curriculum/course[@code = "c%d"]
return $a + count(with $x seeded by $c/prerequisites recurse $x/child::nosuch)`, c.URI, rng.Intn(n))
		}
	default: // Regular XPath closures (distributive by construction)
		cfg := xmlgen.HospitalConfig{
			Patients:        30 + rng.Intn(100),
			Depth:           3 + rng.Intn(3),
			DiseaseFraction: 0.2 + 0.4*rng.Float64(),
			Seed:            rng.Int63(),
		}
		c.URI, c.XML = "hospital.xml", xmlgen.Hospital(cfg)
		c.RegularXPath = true
		exprs := []string{
			`(child::patient/child::parents/child::patient)+`,
			`child::patient/(child::parents/child::patient)*`,
			`(descendant::patient[child::diagnosis])+`,
			`(child::patient | child::patient/child::parents/child::patient)+`,
		}
		c.Query = "child::hospital/" + exprs[rng.Intn(len(exprs))]
	}
	return c
}

// optName renders an OptLevel the way the CLIs spell it (-O0/-O1), so a
// reported divergence names the flag that reproduces it.
func optName(l ifpxq.OptLevel) string {
	if l == ifpxq.Opt0 {
		return "0"
	}
	return "1"
}

// outcome is one evaluation's observable behaviour.
type outcome struct {
	result    string
	err       string
	fixpoints []ifpxq.FixpointStats
}

// Check evaluates the case under every (engine, mode, optimizer level,
// parallelism) configuration and fails the test on any divergence:
//
//   - within one (engine, mode): results AND fixpoint stats must be
//     identical at every worker count and every optimizer level, and an
//     error must be the same error in every configuration;
//   - across engines and modes: every configuration that succeeds must
//     yield the byte-identical result string;
//   - across engines, per mode: the Table 2 statistics must agree (see
//     checkTable2).
func Check(t testing.TB, c Case) {
	t.Helper()
	var q *ifpxq.Query
	var err error
	if c.RegularXPath {
		q, err = ifpxq.ParseRegularXPath(c.Query)
	} else {
		q, err = ifpxq.Parse(c.Query)
	}
	if err != nil {
		t.Fatalf("seed %d: parse %q: %v", c.Seed, c.Query, err)
	}

	doc, err := ifpxq.ParseDocument(c.XML, c.URI)
	if err != nil {
		t.Fatalf("seed %d: document: %v", c.Seed, err)
	}
	docs := ifpxq.DocsFromDocuments(map[string]*xdm.Document{c.URI: doc})
	root := xdm.NewNode(doc.Root())

	engines := []ifpxq.Engine{ifpxq.EngineInterpreter}
	if !c.RegularXPath {
		engines = append(engines, ifpxq.EngineRelational)
	}
	var agreed string
	haveAgreed := false
	interpBase := map[ifpxq.Mode]outcome{}
	for _, engine := range engines {
		for _, mode := range []ifpxq.Mode{ifpxq.ModeNaive, ifpxq.ModeAuto} {
			optLevels := OptLevels
			if engine == ifpxq.EngineInterpreter {
				optLevels = OptLevels[:1] // no plan stage: -O is a no-op
			}
			var base outcome
			first := true
			for _, opt := range optLevels {
				for _, p := range Parallelisms {
					opts := ifpxq.Options{Engine: engine, Mode: mode, Docs: docs, Parallelism: p, Opt: opt}
					if c.RegularXPath {
						opts.ContextItem = &root
					}
					res, err := q.Eval(opts)
					var got outcome
					if err != nil {
						got.err = err.Error()
					} else {
						got.result = res.String()
						got.fixpoints = res.Fixpoints
					}
					if first {
						base, first = got, false
						continue
					}
					if got.err != base.err {
						t.Errorf("seed %d engine=%v mode=%v: error diverges (-O%s p=%d): %q vs baseline %q",
							c.Seed, engine, mode, optName(opt), p, got.err, base.err)
					}
					if got.result != base.result {
						t.Errorf("seed %d engine=%v mode=%v: result diverges from baseline (-O%s p=%d)",
							c.Seed, engine, mode, optName(opt), p)
					}
					if !reflect.DeepEqual(got.fixpoints, base.fixpoints) {
						t.Errorf("seed %d engine=%v mode=%v: fixpoint stats diverge (-O%s p=%d):\n base: %+v\n got: %+v",
							c.Seed, engine, mode, optName(opt), p, base.fixpoints, got.fixpoints)
					}
				}
			}
			if base.err != "" {
				// An engine may reject a query outside its surface; that is
				// not a differential failure as long as it rejects it
				// identically at every worker count (checked above).
				continue
			}
			if engine == ifpxq.EngineInterpreter {
				interpBase[mode] = base
			} else if ib, ok := interpBase[mode]; ok {
				checkTable2(t, c, mode, ib.fixpoints, base.fixpoints)
			}
			if !haveAgreed {
				agreed, haveAgreed = base.result, true
			} else if base.result != agreed {
				t.Errorf("seed %d engine=%v mode=%v: result diverges from other configurations\n got: %.200q\nwant: %.200q",
					c.Seed, engine, mode, base.result, agreed)
			}
		}
	}
	if !haveAgreed {
		t.Errorf("seed %d: no configuration evaluated the query successfully", c.Seed)
	}
}

// checkTable2 compares the two engines' Table 2 statistics for one mode
// where they are comparable: each reports one fixpoint site, run by the
// same algorithm. Depth and result size must then be equal, and so must
// the nodes fed back under Delta. A relational Naïve µ re-feeds every
// iteration's accumulated set until the last iteration converges, so it
// may feed more than the interpreter, never less.
func checkTable2(t testing.TB, c Case, mode ifpxq.Mode, interp, rel []ifpxq.FixpointStats) {
	t.Helper()
	if len(interp) != 1 || len(rel) != 1 || interp[0].Algorithm != rel[0].Algorithm {
		return
	}
	is, rs := interp[0].Stats, rel[0].Stats
	fedOK := rs.NodesFedBack == is.NodesFedBack
	if interp[0].Algorithm == core.Naive {
		fedOK = rs.NodesFedBack >= is.NodesFedBack
	}
	if is.Depth != rs.Depth || is.ResultSize != rs.ResultSize || !fedOK {
		t.Errorf("seed %d mode=%v %v: Table 2 statistics diverge across engines:\n interp: %+v\n    rel: %+v",
			c.Seed, mode, interp[0].Algorithm, is, rs)
	}
}
