package ifpxq

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/xdm"
)

// fixpointConfigs is every engine × mode × optimizer level: the
// interpreter has no plan stage, so it runs once per mode.
func fixpointConfigs(modes ...Mode) []Options {
	var out []Options
	for _, mode := range modes {
		out = append(out, Options{Engine: EngineInterpreter, Mode: mode})
		for _, opt := range []OptLevel{Opt0, Opt1} {
			out = append(out, Options{Engine: EngineRelational, Mode: mode, Opt: opt})
		}
	}
	return out
}

func configName(o Options) string {
	engine, opt := "interp", "-O1"
	if o.Engine == EngineRelational {
		engine = "rel"
	}
	if o.Opt == Opt0 {
		opt = "-O0"
	}
	mode := map[Mode]string{ModeNaive: "naive", ModeDelta: "delta"}[o.Mode]
	return fmt.Sprintf("engine=%s mode=%s %s", engine, mode, opt)
}

// TestDepthIsDeepestExecution runs a µ site more than once: the else
// branch's inner fixpoint executes at depth 4 (from a, down to e) and
// again at depth 0 (an empty seed). Depth is the deepest single
// execution, on both engines.
func TestDepthIsDeepestExecution(t *testing.T) {
	const xml = `<r><p><q/></p><a><b><c><d><e/></d></c></b></a></r>`
	q := MustParse(`count(with $x seeded by doc("t2.xml")/r/p recurse
		(if (exists($x/self::p))
		 then (with $y seeded by doc("t2.xml")/r/p recurse $y/*) | doc("t2.xml")/r/a
		 else (with $y seeded by $x[self::a] recurse $y/*)))`)
	for _, opts := range fixpointConfigs(ModeDelta) {
		opts.Docs = DocsFromStrings(map[string]string{"t2.xml": xml})
		res, err := q.Eval(opts)
		if err != nil {
			t.Fatalf("%s: %v", configName(opts), err)
		}
		var depths []int
		for _, fp := range res.Fixpoints {
			depths = append(depths, fp.Stats.Depth)
		}
		sort.Ints(depths)
		// Inner then-branch site 1, outer site 2, inner else-branch site 4.
		if got := fmt.Sprint(depths); got != "[1 2 4]" {
			t.Errorf("%s: site depths %s, want [1 2 4]", configName(opts), got)
		}
	}
}

// TestConstructorBodyDiverges: a body that constructs a node mints a fresh
// identity every round, so res grows forever and the IFP is undefined
// (Definition 2.1). Every configuration must hit the iteration bound with
// one and the same IFPX0001 error, never converge on a memoized node.
func TestConstructorBodyDiverges(t *testing.T) {
	q := MustParse(`count(with $x seeded by <a/> recurse <b/>)`)
	var want string
	for _, opts := range fixpointConfigs(ModeNaive, ModeDelta) {
		opts.MaxIterations = 8
		res, err := q.Eval(opts)
		if err == nil {
			t.Errorf("%s: converged to %s", configName(opts), res.String())
			continue
		}
		if xdm.CodeOf(err) != xdm.ErrIFP {
			t.Errorf("%s: code %s, want %s (err: %v)", configName(opts), xdm.CodeOf(err), xdm.ErrIFP, err)
			continue
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("%s: message %q, want %q", configName(opts), err.Error(), want)
		}
	}
}

// TestNaiveRoundAfterEmptyFirstAnswer pins the Table-2 counts of a
// fixpoint whose seeding application answers nothing: Delta stops there
// (depth 0), while Naïve applies the body once more to the empty result
// (depth 1, fed 0) — on both engines.
func TestNaiveRoundAfterEmptyFirstAnswer(t *testing.T) {
	q := MustParse(`count(with $x seeded by doc("curriculum.xml")/curriculum recurse $x/nothing)`)
	for _, tc := range []struct {
		mode  Mode
		depth int
		calls int
		fed   int64
	}{
		{ModeNaive, 1, 2, 1},
		{ModeDelta, 0, 1, 1},
	} {
		for _, opts := range fixpointConfigs(tc.mode) {
			opts.Docs = docs()
			res, err := q.Eval(opts)
			if err != nil {
				t.Fatalf("%s: %v", configName(opts), err)
			}
			if got := res.String(); got != "0" {
				t.Errorf("%s: result %s, want 0", configName(opts), got)
			}
			if len(res.Fixpoints) != 1 {
				t.Fatalf("%s: %d fixpoint sites, want 1", configName(opts), len(res.Fixpoints))
			}
			st := res.Fixpoints[0].Stats
			if st.Depth != tc.depth || st.PayloadCalls != tc.calls || st.NodesFedBack != tc.fed || st.ResultSize != 0 {
				t.Errorf("%s: stats %+v, want depth %d, %d payload calls, %d fed, size 0",
					configName(opts), st, tc.depth, tc.calls, tc.fed)
			}
		}
	}
}

// TestOuterConstructorKeepsIdentity: a constructor bound outside a µ body
// is evaluated once, so the µ sees one node, every round, and so does
// everything after it. Only constructors compiled inside the body itself
// are re-evaluated per round — for the innermost µ whose body holds them.
func TestOuterConstructorKeepsIdentity(t *testing.T) {
	for _, tc := range []struct{ q, want string }{
		// The body returns the outer node: res = {$c} after one round.
		{`let $c := <a/> return count(with $x seeded by $c recurse $c)`, "1"},
		// The body reads $c for its value only; $c keeps its identity after
		// the µ, whichever operand evaluates first.
		{`let $c := <a/> let $r := with $x seeded by $c recurse $x[exists($c)]
		  return ($r is $c, $c is $r)`, "true true"},
		// The constructor lives in the outer body (its loop depends on $x)
		// but is bound outside the inner µ, which therefore converges.
		{`count(with $x seeded by <r><s/></r> recurse
		    $x/*[count(let $c := <a/> return with $y seeded by $c recurse $c) = 1])`, "1"},
	} {
		q := MustParse(tc.q)
		for _, opts := range fixpointConfigs(ModeNaive, ModeDelta) {
			opts.MaxIterations = 8
			res, err := q.Eval(opts)
			if err != nil {
				t.Errorf("%s: %s: %v", configName(opts), tc.q, err)
				continue
			}
			if got := res.String(); got != tc.want {
				t.Errorf("%s: %s = %s, want %s", configName(opts), tc.q, got, tc.want)
			}
		}
	}
}
