package opt_test

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/algebra/opt"
	"repro/internal/bench"
	"repro/internal/xq/parser"
)

func hashOf(t *testing.T, query string, mode algebra.FixpointMode, optimize bool) uint64 {
	t.Helper()
	m, err := parser.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	var optFn func(*algebra.Plan)
	if optimize {
		optFn = opt.Optimize
	}
	plan, err := algebra.CompilePlan(m, mode, false, optFn, nil)
	if err != nil {
		t.Fatal(err)
	}
	return opt.PlanHash(plan.Root)
}

func TestPlanHashDeterministic(t *testing.T) {
	for _, q := range []string{bench.BidderNetworkQuery, bench.DialogsQuery, bench.CurriculumQuery, bench.HospitalQuery} {
		a := hashOf(t, q, algebra.ModeAuto, true)
		b := hashOf(t, q, algebra.ModeAuto, true)
		if a != b {
			t.Fatalf("same query hashes differently: %x vs %x", a, b)
		}
	}
}

func TestPlanHashDistinguishes(t *testing.T) {
	seen := map[uint64]string{}
	record := func(desc string, h uint64) {
		t.Helper()
		if prev, ok := seen[h]; ok {
			t.Fatalf("hash collision: %s and %s both hash to %x", prev, desc, h)
		}
		seen[h] = desc
	}
	// Different queries must differ.
	for _, q := range []struct {
		name, query string
	}{
		{"bidder", bench.BidderNetworkQuery},
		{"dialogs", bench.DialogsQuery},
		{"curriculum", bench.CurriculumQuery},
		{"hospital", bench.HospitalQuery},
	} {
		record(q.name+"/auto/opt", hashOf(t, q.query, algebra.ModeAuto, true))
	}
	// Mode flips µ∆ → the Delta flag is part of the hash.
	record("bidder/naive/opt", hashOf(t, bench.BidderNetworkQuery, algebra.ModeNaive, true))
	// Optimizer level changes the plan shape.
	record("bidder/auto/raw", hashOf(t, bench.BidderNetworkQuery, algebra.ModeAuto, false))
}

// TestPlanHashConstructorScope: a constructor bound outside a µ body and
// one built inside it compile to the same operator shape, but only the
// second is re-evaluated every round (the first query answers 1, the second
// does not converge), so the result-cache key must tell them apart.
func TestPlanHashConstructorScope(t *testing.T) {
	for _, optimize := range []bool{false, true} {
		outside := hashOf(t, `let $c := <a/> return count(with $x seeded by doc("shop.xml")/shop recurse $c)`, algebra.ModeAuto, optimize)
		inside := hashOf(t, `count(with $x seeded by doc("shop.xml")/shop recurse <a/>)`, algebra.ModeAuto, optimize)
		if outside == inside {
			t.Errorf("optimize=%v: constructor scopes hash alike (%x)", optimize, inside)
		}
	}
}
