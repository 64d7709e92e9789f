package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/xdm"
)

// Property tests: the incremental accumulator driver (RunWith)
// must return byte-identical results — item order, dedup, and every
// Table 2 counter — to the original materializing drivers preserved at
// the bottom of this file, over randomized graph payloads spanning
// multiple documents.

func chainDoc(n int, uri string) *xdm.Document {
	b := xdm.NewBuilder(uri)
	for i := 0; i < n; i++ {
		b.StartElement("n")
	}
	for i := 0; i < n; i++ {
		b.EndElement()
	}
	return b.Done()
}

// randGraphPayload wires every node of the documents to a random set of
// successor nodes (possibly across documents) and returns the payload
// e_rec: it emits successors with duplicates and in scrambled order, the
// worst case for the accumulator's dedup/merge.
func randGraphPayload(rng *rand.Rand, docs []*xdm.Document) Payload {
	succ := map[xdm.NodeRef][]xdm.NodeRef{}
	all := []xdm.NodeRef{}
	for _, d := range docs {
		for pre := int32(0); pre < int32(d.Len()); pre++ {
			all = append(all, xdm.NodeRef{D: d, Pre: pre})
		}
	}
	for _, n := range all {
		deg := rng.Intn(4)
		for i := 0; i < deg; i++ {
			succ[n] = append(succ[n], all[rng.Intn(len(all))])
		}
	}
	return func(xs xdm.Sequence) (xdm.Sequence, error) {
		var out xdm.Sequence
		for _, it := range xs {
			for _, m := range succ[it.Node()] {
				out = append(out, xdm.NewNode(m))
				if len(out)%3 == 0 { // sprinkle duplicates
					out = append(out, xdm.NewNode(m))
				}
			}
		}
		return out, nil
	}
}

func randSeed(rng *rand.Rand, docs []*xdm.Document, n int) xdm.Sequence {
	var out xdm.Sequence
	for i := 0; i < n; i++ {
		d := docs[rng.Intn(len(docs))]
		out = append(out, xdm.NewNode(xdm.NodeRef{D: d, Pre: int32(rng.Intn(d.Len()))}))
	}
	return out
}

func requireSameRun(t *testing.T, what string, got, want xdm.Sequence, gst, wst Stats, gerr, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: err %v, oracle err %v", what, gerr, werr)
	}
	if gerr != nil {
		if gerr.Error() != werr.Error() {
			t.Fatalf("%s: err %q, oracle err %q", what, gerr, werr)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if !got[i].Node().Same(want[i].Node()) {
			t.Fatalf("%s: item %d: %v, oracle %v", what, i, got[i].Node(), want[i].Node())
		}
	}
	if gst != wst {
		t.Fatalf("%s: stats %+v, oracle %+v", what, gst, wst)
	}
}

func TestDriversMatchOracleOnRandomGraphs(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(42 + trial)))
		docs := []*xdm.Document{
			chainDoc(5+rng.Intn(40), "a.xml"),
			chainDoc(5+rng.Intn(40), "b.xml"),
		}
		body := randGraphPayload(rng, docs)
		seed := randSeed(rng, docs, 1+rng.Intn(6))
		what := fmt.Sprintf("trial %d", trial)

		nres, nst, nerr := RunWith(Naive, seed, body, Config{})
		ores, ost, oerr := runNaiveOracle(seed, body, 0)
		requireSameRun(t, what+" naive", nres, ores, nst, ost, nerr, oerr)

		dres, dst, derr := RunWith(Delta, seed, body, Config{})
		odres, odst, oderr := runDeltaOracle(seed, body, 0)
		requireSameRun(t, what+" delta", dres, odres, dst, odst, derr, oderr)
	}
}

func TestDriversMatchOracleOnEmptySeed(t *testing.T) {
	doc := chainDoc(10, "a.xml")
	body := func(xs xdm.Sequence) (xdm.Sequence, error) {
		var out xdm.Sequence
		for _, it := range xs {
			for _, c := range it.Node().Children() {
				out = append(out, xdm.NewNode(c))
			}
		}
		return out, nil
	}
	_ = doc
	for _, alg := range []Algorithm{Naive, Delta} {
		got, gst, gerr := RunWith(alg, nil, body, Config{})
		var want xdm.Sequence
		var wst Stats
		var werr error
		if alg == Naive {
			want, wst, werr = runNaiveOracle(nil, body, 0)
		} else {
			want, wst, werr = runDeltaOracle(nil, body, 0)
		}
		requireSameRun(t, alg.String()+" empty seed", got, want, gst, wst, gerr, werr)
	}
}

// TestDriversMatchOracleOnNonNodeOutput: both implementations surface the
// same type error when the payload leaks a non-node item.
func TestDriversMatchOracleOnNonNodeOutput(t *testing.T) {
	doc := chainDoc(4, "a.xml")
	seed := xdm.NodeSeq([]xdm.NodeRef{doc.Root()})
	body := func(xs xdm.Sequence) (xdm.Sequence, error) {
		return xdm.Sequence{xdm.NewInteger(42)}, nil
	}
	_, _, gerr := RunWith(Delta, seed, body, Config{})
	_, _, werr := runDeltaOracle(seed, body, 0)
	if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
		t.Fatalf("error mismatch: %v vs oracle %v", gerr, werr)
	}
}

// TestDriversMatchOracleOnDivergence: the iteration bound fires with the
// same error and the same counters on a payload that never converges
// within the bound.
func TestDriversMatchOracleOnDivergence(t *testing.T) {
	docs := []*xdm.Document{chainDoc(64, "a.xml")}
	body := func(xs xdm.Sequence) (xdm.Sequence, error) {
		var out xdm.Sequence
		for _, it := range xs {
			for _, c := range it.Node().Children() {
				out = append(out, xdm.NewNode(c))
			}
		}
		return out, nil
	}
	seed := xdm.NodeSeq([]xdm.NodeRef{{D: docs[0], Pre: 1}})
	_, gst, gerr := RunWith(Delta, seed, body, Config{MaxIterations: 5})
	_, wst, werr := runDeltaOracle(seed, body, 5)
	if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
		t.Fatalf("divergence error mismatch: %v vs %v", gerr, werr)
	}
	if gst != wst {
		t.Fatalf("divergence stats %+v, oracle %+v", gst, wst)
	}
}

// The pre-accumulator fixpoint drivers, preserved verbatim as test
// oracles. They round-trip every round through xdm.Union / xdm.Except —
// re-materializing and re-sorting the full accumulated result — which is
// exactly the cost the incremental driver in core.go exists to avoid.

// runNaiveOracle is the original Naïve driver (Figure 3(a), materializing).
func runNaiveOracle(seed xdm.Sequence, body Payload, maxIter int) (xdm.Sequence, Stats, error) {
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	var st Stats
	if err := checkNodes(seed, "seed"); err != nil {
		return nil, st, err
	}
	res, err := applyPayloadOracle(body, seed, &st)
	if err != nil {
		return nil, st, err
	}
	for round := 0; ; round++ {
		if round >= maxIter {
			return nil, st, xdm.Errorf(xdm.ErrIFP,
				"inflationary fixed point did not converge within %d iterations", maxIter)
		}
		step, err := applyPayloadOracle(body, res, &st)
		if err != nil {
			return nil, st, err
		}
		next, err := xdm.Union(step, res)
		if err != nil {
			return nil, st, err
		}
		if len(next) == len(res) { // res is inflationary: same size ⇒ set-equal
			st.Depth = st.PayloadCalls - 1
			st.ResultSize = len(res)
			return res, st, nil
		}
		res = next
	}
}

// runDeltaOracle is the original Delta driver (Figure 3(b), materializing).
func runDeltaOracle(seed xdm.Sequence, body Payload, maxIter int) (xdm.Sequence, Stats, error) {
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	var st Stats
	if err := checkNodes(seed, "seed"); err != nil {
		return nil, st, err
	}
	res, err := applyPayloadOracle(body, seed, &st)
	if err != nil {
		return nil, st, err
	}
	delta := res
	for round := 0; len(delta) > 0; round++ {
		if round >= maxIter {
			return nil, st, xdm.Errorf(xdm.ErrIFP,
				"inflationary fixed point did not converge within %d iterations", maxIter)
		}
		step, err := applyPayloadOracle(body, delta, &st)
		if err != nil {
			return nil, st, err
		}
		delta, err = xdm.Except(step, res)
		if err != nil {
			return nil, st, err
		}
		res, err = xdm.Union(delta, res)
		if err != nil {
			return nil, st, err
		}
	}
	st.Depth = st.PayloadCalls - 1
	st.ResultSize = len(res)
	return res, st, nil
}

func applyPayloadOracle(body Payload, in xdm.Sequence, st *Stats) (xdm.Sequence, error) {
	ddoIn, err := xdm.DDO(in)
	if err != nil {
		return nil, err
	}
	st.PayloadCalls++
	st.NodesFedBack += int64(len(ddoIn))
	out, err := body(ddoIn)
	if err != nil {
		return nil, err
	}
	if err := checkNodes(out, "body result"); err != nil {
		return nil, err
	}
	return xdm.DDO(out)
}
