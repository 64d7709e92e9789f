package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/xdm"
)

// graphDoc builds a document whose element nodes form the vertex set of a
// directed graph, plus a successor payload over an adjacency list. This is
// the relational-style harness for the IFP drivers: closure via the
// fixpoint must equal closure via plain BFS.
func graphDoc(n int) (*xdm.Document, []xdm.NodeRef) {
	b := xdm.NewBuilder("graph")
	b.StartElement("g")
	for i := 0; i < n; i++ {
		b.StartElement("v")
		b.EndElement()
	}
	b.EndElement()
	d := b.Done()
	var verts []xdm.NodeRef
	for pre := int32(1); pre < int32(d.Len()); pre++ {
		nd := xdm.NodeRef{D: d, Pre: pre}
		if nd.Kind() == xdm.ElementNode && nd.Name() == "v" {
			verts = append(verts, nd)
		}
	}
	return d, verts
}

func successorPayload(verts []xdm.NodeRef, adj [][]int) Payload {
	index := map[xdm.NodeRef]int{}
	for i, v := range verts {
		index[v] = i
	}
	return func(xs xdm.Sequence) (xdm.Sequence, error) {
		var out xdm.Sequence
		for _, it := range xs {
			for _, succ := range adj[index[it.Node()]] {
				out = append(out, xdm.NewNode(verts[succ]))
			}
		}
		return out, nil
	}
}

// bfsClosure is the reference transitive closure (successors of seeds,
// transitively, excluding unreachable seeds themselves unless revisited).
func bfsClosure(adj [][]int, seeds []int) map[int]bool {
	seen := map[int]bool{}
	frontier := append([]int{}, seeds...)
	for len(frontier) > 0 {
		var next []int
		for _, v := range frontier {
			for _, s := range adj[v] {
				if !seen[s] {
					seen[s] = true
					next = append(next, s)
				}
			}
		}
		frontier = next
	}
	return seen
}

func TestNaiveDeltaChain(t *testing.T) {
	_, verts := graphDoc(6)
	adj := [][]int{{1}, {2}, {3}, {4}, {5}, {}}
	payload := successorPayload(verts, adj)
	seed := xdm.Sequence{xdm.NewNode(verts[0])}

	resN, stN, err := RunWith(Naive, seed, payload, Config{})
	if err != nil {
		t.Fatal(err)
	}
	resD, stD, err := RunWith(Delta, seed, payload, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resN) != 5 || len(resD) != 5 {
		t.Fatalf("closure sizes: naive %d, delta %d, want 5", len(resN), len(resD))
	}
	eq, _ := xdm.SetEqual(resN, resD)
	if !eq {
		t.Errorf("naive and delta disagree on a chain")
	}
	if stN.Depth != stD.Depth {
		t.Errorf("depths differ: naive %d, delta %d", stN.Depth, stD.Depth)
	}
	if stN.Depth != 5 {
		t.Errorf("chain depth = %d, want 5", stN.Depth)
	}
	// Naïve refeeds the accumulated set: strictly more nodes.
	if stN.NodesFedBack <= stD.NodesFedBack {
		t.Errorf("naive fed %d <= delta fed %d", stN.NodesFedBack, stD.NodesFedBack)
	}
}

func TestCycleTerminates(t *testing.T) {
	_, verts := graphDoc(3)
	adj := [][]int{{1}, {2}, {0}} // 3-cycle
	payload := successorPayload(verts, adj)
	seed := xdm.Sequence{xdm.NewNode(verts[0])}
	res, st, err := RunWith(Delta, seed, payload, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Errorf("cycle closure = %d, want 3", len(res))
	}
	if st.ResultSize != 3 {
		t.Errorf("ResultSize = %d", st.ResultSize)
	}
}

func TestEmptySeed(t *testing.T) {
	_, verts := graphDoc(2)
	payload := successorPayload(verts, [][]int{{1}, {}})
	resN, _, err := RunWith(Naive, nil, payload, Config{})
	if err != nil || len(resN) != 0 {
		t.Errorf("naive on empty seed: %v, %v", resN, err)
	}
	resD, _, err := RunWith(Delta, nil, payload, Config{})
	if err != nil || len(resD) != 0 {
		t.Errorf("delta on empty seed: %v, %v", resD, err)
	}
}

func TestSeedTypeError(t *testing.T) {
	payload := func(xs xdm.Sequence) (xdm.Sequence, error) { return nil, nil }
	if _, _, err := RunWith(Naive, xdm.Sequence{xdm.NewInteger(1)}, payload, Config{}); xdm.CodeOf(err) != xdm.ErrType {
		t.Errorf("atomic seed: %v", err)
	}
	_, verts := graphDoc(1)
	bad := func(xs xdm.Sequence) (xdm.Sequence, error) {
		return xdm.Sequence{xdm.NewInteger(1)}, nil
	}
	if _, _, err := RunWith(Naive, xdm.NodeSeq(verts), bad, Config{}); xdm.CodeOf(err) != xdm.ErrType {
		t.Errorf("atomic body result: %v", err)
	}
}

func TestDivergenceGuard(t *testing.T) {
	// A payload that mints a fresh node per call models a constructor
	// body: the IFP is undefined (Definition 2.1) and must be cut off.
	payload := func(xs xdm.Sequence) (xdm.Sequence, error) {
		return xdm.Sequence{xdm.NewNode(xdm.NewLeafDoc(xdm.TextNode, "", "t"))}, nil
	}
	_, verts := graphDoc(1)
	_, _, err := RunWith(Naive, xdm.NodeSeq(verts), payload, Config{MaxIterations: 32})
	if xdm.CodeOf(err) != xdm.ErrIFP {
		t.Errorf("naive divergence: %v", err)
	}
	_, _, err = RunWith(Delta, xdm.NodeSeq(verts), payload, Config{MaxIterations: 32})
	if xdm.CodeOf(err) != xdm.ErrIFP {
		t.Errorf("delta divergence: %v", err)
	}
}

// TestQuickNaiveEqualsDeltaOnDistributivePayloads is Theorem 3.2 as a
// property test: successor payloads over random graphs are distributive
// (they are unions of per-node images), so Naïve and Delta must agree, and
// both must equal the BFS reference closure.
func TestQuickNaiveEqualsDeltaOnDistributivePayloads(t *testing.T) {
	const n = 12
	_, verts := graphDoc(n)
	f := func(edges []uint16, seedSel uint16) bool {
		adj := make([][]int, n)
		for _, e := range edges {
			from := int(e) % n
			to := int(e>>4) % n
			adj[from] = append(adj[from], to)
		}
		var seeds []int
		var seedSeq xdm.Sequence
		for i := 0; i < n; i++ {
			if seedSel&(1<<i) != 0 {
				seeds = append(seeds, i)
				seedSeq = append(seedSeq, xdm.NewNode(verts[i]))
			}
		}
		payload := successorPayload(verts, adj)
		resN, stN, err := RunWith(Naive, seedSeq, payload, Config{})
		if err != nil {
			return false
		}
		resD, stD, err := RunWith(Delta, seedSeq, payload, Config{})
		if err != nil {
			return false
		}
		eq, err := xdm.SetEqual(resN, resD)
		if err != nil || !eq {
			return false
		}
		want := bfsClosure(adj, seeds)
		if len(want) != len(resD) {
			return false
		}
		for _, it := range resD {
			found := false
			for v := range want {
				if verts[v].Same(it.Node()) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		// Delta never feeds more than Naïve.
		return stD.NodesFedBack <= stN.NodesFedBack
	}
	cfg := &quick.Config{MaxCount: 250, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickNonDistributiveDeltaMayDiverge documents the other direction:
// for a threshold payload (non-distributive), Delta can lose nodes that
// Naïve finds — but Delta's result is always a subset of Naïve's.
func TestQuickDeltaSubsetOfNaive(t *testing.T) {
	const n = 10
	_, verts := graphDoc(n)
	f := func(edges []uint16, seedSel uint16, threshold uint8) bool {
		adj := make([][]int, n)
		for _, e := range edges {
			adj[int(e)%n] = append(adj[int(e)%n], int(e>>4)%n)
		}
		var seedSeq xdm.Sequence
		for i := 0; i < n; i++ {
			if seedSel&(1<<i) != 0 {
				seedSeq = append(seedSeq, xdm.NewNode(verts[i]))
			}
		}
		base := successorPayload(verts, adj)
		// Non-distributive: answers only when the input is big enough.
		th := int(threshold%4) + 1
		payload := func(xs xdm.Sequence) (xdm.Sequence, error) {
			if len(xs) < th {
				return nil, nil
			}
			return base(xs)
		}
		resN, _, err := RunWith(Naive, seedSeq, payload, Config{})
		if err != nil {
			return false
		}
		resD, _, err := RunWith(Delta, seedSeq, payload, Config{})
		if err != nil {
			return false
		}
		inN := map[xdm.NodeRef]bool{}
		for _, it := range resN {
			inN[it.Node()] = true
		}
		for _, it := range resD {
			if !inN[it.Node()] {
				return false // Delta found something Naïve did not: impossible
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(123))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
