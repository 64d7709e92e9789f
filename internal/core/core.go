// Package core implements the paper's inflationary fixed point (IFP)
// semantics (Definition 2.1) and its two evaluation algorithms, Naïve and
// Delta (Figure 3), independent of any particular XQuery engine. Iterate
// is the one round loop both engines drive: the direct interpreter
// (internal/xq/interp) through RunWith over node sequences, the relational
// back-end (internal/algebra) directly over its per-iteration node-set
// families. Convergence, the iteration bound, cancellation, budgets,
// per-round trace spans and the Table 2 counters are therefore one piece
// of code; the engines differ only in the value that flows around the
// loop and in how they apply the payload to it.
package core

import (
	"context"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/xdm"
)

// Payload is the recursion body e_rec regarded as a function of the
// recursion variable: it maps a node sequence bound to $x to the node
// sequence e_rec($x).
type Payload func(xdm.Sequence) (xdm.Sequence, error)

// Algorithm selects the fixpoint evaluation strategy.
type Algorithm uint8

// Fixpoint algorithms.
const (
	// Naive recomputes the payload over the whole accumulated result in
	// every round (Figure 3(a)).
	Naive Algorithm = iota
	// Delta feeds only the newly discovered nodes back into the payload
	// (Figure 3(b)); safe exactly when the payload is distributive
	// (Theorem 3.2).
	Delta
)

// String names the algorithm as the paper does.
func (a Algorithm) String() string {
	if a == Delta {
		return "Delta"
	}
	return "Naive"
}

// Stats instruments one fixpoint computation with the quantities reported
// in Table 2.
type Stats struct {
	// Depth is the recursion depth: the number of payload applications
	// after the seeding application (the k of Definition 2.1).
	Depth int
	// PayloadCalls counts every invocation of the payload, including the
	// initial application to the seed.
	PayloadCalls int
	// NodesFedBack totals the sequence lengths fed into the payload
	// across all invocations ("Total # of Nodes Fed Back").
	NodesFedBack int64
	// ResultSize is the cardinality of the fixpoint.
	ResultSize int
}

// Add accumulates another run's counters (used when an IFP executes more
// than once, as per binding of an enclosing for-loop in the bidder network
// query): Depth is the deepest single run, the rest are totals.
func (s *Stats) Add(o Stats) {
	if o.Depth > s.Depth {
		s.Depth = o.Depth
	}
	s.PayloadCalls += o.PayloadCalls
	s.NodesFedBack += o.NodesFedBack
	s.ResultSize += o.ResultSize
}

// DefaultMaxIterations bounds fixpoint rounds; bodies invoking node
// constructors can make the IFP undefined (Definition 2.1), which this
// bound turns into an IFPX0001 error instead of divergence.
const DefaultMaxIterations = 1 << 20

// Config tunes one fixpoint computation beyond the algorithm choice.
type Config struct {
	// MaxIterations bounds fixpoint rounds; <= 0 selects
	// DefaultMaxIterations.
	MaxIterations int
	// Parallelism is the worker-pool width for the per-round delta
	// accumulation (0 = GOMAXPROCS, 1 = sequential). Results and stats are
	// byte-identical at every setting.
	Parallelism int
	// Context, when non-nil, cancels the computation between rounds and
	// inside the sharded accumulation; the run returns the context's error
	// with the worker pool fully drained.
	Context context.Context
	// Budget, when non-nil, bounds the computation: the deadline and the
	// round budget are checked between rounds, and each round's feed and
	// absorbed growth are charged against the row budget. Budget errors
	// unwind with the Stats collected so far.
	Budget *xdm.Budget
	// Trace, when non-nil, records one span per round (feed size, absorbed
	// growth, duration) under the TraceSite index, round 0 being the
	// seeding application. Recording is read-only instrumentation: results
	// and Stats are byte-identical with and without it (internal/difftest
	// CheckTracing).
	Trace     *obs.Trace
	TraceSite int
}

// Sized is anything with a cardinality: a feed, an answer, a delta, or a
// whole accumulated family.
type Sized interface{ Len() int }

// Family is the accumulated result res of one fixpoint computation, held
// in its engine's representation. V is the value that flows around the
// round loop in that representation: what the payload is fed and what it
// answers.
type Family[V Sized] interface {
	// Len is |res|.
	Sized
	// Absorb folds one payload answer into res in place and returns the
	// round's delta: the answer's members not yet in res, each once. The
	// work may be sharded across workers and cancelled through ctx; the
	// delta must not depend on the worker count.
	Absorb(answer V, workers int, ctx context.Context) (V, error)
	// Feed returns res as a payload input: what a Naïve round feeds back.
	Feed() V
}

// Iterate computes the inflationary fixed point of a payload into res,
// which must start empty (Figure 3). It is the one round loop of the
// repository; apply is the engine's payload step. Round 0, the seeding
// application, is handed (seed, seed). Each later round is handed
// (feed, delta), delta being the previous round's growth: a Naïve feed is
// all of res, a Delta feed is delta itself. The run converges after the
// first round (for Naïve: after the first post-seed round) that adds
// nothing to res.
//
// Iterate owns everything but the payload: the iteration bound and its
// IFPX0001 error, cancellation, the budget's deadline, round and row
// checks, the per-round trace spans, and the Table 2 counters. The Stats
// returned with an error hold the counters collected up to it.
func Iterate[V Sized](alg Algorithm, res Family[V], seed V, apply func(feed, delta V) (V, error), cfg Config) (Stats, error) {
	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	workers := par.Workers(cfg.Parallelism)
	var st Stats
	feed, delta := seed, seed
	for round := 0; ; round++ {
		if round > 0 {
			if round > maxIter {
				return st, xdm.Errorf(xdm.ErrIFP,
					"inflationary fixed point did not converge within %d iterations", maxIter)
			}
			if alg == Naive {
				feed = res.Feed()
			} else {
				feed = delta
			}
			if err := checkBudgetRound(cfg.Budget, round-1, feed.Len()); err != nil {
				return st, err
			}
		}
		if err := par.CtxErr(cfg.Context); err != nil {
			return st, err
		}
		// Measure the feed before Absorb, which may grow it: a Naïve feed, and
		// the first Delta feed of a family that adopts its first answer, is res.
		fed := int64(feed.Len())
		t0 := cfg.Trace.Now()
		st.PayloadCalls++
		st.NodesFedBack += fed
		answer, err := apply(feed, delta)
		if err != nil {
			return st, err
		}
		if delta, err = res.Absorb(answer, workers, cfg.Context); err != nil {
			return st, err
		}
		if cfg.Trace != nil {
			cfg.Trace.AddRound(cfg.TraceSite, round, fed, int64(delta.Len()), cfg.Trace.Now()-t0)
		}
		// res is inflationary: a round that adds nothing is the fixpoint.
		// An empty first answer still gets one Naïve round (fed 0), which
		// the Table 2 counts of both engines include.
		if delta.Len() == 0 && (round > 0 || alg == Delta) {
			break
		}
		if err := cfg.Budget.ChargeRows(delta.Len()); err != nil {
			return st, err
		}
	}
	st.Depth = st.PayloadCalls - 1
	st.ResultSize = res.Len()
	return st, nil
}

// checkBudgetRound is the per-round budget gate: deadline first (wall
// clock beats counters), then the round budget, then the feed about to be
// handed to the payload charged against the row budget. It runs before the
// payload application, so a tripped budget never pays for one more round.
func checkBudgetRound(b *xdm.Budget, round, feedLen int) error {
	if b == nil {
		return nil
	}
	if err := b.CheckDeadline(); err != nil {
		return err
	}
	if err := b.CheckRound(round); err != nil {
		return err
	}
	return b.ChargeRows(feedLen)
}

// RunWith computes the IFP of a payload over node sequences, seeded by
// seed — the interpreter's fixpoint. The accumulated result lives in an
// xdm.Accumulator: each round's answer is absorbed by bitmap membership
// tests and a sorted-run merge, so the union costs O(|answer|) instead of
// the full re-sort that round-tripping through xdm.Union would pay. (A
// Naïve feed is still the whole accumulated set — that is what makes
// Naïve naïve.) The result is in document order.
func RunWith(alg Algorithm, seed xdm.Sequence, body Payload, cfg Config) (xdm.Sequence, Stats, error) {
	if err := checkNodes(seed, "seed"); err != nil {
		return nil, Stats{}, err
	}
	ddoSeed, err := xdm.DDO(seed)
	if err != nil {
		return nil, Stats{}, err
	}
	var res nodes
	var last xdm.Sequence
	st, err := Iterate(alg, &res, ddoSeed, func(feed, _ xdm.Sequence) (xdm.Sequence, error) {
		last = feed
		out, err := body(feed)
		if err != nil {
			return nil, err
		}
		// Absorb checks node-ness too; this check names the culprit.
		if err := checkNodes(out, "body result"); err != nil {
			return nil, err
		}
		return out, nil
	}, cfg)
	if err != nil {
		return nil, st, err
	}
	// A Naïve run ends on a round that added nothing to the res it was fed,
	// so that feed is the result already materialized.
	if alg == Naive {
		return last, st, nil
	}
	return res.Feed(), st, nil
}

func checkNodes(s xdm.Sequence, role string) error {
	if !s.AllNodes() {
		return xdm.NewError(xdm.ErrType, "inflationary fixed point "+role+" must be of type node()*")
	}
	return nil
}

// nodes is RunWith's Family: an xdm.Accumulator whose absorption is
// sharded across the worker pool.
type nodes struct{ xdm.Accumulator }

// Feed materializes the accumulated set in document order.
func (a *nodes) Feed() xdm.Sequence { return a.Sequence() }

// absorbMinChunk is the smallest per-worker slice of a round's answer
// worth a goroutine; below p × this, absorption stays sequential.
const absorbMinChunk = 2048

// Absorb is Accumulator.Absorb with the membership screen sharded across
// the worker pool. Phase 1 runs read-only against the accumulated set:
// each chunk of the round's answer drops the nodes already absorbed — in
// converged regions that is most of the answer, and a bitmap read per node
// is all it costs. Phase 2 absorbs the surviving candidates sequentially
// in chunk order; duplicates *within* the round survive phase 1 and are
// collapsed there, by exactly the seen.Add the sequential path would have
// spent on them. Because phase 1 only ever removes items the sequential
// path would also have rejected, the returned delta — and every later
// round — is byte-identical to Absorb's at any worker count.
func (a *nodes) Absorb(answer xdm.Sequence, workers int, ctx context.Context) (xdm.Sequence, error) {
	if workers <= 1 || len(answer) < 2*absorbMinChunk {
		fresh, err := a.Accumulator.Absorb(answer)
		return xdm.NodeSeq(fresh), err
	}
	chunks := par.Chunks(len(answer), workers, absorbMinChunk)
	cand := make([][]xdm.NodeRef, len(chunks))
	err := par.Run(ctx, workers, len(chunks), func(i int) error {
		for _, it := range answer[chunks[i][0]:chunks[i][1]] {
			if !it.IsNode() {
				return xdm.NewError(xdm.ErrType, "expected node()*, found "+it.Kind().String())
			}
			if n := it.Node(); !a.Has(n) {
				cand[i] = append(cand[i], n)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, c := range cand {
		total += len(c)
	}
	flat := make([]xdm.NodeRef, 0, total)
	for _, c := range cand {
		flat = append(flat, c...)
	}
	return xdm.NodeSeq(a.AbsorbNodes(flat)), nil
}
