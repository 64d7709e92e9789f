package algebra

import (
	"context"

	"repro/internal/obs"
	"repro/internal/xdm"
	"repro/internal/xq/ast"
)

// FixpointMode selects how compiled µ sites evaluate.
type FixpointMode uint8

// Fixpoint modes.
const (
	// ModeAuto trades µ for µ∆ exactly when the algebraic distributivity
	// check certifies the body (the MonetDB/XQuery behaviour of §5).
	ModeAuto FixpointMode = iota
	// ModeNaive forces µ everywhere.
	ModeNaive
	// ModeDelta forces µ∆ everywhere (unsafe for non-distributive bodies).
	ModeDelta
)

// Options configure an Engine.
type Options struct {
	Mode          FixpointMode
	MaxIterations int
	// Strict selects the Table 1-exact push rules for the auto decision;
	// when false the extended rules (left input of `\`) apply.
	Strict bool
	Docs   func(uri string) (*xdm.Document, error)
	// Parallelism is the worker-pool width for µ/µ∆ round internals
	// (0 = GOMAXPROCS, 1 = sequential); results are byte-identical at
	// every setting.
	Parallelism int
	// NoIndex disables the name-index probe path in the step executor;
	// results are byte-identical either way (difftest CheckIndexes).
	NoIndex bool
	// Context, when non-nil, cancels execution between and within rounds.
	Context context.Context
	// Budget, when non-nil, bounds execution: every freshly materialized
	// table is charged against the row budget, and the fixpoint drivers
	// check the deadline and round budget between rounds. Budget errors
	// unwind with the MuRun stats collected so far.
	Budget *xdm.Budget
	// Optimize, when non-nil, rewrites the compiled plan between
	// compilation and execution (callers pass opt.Optimize from
	// internal/algebra/opt; nil executes the compiler's verbatim plan).
	// It runs after the per-site µ/µ∆ decision, so rewrites see the final
	// Delta flags and the distributivity check always judges the raw plan.
	Optimize func(*Plan)
	// Trace, when non-nil, records the compile/optimize/exec phases and
	// one span per fixpoint round at every µ site. Prof, when non-nil,
	// accumulates per-operator actuals (calls, rows in/out, self time,
	// gathers, alloc estimate) keyed by *Node — the EXPLAIN ANALYZE data.
	// Both are read-only instrumentation: results and MuRun stats are
	// byte-identical with and without them (difftest CheckTracing).
	Trace *obs.Trace
	Prof  *obs.PlanProfile
}

// Engine evaluates a module through the relational pipeline: loop-lifting
// compilation, algebraic distributivity check, plan execution with µ/µ∆ —
// the repository's MonetDB/XQuery analog.
type Engine struct {
	plan *Plan
	opts Options
}

// CompilePlan compiles the module, fixes each µ site's algorithm per the
// requested mode, and runs the optimizer — everything about a plan that
// depends only on (module, mode, strict, optimizer) and nothing about a
// single evaluation. The returned plan holds no mutable execution state
// (that all lives in ExecContext, keyed by node pointer), so one compiled
// plan is safely shared across concurrent evaluations — the contract the
// serving layer's plan cache relies on.
func CompilePlan(m *ast.Module, mode FixpointMode, strict bool, optimize func(*Plan), tr *obs.Trace) (*Plan, error) {
	stopCompile := tr.StartPhase("compile")
	plan, err := CompileModule(m)
	stopCompile()
	if err != nil {
		return nil, err
	}
	for _, site := range plan.Mus {
		switch mode {
		case ModeNaive:
			site.Mu.Delta = false
		case ModeDelta:
			site.Mu.Delta = true
		default:
			if strict {
				site.Mu.Delta = site.Distributive
			} else {
				site.Mu.Delta = site.DistributiveExt
			}
		}
	}
	if optimize != nil {
		stopOpt := tr.StartPhase("optimize")
		optimize(plan)
		stopOpt()
	}
	return plan, nil
}

// NewEngine compiles the module and fixes each µ site's algorithm per the
// requested mode.
func NewEngine(m *ast.Module, opts Options) (*Engine, error) {
	plan, err := CompilePlan(m, opts.Mode, opts.Strict, opts.Optimize, opts.Trace)
	if err != nil {
		return nil, err
	}
	return &Engine{plan: plan, opts: opts}, nil
}

// NewEngineFromPlan builds an engine around an already-compiled plan (a
// plan-cache hit). The plan must have been produced by CompilePlan with
// the mode, strictness, and optimizer these options imply — the engine
// does not re-derive any of it.
func NewEngineFromPlan(plan *Plan, opts Options) *Engine {
	return &Engine{plan: plan, opts: opts}
}

// Plan exposes the compiled plan (explain output, tests).
func (e *Engine) Plan() *Plan { return e.plan }

// Eval executes the plan and returns the result sequence plus fixpoint
// instrumentation.
func (e *Engine) Eval() (xdm.Sequence, []MuRun, error) {
	ctx := &ExecContext{
		Docs: e.opts.Docs, MaxIterations: e.opts.MaxIterations,
		Parallelism: e.opts.Parallelism, NoIndex: e.opts.NoIndex,
		Ctx: e.opts.Context, Budget: e.opts.Budget,
		Trace: e.opts.Trace, Prof: e.opts.Prof,
	}
	stopExec := e.opts.Trace.StartPhase("exec")
	t, err := Eval(e.plan.Root, ctx)
	stopExec()
	if err != nil {
		return nil, ctx.MuRuns(), err
	}
	return ResultSequence(t), ctx.MuRuns(), nil
}
