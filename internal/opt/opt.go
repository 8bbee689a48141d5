// Package opt implements the optimizer of the simulated compiler: a pass
// manager and the transformation passes whose debug-information maintenance
// the paper's methodology stresses.
//
// Every pass maintains the OpDbgVal debug intrinsics of the IR it rewrites.
// Where the paper's reported bugs show real compilers dropping or corrupting
// that metadata, the corresponding pass consults the defect oracle
// (Context.Defect) and, when the defect is active for the compiler
// configuration under test, reproduces the faulty behaviour. All defect
// identifiers live in defects.go of the compiler package; passes reference
// them by string so that the registry stays the single source of truth.
package opt

import (
	"repro/internal/ir"
)

// Context carries compilation-wide state into passes.
type Context struct {
	Mod *ir.Module
	// Level is the optimization level being compiled ("O1", "Og", ...).
	// A few defects are level-sensitive, mirroring the paper's findings.
	Level string
	// Defects is the set of active implementation-defect identifiers for
	// the (family, version) being simulated.
	Defects map[string]bool
	// Stats counts pass-specific events, keyed by free-form strings.
	Stats map[string]int
}

// Defect reports whether the named implementation defect is active.
func (c *Context) Defect(id string) bool { return c.Defects[id] }

// Count bumps a statistic counter.
func (c *Context) Count(key string) {
	if c.Stats != nil {
		c.Stats[key]++
	}
}

// Pass is one optimizer transformation.
type Pass interface {
	// Name returns the stable pass identifier used by triage flags and the
	// bisection mechanism.
	Name() string
	// Run transforms fn in place and reports whether anything changed.
	Run(fn *ir.Func, ctx *Context) bool
}

// ModulePass is implemented by passes that need whole-module scope
// (inlining, interprocedural analyses, global reordering).
type ModulePass interface {
	Pass
	// RunModule transforms the module; the per-function Run is not used.
	RunModule(ctx *Context) bool
}

// Options configures one pipeline execution.
type Options struct {
	// Disabled names passes to skip (the gcc-style -fno-<pass> triage knob).
	Disabled map[string]bool
	// BisectLimit, when >= 0, stops the pipeline after this many pass
	// executions (the clang-style -opt-bisect-limit triage knob). A pass
	// execution is one (pass, function) application or one module pass.
	BisectLimit int
	// Defects is the active defect set.
	Defects map[string]bool
	// Level is the optimization level label, for level-sensitive defects.
	Level string
	// Stats, when non-nil, receives pass statistics.
	Stats map[string]int
}

// Result reports what a pipeline execution did.
type Result struct {
	// Executions is the total number of pass executions performed.
	Executions int
	// Applied lists the pass executions in order, in a canonical format
	// that schedule digests and tests rely on: a module pass records its
	// bare name ("toplevel-reorder"); a function pass records one
	// "name(fn)" entry per function it ran on ("dce(main)").
	Applied []string
}

// RunPipeline applies the pass list to the module under the given options
// and returns execution statistics. The module is modified in place.
// One Context is built up front and shared by every pass, and Applied is
// preallocated from CountExecutions — this is the hot Optimize path, and
// per-execution slice growth shows up there.
func RunPipeline(m *ir.Module, passes []Pass, o Options) *Result {
	ctx := &Context{Mod: m, Defects: o.Defects, Stats: o.Stats, Level: o.Level}
	if ctx.Defects == nil {
		ctx.Defects = map[string]bool{}
	}
	res := &Result{Applied: make([]string, 0, CountExecutions(m, passes, o.Disabled))}
	budget := func() bool { return o.BisectLimit < 0 || res.Executions < o.BisectLimit }
	for _, p := range passes {
		if o.Disabled[p.Name()] {
			continue
		}
		if mp, ok := p.(ModulePass); ok {
			if !budget() {
				return res
			}
			mp.RunModule(ctx)
			res.Executions++
			res.Applied = append(res.Applied, p.Name())
			continue
		}
		for _, f := range m.Funcs {
			if f.Opaque {
				continue
			}
			if !budget() {
				return res
			}
			p.Run(f, ctx)
			res.Executions++
			res.Applied = append(res.Applied, p.Name()+"("+f.Name+")")
		}
	}
	return res
}

// CountExecutions returns how many pass executions a full pipeline run would
// perform on the module (used by the bisection driver to size its search).
func CountExecutions(m *ir.Module, passes []Pass, disabled map[string]bool) int {
	n := 0
	for _, p := range passes {
		if disabled[p.Name()] {
			continue
		}
		if _, ok := p.(ModulePass); ok {
			n++
			continue
		}
		for _, f := range m.Funcs {
			if !f.Opaque {
				n++
			}
		}
	}
	return n
}
