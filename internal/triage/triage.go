// Package triage pinpoints the optimization behind a conjecture violation
// (§4.3 of the paper). Two methods mirror the paper's:
//
//   - Bisect, for the clang-like family: re-run the pipeline with an
//     execution limit and binary-search the first pass application that
//     makes the violation appear (the -opt-bisect-limit technique).
//   - FlagSearch, for the gcc-like family: recompile with one pass disabled
//     at a time (the -fno-<opt> survey); every flag whose removal makes the
//     violation vanish is a culprit candidate.
package triage

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/compiler"
	"repro/internal/conjecture"
	"repro/internal/debugger"
	"repro/internal/minic"
)

// CompileFn is a pluggable compiler entry point with the same contract as
// compiler.Compile.
type CompileFn func(*minic.Program, compiler.Config, compiler.Options) (*compiler.Result, error)

// Target is one violation to triage.
type Target struct {
	Prog  *minic.Program
	Facts *analysis.Facts
	Cfg   compiler.Config
	// Key identifies the violation (conjecture.Violation.Key()).
	Key string
	// Compile, when non-nil, replaces compiler.Compile for every build the
	// triage performs. The engine injects its caching, counting compile
	// here so triage baselines reuse the artifacts of an earlier Check.
	Compile CompileFn
	// Debugger, when non-nil, replaces the family's native debugger for
	// every trace the triage records (the engine injects its configured
	// debugger so WithDebugger overrides hold through triage).
	Debugger debugger.Debugger
	// StepBudget caps the VM steps of every trace the triage records;
	// 0 means vm.DefaultMaxStep (the engine threads WithStepBudget here).
	StepBudget int
}

// dbg returns the target's debugger, defaulting to the family's native one.
func (tg Target) dbg() debugger.Debugger {
	if tg.Debugger != nil {
		return tg.Debugger
	}
	return newDebugger(tg.Cfg.Family)
}

// compile builds the target's program with the configured entry point.
func (tg Target) compile(o compiler.Options) (*compiler.Result, error) {
	if tg.Compile != nil {
		return tg.Compile(tg.Prog, tg.Cfg, o)
	}
	return compiler.Compile(tg.Prog, tg.Cfg, o)
}

// newDebugger builds the family's native debugger with its catalogued
// defects, as the paper's pipeline does.
func newDebugger(f compiler.Family) debugger.Debugger {
	name := compiler.NativeDebugger(f)
	if name == "gdb" {
		return debugger.NewGDB(compiler.DebuggerDefects("gdb"))
	}
	return debugger.NewLLDB(compiler.DebuggerDefects("lldb"))
}

// Occurs compiles with the given knobs and reports whether the violation
// reproduces.
func Occurs(tg Target, o compiler.Options) (bool, error) {
	res, err := tg.compile(o)
	if err != nil {
		return false, err
	}
	tr, err := debugger.RecordWith(res.Exe, tg.dbg(), debugger.RecordOpts{StepBudget: tg.StepBudget})
	if err != nil {
		return false, err
	}
	for _, v := range conjecture.CheckAll(tg.Facts, tr) {
		if v.Key() == tg.Key {
			return true, nil
		}
	}
	return false, nil
}

// Bisect finds the first pass execution whose application makes the
// violation visible and returns the pass name (without the function
// suffix). It fails when the violation does not reproduce with the full
// pipeline.
func Bisect(tg Target) (string, error) {
	full, err := tg.compile(compiler.Options{})
	if err != nil {
		return "", err
	}
	n := full.PipelineExecutions
	occursAt := func(limit int) (bool, error) {
		if limit == 0 {
			// A zero execution budget cannot be expressed through the
			// bisect knob (zero means "unlimited" there); disabling every
			// pass is equivalent.
			disabled := map[string]bool{}
			for _, name := range compiler.PassNames(tg.Cfg) {
				disabled[name] = true
			}
			return Occurs(tg, compiler.Options{Disabled: disabled})
		}
		return Occurs(tg, compiler.Options{BisectLimit: limit})
	}
	all, err := occursAt(n)
	if err != nil {
		return "", err
	}
	if !all {
		return "", fmt.Errorf("triage: violation does not reproduce at full pipeline")
	}
	if zero, err := occursAt(0); err != nil {
		return "", err
	} else if zero {
		// Present before any optimization ran: attributable to codegen or
		// the debugger, not a middle-end pass.
		return "codegen", nil
	}
	// Register promotion is the always-on baseline of every optimizing
	// level (the -O0 comparison point of the paper uses memory-resident
	// variables); start the search after it so attribution lands on a real
	// transformation unless promotion itself is the cause.
	lo := 0
	for _, name := range full.Applied {
		if !strings.HasPrefix(name, "mem2reg(") {
			break
		}
		lo++
	}
	if lo > 0 {
		occ, err := occursAt(lo)
		if err != nil {
			return "", err
		}
		if occ {
			return "mem2reg", nil
		}
	}
	hi := n // lo: absent, hi: present
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		occ, err := occursAt(mid)
		if err != nil {
			return "", err
		}
		if occ {
			hi = mid
		} else {
			lo = mid
		}
	}
	name := full.Applied[hi-1]
	if i := strings.IndexByte(name, '('); i >= 0 {
		name = name[:i]
	}
	return name, nil
}

// FlagSearch tries the pipeline with each pass disabled separately and
// returns the passes whose removal makes the violation disappear. Multiple
// results reflect dependencies between optimizations (the paper's inlining
// example); none means the behaviour is not controllable by single flags.
func FlagSearch(tg Target) ([]string, error) {
	base, err := Occurs(tg, compiler.Options{})
	if err != nil {
		return nil, err
	}
	if !base {
		return nil, fmt.Errorf("triage: violation does not reproduce with all passes enabled")
	}
	var culprits []string
	for _, name := range compiler.PassNames(tg.Cfg) {
		if name == "mem2reg" {
			// Register promotion has no disable flag on real compilers
			// (it is the optimizing levels' baseline); a violation only
			// controllable by it counts as flag-uncontrollable (§4.3).
			continue
		}
		occ, err := Occurs(tg, compiler.Options{Disabled: map[string]bool{name: true}})
		if err != nil {
			return nil, err
		}
		if !occ {
			culprits = append(culprits, name)
		}
	}
	return culprits, nil
}

// Culprit runs the family-appropriate method and returns a single ranked
// culprit name (the paper heuristically down-ranks inlining because
// disabling it suppresses many downstream passes).
func Culprit(tg Target) (string, error) {
	if tg.Cfg.Family == compiler.CL {
		return Bisect(tg)
	}
	cands, err := FlagSearch(tg)
	if err != nil {
		return "", err
	}
	if len(cands) == 0 {
		return "", fmt.Errorf("triage: no single flag controls the violation")
	}
	return rankCulprits(cands), nil
}

// rankCulprits picks the reported culprit from FlagSearch's candidate
// list. FlagSearch returns candidates in the pipeline's canonical
// PassNames order, so the pick is a pure function of the set — identical
// at any worker count. The first candidate wins unless it is inlining or
// register promotion, which the paper down-ranks because disabling them
// suppresses many downstream passes: any other candidate beats them.
func rankCulprits(cands []string) string {
	best := cands[0]
	for _, c := range cands {
		if c != "inline" && (best == "inline" || best == "mem2reg") {
			best = c
		}
	}
	return best
}
