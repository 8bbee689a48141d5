package main

// Output checks. None of them runs inside a timed window. Each compares
// what the measured server produced against an independent reference: a
// serial engine with caching off (WithWorkers(1), WithCompileCache(0)),
// the committed golden HTTP bodies, or the IR interpreter. A mismatch is
// counted as a failed op, never filtered out.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	pokeholes "repro"
	"repro/internal/compiler"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/object"
	"repro/internal/vm"
)

// referenceEngine is the engine every output is checked against: one
// worker and no caches, so no reuse tier can hide a wrong result.
func referenceEngine() *pokeholes.Engine {
	return pokeholes.NewEngine(pokeholes.WithWorkers(1), pokeholes.WithCompileCache(0))
}

// cell is one compiled (program, configuration) pair an op produced.
type cell struct {
	prog *minic.Program
	cfg  pokeholes.Config
	op   int // index of the op the cell belongs to, for failure accounting
}

// sample picks up to n items of xs, seeded, preserving their order.
func sample[T any](rng *rand.Rand, xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	idx := rng.Perm(len(xs))[:n]
	keep := make([]bool, len(xs))
	for _, i := range idx {
		keep[i] = true
	}
	out := make([]T, 0, n)
	for i, x := range xs {
		if keep[i] {
			out = append(out, x)
		}
	}
	return out
}

// vmMismatch compares the VM's observable behaviour of exe with the IR
// interpreter's run of the program's lowered module. It returns "" when
// they agree.
func vmMismatch(prog *minic.Program, observe func() (*ir.Observation, error)) string {
	mod, err := compiler.Frontend(prog)
	if err != nil {
		return fmt.Sprintf("frontend: %v", err)
	}
	ref, err := ir.Interp(mod, 0)
	if err != nil {
		return fmt.Sprintf("interp: %v", err)
	}
	got, err := observe()
	if err != nil {
		return fmt.Sprintf("vm: %v", err)
	}
	if !ref.Equal(got) {
		return "vm differs from the interpreter: " + firstDifference(ref, got)
	}
	return ""
}

// firstDifference describes where two observations first differ.
func firstDifference(ref, got *ir.Observation) string {
	if ref.Ret != got.Ret {
		return fmt.Sprintf("exit %d, interpreter %d", got.Ret, ref.Ret)
	}
	for i := 0; i < len(ref.Events) && i < len(got.Events); i++ {
		if ref.Events[i].String() != got.Events[i].String() {
			return fmt.Sprintf("event %d is %q, interpreter %q", i, got.Events[i], ref.Events[i])
		}
	}
	if len(ref.Events) != len(got.Events) {
		return fmt.Sprintf("%d events, interpreter %d", len(got.Events), len(ref.Events))
	}
	names := make([]string, 0, len(ref.Globals))
	for name := range ref.Globals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if fmt.Sprint(ref.Globals[name]) != fmt.Sprint(got.Globals[name]) {
			return fmt.Sprintf("global %s is %v, interpreter %v", name, got.Globals[name], ref.Globals[name])
		}
	}
	return "observations differ"
}

// observeFn runs an executable to completion on the VM; the benchmark's
// tests substitute a faulty one.
type observeFn func(*object.Executable) (*ir.Observation, error)

func vmObserve(exe *object.Executable) (*ir.Observation, error) { return vm.Observe(exe.Prog) }

// checkVM runs the VM-versus-interpreter check on each cell's executable
// as the measured engine built it, and returns the ops whose cell
// disagreed.
func checkVM(ctx context.Context, o *outcome, eng *pokeholes.Engine, cells []cell, observe observeFn) map[int]bool {
	bad := map[int]bool{}
	for _, c := range cells {
		exe, err := eng.Compile(ctx, c.prog, c.cfg)
		msg := ""
		if err != nil {
			msg = fmt.Sprintf("compile: %v", err)
		} else {
			msg = vmMismatch(c.prog, func() (*ir.Observation, error) { return observe(exe) })
		}
		if msg != "" {
			bad[c.op] = true
			o.note("FAIL vm check %s program %s op %d: %s", c.cfg, pokeholes.Fingerprint(c.prog), c.op, msg)
		}
	}
	o.note("vm check: %d cells, %d disagree with the IR interpreter", len(cells), len(bad))
	return bad
}

// parallel runs fn(i) for i < n on at most workers goroutines and waits.
func parallel(n, workers int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
