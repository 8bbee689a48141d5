package main

// The output checks must count a wrong output as a failed op: a serve
// body that differs from its golden fixture, and a VM observation that
// differs from the interpreter's. Each test injects one such fault and
// asserts that the run's failed count, and so failed_frac, picks it up.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"

	pokeholes "repro"
	"repro/internal/ir"
	"repro/internal/object"
)

// TestMain runs the tests from the repository root, where the benchmark
// itself runs and the golden fixtures live.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// failedFrac is the run's failed_frac as report prints it.
func failedFrac(o *outcome) float64 { return ratio(float64(o.failed), float64(o.attempted)) }

func TestWrongServeBodyIsCounted(t *testing.T) {
	in, err := makeServeInputs(1, 1, serveWarm)
	if err != nil {
		t.Fatal(err)
	}
	// One reply per golden request, each answered with its fixture.
	var timed []reply
	seen := map[string]bool{}
	for i, req := range in.stream {
		if req.want != nil && !seen[req.key] {
			seen[req.key] = true
			timed = append(timed, reply{idx: i, status: 200, body: req.want})
		}
	}
	if len(timed) < 2*in.goldens {
		t.Fatalf("stream has %d golden requests, want at least %d", len(timed), 2*in.goldens)
	}
	rc := runConfig{seed: 1, seconds: 1, workers: 1}
	o := &outcome{attempted: int64(len(timed))}
	if n := checkServe(o, rc, in, pokeholes.NewEngine(), nil, timed); n != 0 {
		t.Fatalf("golden bodies failed %d checks: %v", n, o.notes)
	}

	wrong := append([]byte(nil), timed[0].body...)
	wrong[len(wrong)/2] ^= 1
	timed[0].body = wrong
	o = &outcome{attempted: int64(len(timed))}
	o.failed += checkServe(o, rc, in, pokeholes.NewEngine(), nil, timed)
	if o.failed != 1 || failedFrac(o) == 0 {
		t.Fatalf("a corrupted golden body counted %d failed ops (failed_frac %v), want 1", o.failed, failedFrac(o))
	}
	if res := report("serve", o); res.Correct || res.Failed != 1 {
		t.Fatalf("report = correct %v failed %d, want false and 1", res.Correct, res.Failed)
	}
}

func TestWrongVMObservationIsCounted(t *testing.T) {
	prog, err := pokeholes.ParseProgram("int g;\nint main(void) {\n  g = 40 + 2;\n  return g;\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	eng := pokeholes.NewEngine(pokeholes.WithWorkers(1))
	cells := []cell{{prog: prog, cfg: pokeholes.Config{Family: pokeholes.GC, Version: "trunk", Level: "O2"}, op: 7}}

	o := &outcome{attempted: 1}
	if bad := checkVM(context.Background(), o, eng, cells, vmObserve); len(bad) != 0 {
		t.Fatalf("a correct build failed the VM check: %v", o.notes)
	}
	wrongExit := func(exe *object.Executable) (*ir.Observation, error) {
		obs, err := vmObserve(exe)
		if err == nil {
			obs.Ret++
		}
		return obs, err
	}
	bad := checkVM(context.Background(), o, eng, cells, wrongExit)
	o.failed += int64(len(bad))
	if !bad[7] || o.failed != 1 || failedFrac(o) != 1 {
		t.Fatalf("a wrong VM observation counted %d failed ops (failed_frac %v, bad %v), want op 7", o.failed, failedFrac(o), bad)
	}
}

func TestProgramPoolIsSeededAndMixed(t *testing.T) {
	a, b := programPool(5, roundSize), programPool(5, roundSize)
	if len(a) != roundSize || len(b) != roundSize {
		t.Fatalf("pool sizes %d and %d, want %d", len(a), len(b), roundSize)
	}
	counts := make([]int, len(lengthClasses))
	for i := range a {
		if a[i].seed != b[i].seed || a[i].src != b[i].src {
			t.Fatalf("program %d differs between two pools of one seed", i)
		}
		lines := bytes.Count([]byte(a[i].src), []byte("\n"))
		c := a[i].class
		if lines >= lengthClasses[c].upper || c > 0 && lines < lengthClasses[c-1].upper {
			t.Fatalf("program %d has %d lines but is in length class %d", i, lines, c)
		}
		counts[c]++
	}
	for c, lc := range lengthClasses {
		if counts[c] != lc.perRound*len(a)/roundSize {
			t.Errorf("length class %d holds %d programs, want %d", c, counts[c], lc.perRound*len(a)/roundSize)
		}
	}
	c := programPool(6, roundSize)
	if c[0].seed == a[0].seed {
		t.Error("another seed gave the same first program")
	}
	tail := func(pool []pooled) (seeds []int64) {
		for _, p := range pool {
			if isTail(p.class) {
				seeds = append(seeds, p.seed)
			}
		}
		return seeds
	}
	if ta, tc := tail(a), tail(c); len(ta) == 0 || fmt.Sprint(ta) != fmt.Sprint(tc) {
		t.Errorf("tail programs %v and %v, want the same non-empty list for every seed", ta, tc)
	}
}
