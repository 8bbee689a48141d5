package vm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/codegen"
	"repro/internal/ir"
	"repro/internal/minic"
)

func build(t *testing.T, src string) (*ir.Module, *Machine) {
	t.Helper()
	prog := minic.MustParse(src)
	m, err := ir.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	asmProg, _, err := codegen.Generate(m, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mach, err := New(asmProg)
	if err != nil {
		t.Fatal(err)
	}
	return m, mach
}

func TestVMMatchesInterpreter(t *testing.T) {
	srcs := []string{
		`int main(void) { int a = 6; int b = 7; return a * b; }`,
		`
int g[4];
volatile int c;
extern void opaque(int x);
int main(void) {
  int i;
  for (i = 0; i < 4; i = i + 1) {
    g[i] = i * i;
    c = g[i];
  }
  opaque(g[3]);
  return g[2];
}`,
		`
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int main(void) { return fib(10); }`,
		`
int b = 0;
int main(void) {
  int* p = &b;
  *p = 9;
  return *p + b;
}`,
	}
	for _, src := range srcs {
		m, mach := build(t, src)
		ref, err := ir.Interp(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := mach.Run(); err != nil {
			t.Fatalf("vm: %v", err)
		}
		if ran := mach.observation(); !ref.Equal(ran) {
			t.Errorf("Run diverges from interpreter for:\n%s\nref=%+v\ngot=%+v", src, ref, ran)
		}
		got, err := Observe(mach.Prog)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Equal(got) {
			t.Errorf("Observe diverges from interpreter for:\n%s\nref=%+v\ngot=%+v", src, ref, got)
		}
	}
}

func TestBreakpointsAreOneShot(t *testing.T) {
	_, mach := build(t, `
int g;
int main(void) {
  int i;
  for (i = 0; i < 3; i = i + 1) {
    g = g + i;
  }
  return g;
}`)
	// Break at the loop body's first instruction; it executes 3 times but
	// the breakpoint must fire once.
	var bodyPC = -1
	for pc, in := range mach.Prog.Instrs {
		if in.Op == 4 /* OpStoreG */ {
			bodyPC = pc
			break
		}
	}
	if bodyPC < 0 {
		t.Fatal("no global store found")
	}
	mach.SetBreak(bodyPC)
	hits := 0
	for {
		hit, err := mach.Continue()
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			break
		}
		hits++
		if err := mach.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if hits != 1 {
		t.Errorf("breakpoint fired %d times, want 1 (one-shot)", hits)
	}
	if !mach.Halted || mach.Exit != 3 {
		t.Errorf("halted=%v exit=%d, want exit 3", mach.Halted, mach.Exit)
	}
}

func TestReadRegAndSlot(t *testing.T) {
	_, mach := build(t, `
int main(void) {
  int x = 41;
  x = x + 1;
  return x;
}`)
	if err := mach.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := mach.ReadReg(1 << 20); ok {
		t.Error("out-of-range register read succeeded")
	}
	if _, ok := mach.ReadSlot(1 << 20); ok {
		t.Error("out-of-range slot read succeeded")
	}
}

func TestStepLimit(t *testing.T) {
	_, mach := build(t, `int main(void) { while (1) { } return 0; }`)
	mach.MaxStep = 500
	if err := mach.Run(); err != ErrStepLimit {
		t.Errorf("err = %v, want ErrStepLimit", err)
	}
}

// TestStackOverflow runs unbounded recursion: the machine must stop with
// ErrStackOverflow, as the IR interpreter does, instead of writing past the
// end of memory.
func TestStackOverflow(t *testing.T) {
	m, mach := build(t, `int f(int n) { return f(n + 1); } int main(void) { return f(0); }`)
	err := mach.Run()
	if !errors.Is(err, ErrStackOverflow) {
		t.Fatalf("err = %v, want ErrStackOverflow", err)
	}
	if _, ierr := ir.Interp(m, 0); ierr == nil || !strings.Contains(ierr.Error(), "stack overflow") {
		t.Errorf("interpreter err = %v, want a stack overflow", ierr)
	}
}

func TestCalleeSavedRegisters(t *testing.T) {
	// A call must not clobber the caller's registers: the frame's register
	// file is private (the callee-saved convention of the codegen model).
	_, mach := build(t, `
int f(int n) { return n * 2; }
int main(void) {
  int keep = 123;
  int r = f(4);
  return keep + r;
}`)
	if err := mach.Run(); err != nil {
		t.Fatal(err)
	}
	if mach.Exit != 131 {
		t.Errorf("exit = %d, want 131", mach.Exit)
	}
}

func TestForEachStop(t *testing.T) {
	_, mach := build(t, `
int main(void) {
  int x = 1;
  x = x + 1;
  x = x + 1;
  return x;
}`)
	// Arm a breakpoint on every instruction; the hook must fire once per
	// armed pc in execution order, with the machine stopped on that pc.
	for pc := range mach.Prog.Instrs {
		mach.SetBreak(pc)
	}
	var stops []int
	if err := mach.ForEachStop(func() error {
		stops = append(stops, mach.PC)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !mach.Halted || mach.Exit != 3 {
		t.Fatalf("halted=%v exit=%d, want halted with exit 3", mach.Halted, mach.Exit)
	}
	if len(stops) == 0 {
		t.Fatal("no stops observed")
	}
	for i := 1; i < len(stops); i++ {
		if stops[i] == stops[i-1] {
			t.Fatalf("stop %d repeated pc %d (one-shot breakpoints must not re-fire)", i, stops[i])
		}
	}
	// An onStop error aborts the session and surfaces unchanged.
	_, mach2 := build(t, `int main(void) { return 7; }`)
	for pc := range mach2.Prog.Instrs {
		mach2.SetBreak(pc)
	}
	sentinel := fmt.Errorf("sentinel")
	if err := mach2.ForEachStop(func() error { return sentinel }); err != sentinel {
		t.Errorf("err = %v, want the sentinel error", err)
	}
}

// reuseWriter is a program that leaves words written all over memory: a
// global, a deep recursion's frames, and pointer stores into the gap
// between the globals and the stack and above the stack top. %s is one
// more store, the highest of its region, made by the opcode under test.
const reuseWriter = `
int g;
int pad[4];
int f(int n) {
  int loc[8];
  loc[n & 7] = n + 1;
  if (n == 0) { return loc[0]; }
  return f(n - 1) + loc[n & 7];
}
int main(void) {
  int a[2];
  int *p = &g;
  g = 5;
  *(p + 30000) = 7;
  *(p + 72000) = 8;
  a[0] = f(60);
  %s
  return a[0];
}`

// reuseReader reads every word of memory outside the null page and its
// own frame, reporting each non-zero one. On fresh memory it reports
// none.
const reuseReader = `
int g;
int pad[4];
extern void dirty(int off);
int main(void) {
  int *p = &g;
  int i;
  int n = 0;
  for (i = 0; i < 65520; i = i + 1) {
    if (*(p + i) != 0) { dirty(i); n = n + 1; }
  }
  for (i = 65536; i < 81904; i = i + 1) {
    if (*(p + i) != 0) { dirty(i); n = n + 1; }
  }
  return n;
}`

// TestMachineReuseStartsZeroed is the oracle for pooled machine memory:
// after a released run, every word the run wrote is zero again, and the
// next program on reused memory behaves as the interpreter does on fresh
// memory. Each case's last store is the highest of its region, so
// dropping the high-water update of any one store opcode leaves a word
// dirty.
func TestMachineReuseStartsZeroed(t *testing.T) {
	for _, tc := range []struct{ name, store string }{
		{"storeg", "pad[65000] = 9;"},     // highest word below the stack
		{"storeslot", "a[12000] = 9;"},    // above the stack top
		{"storeptr", "*(p + 80000) = 9;"}, // higher still
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, a := build(t, fmt.Sprintf(reuseWriter, tc.store))
			if err := a.Run(); err != nil {
				t.Fatal(err)
			}
			mem := a.Mem
			a.Release()
			if a.Mem != nil {
				t.Error("Release left the machine its memory")
			}
			for i, w := range mem {
				if w != 0 {
					t.Fatalf("word %d = %d after Release, want 0", i, w)
				}
			}

			m, b := build(t, reuseReader)
			ref, err := ir.Interp(m, 10_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Run(); err != nil {
				t.Fatal(err)
			}
			if got := b.observation(); !ref.Equal(got) {
				t.Errorf("reused memory is dirty: ret %d, events %v; want ret %d", got.Ret, got.Events, ref.Ret)
			}
			b.Release()
		})
	}
}

// TestGlobalsPastMemoryEnd: a program whose globals do not fit — only an
// unchecked one, such as a decoded container, can have them — fails to
// load instead of panicking.
func TestGlobalsPastMemoryEnd(t *testing.T) {
	m, mach := build(t, `int g; int main(void) { return g; }`)
	prog := *mach.Prog
	prog.Globals = append(prog.Globals, &asm.Global{Name: "huge", Size: ir.MemWords})
	if _, err := New(&prog); err == nil {
		t.Error("vm.New accepted globals past the end of memory")
	}
	m.Globals = append(m.Globals, &ir.Global{Name: "huge", Size: ir.MemWords})
	if _, err := ir.Interp(m, 0); err == nil {
		t.Error("ir.Interp accepted globals past the end of memory")
	}
}
