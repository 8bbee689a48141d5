package ir

import (
	"testing"

	"repro/internal/minic"
)

func lower(t *testing.T, src string) *Module {
	t.Helper()
	prog := minic.MustParse(src)
	m, err := Lower(prog)
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v\n%s", err, m)
	}
	return m
}

func run(t *testing.T, src string) *Observation {
	t.Helper()
	m := lower(t, src)
	obs, err := Interp(m, 0)
	if err != nil {
		t.Fatalf("Interp: %v\n%s", err, m)
	}
	return obs
}

func TestInterpArithmetic(t *testing.T) {
	obs := run(t, `
int main(void) {
  int a = 6;
  int b = 7;
  return a * b;
}`)
	if obs.Ret != 42 {
		t.Errorf("ret = %d, want 42", obs.Ret)
	}
}

func TestInterpLoopsAndArrays(t *testing.T) {
	obs := run(t, `
int b[10][2];
int sum;
int main(void) {
  int i;
  int j;
  for (i = 0; i < 10; i = i + 1) {
    for (j = 0; j < 2; j = j + 1) {
      b[i][j] = i * 2 + j;
    }
  }
  sum = 0;
  for (i = 0; i < 10; i = i + 1) {
    for (j = 0; j < 2; j = j + 1) {
      sum = sum + b[i][j];
    }
  }
  return sum;
}`)
	if obs.Ret != 190 {
		t.Errorf("ret = %d, want 190", obs.Ret)
	}
	if obs.Globals["b"][3] != 3 { // b[1][1] = 1*2+1
		t.Errorf("b[1][1] = %d, want 3", obs.Globals["b"][3])
	}
}

func TestInterpOpaqueCallEvents(t *testing.T) {
	obs := run(t, `
extern void opaque(int x, int y);
int main(void) {
  int v = 5;
  opaque(v, v * 2);
  return 0;
}`)
	if len(obs.Events) != 1 {
		t.Fatalf("events = %v, want one call", obs.Events)
	}
	e := obs.Events[0]
	if e.Kind != "call" || e.Name != "opaque" || e.Args[0] != 5 || e.Args[1] != 10 {
		t.Errorf("event = %v", e)
	}
}

func TestInterpVolatileEvents(t *testing.T) {
	obs := run(t, `
volatile int c;
int main(void) {
  int i;
  for (i = 0; i < 3; i = i + 1) {
    c = i;
  }
  return c;
}`)
	var stores []int64
	for _, e := range obs.Events {
		if e.Kind == "vstore" {
			stores = append(stores, e.Args[0])
		}
	}
	if len(stores) != 3 || stores[0] != 0 || stores[2] != 2 {
		t.Errorf("volatile stores = %v, want [0 1 2]", stores)
	}
	if obs.Ret != 2 {
		t.Errorf("ret = %d, want 2", obs.Ret)
	}
}

func TestInterpPointers(t *testing.T) {
	obs := run(t, `
int b = 0;
int main(void) {
  int* v1 = &b;
  int** v2 = &v1;
  *v2 = v1;
  **v2 = 7;
  return b;
}`)
	if obs.Ret != 7 {
		t.Errorf("ret = %d, want 7", obs.Ret)
	}
}

func TestInterpShortCircuit(t *testing.T) {
	obs := run(t, `
int calls;
int side(void) {
  calls = calls + 1;
  return 1;
}
int main(void) {
  int a = 0;
  int r = a && side();
  int s = 1 || side();
  return r * 10 + s;
}`)
	if obs.Ret != 1 {
		t.Errorf("ret = %d, want 1", obs.Ret)
	}
	if obs.Globals["calls"][0] != 0 {
		t.Errorf("side() called %d times, want 0 (short-circuit)", obs.Globals["calls"][0])
	}
}

func TestInterpGotoLoop(t *testing.T) {
	obs := run(t, `
int a;
int main(void) {
  int n = 0;
f: if (n < 5) {
    n = n + 1;
    goto f;
  }
  return n;
}`)
	if obs.Ret != 5 {
		t.Errorf("ret = %d, want 5", obs.Ret)
	}
}

func TestInterpCallsAndRecursion(t *testing.T) {
	obs := run(t, `
int fact(int n) {
  if (n <= 1) {
    return 1;
  }
  return n * fact(n - 1);
}
int main(void) {
  return fact(6);
}`)
	if obs.Ret != 720 {
		t.Errorf("ret = %d, want 720", obs.Ret)
	}
}

func TestInterpDivisionByZeroDefined(t *testing.T) {
	obs := run(t, `
int main(void) {
  int a = 7;
  int z = 0;
  return a / z + a % z;
}`)
	if obs.Ret != 0 {
		t.Errorf("ret = %d, want 0 (defined division by zero)", obs.Ret)
	}
}

func TestInterpWidthTruncation(t *testing.T) {
	obs := run(t, `
int main(void) {
  char c = 200;
  short s = 70000;
  return c + s;
}`)
	// char 200 -> -56; short 70000 -> 4464; sum = 4408
	if obs.Ret != 4408 {
		t.Errorf("ret = %d, want 4408", obs.Ret)
	}
}

func TestInterpUnsignedCompare(t *testing.T) {
	obs := run(t, `
int main(void) {
  unsigned int u = 0;
  u = u - 1;
  if (u > 100) {
    return 1;
  }
  return 0;
}`)
	if obs.Ret != 1 {
		t.Errorf("unsigned wraparound compare: ret = %d, want 1", obs.Ret)
	}
}

func TestInterpStepLimit(t *testing.T) {
	prog := minic.MustParse(`
int main(void) {
  while (1) { }
  return 0;
}`)
	m, err := Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Interp(m, 1000); err != ErrStepLimit {
		t.Errorf("err = %v, want ErrStepLimit", err)
	}
}

func TestInterpLocalArrays(t *testing.T) {
	obs := run(t, `
int main(void) {
  int arr[4];
  int i;
  for (i = 0; i < 4; i = i + 1) {
    arr[i] = i * i;
  }
  return arr[3];
}`)
	if obs.Ret != 9 {
		t.Errorf("ret = %d, want 9", obs.Ret)
	}
}

func TestVerifyCatchesBadIR(t *testing.T) {
	m := lower(t, "int main(void) { return 3; }")
	f := m.Func("main")
	// Inject a mid-block terminator.
	bad := &Instr{Op: OpRet, Dst: -1, Args: []Value{ConstVal(0)}}
	f.Entry().Instrs = append([]*Instr{bad}, f.Entry().Instrs...)
	if err := Verify(m); err == nil {
		t.Error("verifier accepted mid-block terminator")
	}
}

func TestModuleCloneIndependent(t *testing.T) {
	m := lower(t, `
int g;
extern void opaque(int x);
int main(void) {
  int v = 3;
  g = v;
  opaque(v);
  return g;
}`)
	cp := m.Clone()
	if err := Verify(cp); err != nil {
		t.Fatalf("clone fails verify: %v", err)
	}
	obs1, err := Interp(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	obs2, err := Interp(cp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !obs1.Equal(obs2) {
		t.Error("clone behaves differently")
	}
	// Mutating the clone must not affect the original.
	cp.Func("main").Blocks = nil
	if len(m.Func("main").Blocks) == 0 {
		t.Error("clone shares blocks")
	}
}

func TestObservationEqual(t *testing.T) {
	a := &Observation{Ret: 1, Events: []Event{{Kind: "call", Name: "f", Args: []int64{1}}},
		Globals: map[string][]int64{"g": {1, 2}}}
	b := &Observation{Ret: 1, Events: []Event{{Kind: "call", Name: "f", Args: []int64{1}}},
		Globals: map[string][]int64{"g": {1, 2}}}
	if !a.Equal(b) {
		t.Error("equal observations reported unequal")
	}
	b.Events[0].Args[0] = 2
	if a.Equal(b) {
		t.Error("different call args reported equal")
	}
	b.Events[0].Args[0] = 1
	b.Globals["g"][1] = 3
	if a.Equal(b) {
		t.Error("different memory reported equal")
	}
	b.Globals["g"][1] = 2
	b.Globals["h"] = []int64{0}
	if a.Equal(b) || b.Equal(a) {
		t.Errorf("an extra global went unnoticed: a.Equal(b)=%v b.Equal(a)=%v", a.Equal(b), b.Equal(a))
	}
}

func TestDbgValPresenceAtO0(t *testing.T) {
	m := lower(t, `
int main(void) {
  int x = 1;
  int y = 2;
  return x + y;
}`)
	f := m.Func("main")
	count := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == OpDbgVal {
				if in.Args[0].Kind != SlotRef {
					t.Errorf("O0 dbgval should be slot-based, got %v", in.Args[0])
				}
				count++
			}
		}
	}
	if count != 2 {
		t.Errorf("dbgval count = %d, want 2", count)
	}
}
