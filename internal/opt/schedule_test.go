package opt

import (
	"reflect"
	"strings"
	"testing"
)

func TestScheduleStringParseRoundTrip(t *testing.T) {
	s := ScheduleOf([]Pass{
		Mem2Reg{},
		Inline{MaxInstrs: 40},
		CCP{},
		LoopUnroll{MaxTrip: 4},
		TopLevelReorder{},
	})
	want := "mem2reg,inline:40,ccp,loopunroll:4,toplevel-reorder"
	if got := s.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	back, err := ParseSchedule(s.String())
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	if !back.Equal(s) {
		t.Fatalf("round trip mismatch: %q vs %q", back, s)
	}
	if back.Digest() != s.Digest() {
		t.Fatalf("digest mismatch after round trip")
	}

	empty, err := ParseSchedule("")
	if err != nil || empty.Len() != 0 {
		t.Fatalf("ParseSchedule(\"\") = %v, %v; want empty schedule", empty, err)
	}
	if empty.String() != "" {
		t.Fatalf("empty schedule String() = %q", empty.String())
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, bad := range []string{"nosuchpass", "mem2reg,,dce", "inline:forty", "mem2reg,bogus:3"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) succeeded, want error", bad)
		}
	}
}

// TestRegistryCoversAllPasses pins that every pass the compiler can
// schedule round-trips through the registry: materializing the entry
// re-creates a pass with the same name and (for budgeted passes) the
// same parameters.
func TestRegistryCoversAllPasses(t *testing.T) {
	for _, p := range allPasses() {
		e := EntryOf(p)
		got, err := Schedule{Entries: []Entry{e}}.Passes()
		if err != nil {
			t.Fatalf("pass %q not registered: %v", p.Name(), err)
		}
		if got[0].Name() != p.Name() {
			t.Fatalf("registry rebuilt %q as %q", p.Name(), got[0].Name())
		}
		if !reflect.DeepEqual(got[0], p) {
			t.Fatalf("registry rebuilt %q as %#v, want %#v", p.Name(), got[0], p)
		}
	}
	if _, err := (Schedule{Entries: []Entry{{Name: "bogus"}}}).Passes(); err == nil {
		t.Fatalf("unregistered pass materialized without error")
	}
}

func TestRegisteredPassesSorted(t *testing.T) {
	names := RegisteredPasses()
	if len(names) != len(passRegistry) {
		t.Fatalf("RegisteredPasses returned %d names, registry has %d", len(names), len(passRegistry))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not strictly sorted: %q >= %q", names[i-1], names[i])
		}
	}
}

// TestRunScheduleMatchesRunPipeline pins that RunSchedule is exactly
// RunPipeline over the materialized schedule: same IR, same Result.
func TestRunScheduleMatchesRunPipeline(t *testing.T) {
	src := `
int main(void) {
  int i = 0;
  int acc = 7;
  while (i < 8) {
    acc = acc + i;
    i = i + 1;
  }
  return acc;
}
`
	passes := allPasses()
	mPipe := lowerSrc(t, src)
	mSched := lowerSrc(t, src)

	rPipe := RunPipeline(mPipe, passes, Options{BisectLimit: -1})
	rSched, err := RunSchedule(mSched, ScheduleOf(passes), Options{BisectLimit: -1})
	if err != nil {
		t.Fatalf("RunSchedule: %v", err)
	}
	if rPipe.Executions != rSched.Executions {
		t.Fatalf("executions differ: pipeline %d, schedule %d", rPipe.Executions, rSched.Executions)
	}
	if !reflect.DeepEqual(rPipe.Applied, rSched.Applied) {
		t.Fatalf("applied lists differ:\npipeline: %v\nschedule: %v", rPipe.Applied, rSched.Applied)
	}
	if mPipe.String() != mSched.String() {
		t.Fatalf("modules differ after identical schedules")
	}

	if _, err := RunSchedule(lowerSrc(t, src), Schedule{Entries: []Entry{{Name: "bogus"}}}, Options{BisectLimit: -1}); err == nil {
		t.Fatalf("RunSchedule accepted an unregistered pass")
	}
}

// TestAppliedEntryFormat pins Result.Applied's canonical format, which
// schedule digests and triage hash: module passes record the bare pass
// name, function passes record "name(fn)" per function, skipping opaque
// functions.
func TestAppliedEntryFormat(t *testing.T) {
	src := `
int helper(int x) { return x + 1; }
int main(void) {
  int v = helper(4);
  return v;
}
`
	m := lowerSrc(t, src)
	res := RunPipeline(m, []Pass{DCE{}, TopLevelReorder{}}, Options{BisectLimit: -1})
	want := []string{"dce(helper)", "dce(main)", "toplevel-reorder"}
	if !reflect.DeepEqual(res.Applied, want) {
		t.Fatalf("Applied = %v, want %v", res.Applied, want)
	}
	if res.Executions != len(want) {
		t.Fatalf("Executions = %d, want %d", res.Executions, len(want))
	}
}

// TestAppliedPreallocated pins the hot-path preallocation: a full run's
// Applied slice is sized exactly by CountExecutions up front.
func TestAppliedPreallocated(t *testing.T) {
	src := `
int main(void) {
  int a = 3;
  return a;
}
`
	m := lowerSrc(t, src)
	passes := allPasses()
	n := CountExecutions(m, passes, nil)
	res := RunPipeline(m, passes, Options{BisectLimit: -1})
	if len(res.Applied) != n {
		t.Fatalf("full run applied %d executions, CountExecutions predicted %d", len(res.Applied), n)
	}
	if cap(res.Applied) != n {
		t.Fatalf("Applied capacity %d, want exactly %d (preallocated)", cap(res.Applied), n)
	}
}

func TestScheduleDigestDistinguishesArgs(t *testing.T) {
	a := Schedule{Entries: []Entry{{Name: "inline", Arg: 16}}}
	b := Schedule{Entries: []Entry{{Name: "inline", Arg: 40}}}
	if a.Digest() == b.Digest() {
		t.Fatalf("digests collide for different budgets")
	}
	if a.Equal(b) {
		t.Fatalf("Equal conflates different budgets")
	}
	if !strings.Contains(a.String(), ":16") {
		t.Fatalf("budget missing from string form: %q", a.String())
	}
	c := a.Clone()
	c.Entries[0].Arg = 99
	if a.Entries[0].Arg != 16 {
		t.Fatalf("Clone aliases the original entries")
	}
}

// TestParseScheduleErrorPaths pins each distinct error with its message,
// so callers can tell an unknown pass from a malformed entry.
func TestParseScheduleErrorPaths(t *testing.T) {
	cases := []struct {
		in, wantSub string
	}{
		{"nosuchpass", `unknown pass "nosuchpass"`},
		{"mem2reg,bogus:3", `unknown pass "bogus"`},
		{"mem2reg,,dce", "empty pass name"},
		{":4", "empty pass name"},
		{"inline:forty", `bad argument "forty" for pass "inline"`},
		{"dce:", `bad argument "" for pass "dce"`},
	}
	for _, c := range cases {
		_, err := ParseSchedule(c.in)
		if err == nil {
			t.Errorf("ParseSchedule(%q) succeeded, want error containing %q", c.in, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseSchedule(%q) error %q, want it to contain %q", c.in, err.Error(), c.wantSub)
		}
	}
}

// TestBisectLimitZeroRawLayer pins the documented asymmetry the compiler
// helper normalizes away: at the raw opt layer an explicit limit of 0
// means "stop before the first pass" — zero executions, empty Applied —
// for RunPipeline and RunSchedule alike.
func TestBisectLimitZeroRawLayer(t *testing.T) {
	// Two functions and a loop, so the schedule mixes module- and
	// function-pass executions.
	const src = `
int helper(int x) { return x + 2; }
int main(void) {
  int i = 0;
  int acc = 7;
  while (i < 8) {
    acc = acc + helper(i);
    i = i + 1;
  }
  return acc;
}
`
	for _, run := range []struct {
		name string
		run  func(t *testing.T) *Result
	}{
		{"RunPipeline", func(t *testing.T) *Result {
			return RunPipeline(lowerSrc(t, src), allPasses(), Options{BisectLimit: 0})
		}},
		{"RunSchedule", func(t *testing.T) *Result {
			res, err := RunSchedule(lowerSrc(t, src), ScheduleOf(allPasses()), Options{BisectLimit: 0})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
	} {
		res := run.run(t)
		if res.Executions != 0 || len(res.Applied) != 0 {
			t.Errorf("%s with limit 0 ran %d executions (%v), want none", run.name, res.Executions, res.Applied)
		}
	}
}
