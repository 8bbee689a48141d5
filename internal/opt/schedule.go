package opt

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"repro/internal/ir"
)

// This file makes the pass schedule a first-class, serializable value.
// A Schedule is an ordered list of registered pass names (plus one integer
// parameter for the budgeted passes), round-trips through a canonical
// string form, and executes via RunSchedule. Everything that previously
// needed to name, subset, or permute "the pipeline" — the engine's cache
// keys, triage's schedule delta debugging, corpus signatures — works on
// Schedule values instead of opaque []Pass slices.

// Entry is one slot of a Schedule: a registered pass name plus the
// integer parameter of the budgeted passes (inline's callee-size
// threshold, loopunroll's trip bound). Arg is 0 for unparameterized
// passes and omitted from the string form.
type Entry struct {
	Name string
	Arg  int
}

// String renders the entry in canonical form: "dce", "inline:40".
func (e Entry) String() string {
	if e.Arg == 0 {
		return e.Name
	}
	return e.Name + ":" + strconv.Itoa(e.Arg)
}

// Schedule is an ordered pass schedule. The zero value is the empty
// schedule (no optimization passes, as at -O0).
type Schedule struct {
	Entries []Entry
}

// Len returns the number of entries.
func (s Schedule) Len() int { return len(s.Entries) }

// String renders the schedule in canonical form: entries in order,
// comma-separated ("mem2reg,inline:40,dce"). The empty schedule renders
// as the empty string. ParseSchedule inverts it.
func (s Schedule) String() string {
	if len(s.Entries) == 0 {
		return ""
	}
	var b strings.Builder
	for i, e := range s.Entries {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(e.String())
	}
	return b.String()
}

// Equal reports whether two schedules have identical entries.
func (s Schedule) Equal(t Schedule) bool {
	if len(s.Entries) != len(t.Entries) {
		return false
	}
	for i, e := range s.Entries {
		if t.Entries[i] != e {
			return false
		}
	}
	return true
}

// Clone returns a deep copy; mutating the copy's Entries never aliases
// the original.
func (s Schedule) Clone() Schedule {
	if len(s.Entries) == 0 {
		return Schedule{}
	}
	return Schedule{Entries: append([]Entry(nil), s.Entries...)}
}

// Digest returns a 16-hex-digit FNV-1a hash of the canonical string
// form, for compact cache keys. Schedules with equal String() — and only
// those — share a digest.
func (s Schedule) Digest() string {
	h := fnv.New64a()
	h.Write([]byte(s.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// ParseSchedule parses the canonical string form produced by
// Schedule.String. Every named pass must be registered; budgeted passes
// accept an optional ":<int>" argument.
func ParseSchedule(s string) (Schedule, error) {
	if s == "" {
		return Schedule{}, nil
	}
	parts := strings.Split(s, ",")
	entries := make([]Entry, 0, len(parts))
	for _, part := range parts {
		name, argStr, hasArg := strings.Cut(part, ":")
		if name == "" {
			return Schedule{}, fmt.Errorf("opt: empty pass name in schedule %q", s)
		}
		if _, ok := passRegistry[name]; !ok {
			return Schedule{}, fmt.Errorf("opt: unknown pass %q in schedule", name)
		}
		e := Entry{Name: name}
		if hasArg {
			arg, err := strconv.Atoi(argStr)
			if err != nil {
				return Schedule{}, fmt.Errorf("opt: bad argument %q for pass %q: %v", argStr, name, err)
			}
			e.Arg = arg
		}
		entries = append(entries, e)
	}
	return Schedule{Entries: entries}, nil
}

// passRegistry maps every stable pass name to a constructor, so schedules
// round-trip through strings. The constructor receives the entry's Arg
// (0 when absent); unparameterized passes ignore it.
var passRegistry = map[string]func(arg int) Pass{
	"mem2reg":          func(int) Pass { return Mem2Reg{} },
	"ccp":              func(int) Pass { return CCP{} },
	"vrp":              func(int) Pass { return VRP{} },
	"instcombine":      func(int) Pass { return InstCombine{} },
	"copyprop":         func(int) Pass { return CopyProp{} },
	"dse":              func(int) Pass { return DSE{} },
	"dce":              func(int) Pass { return DCE{} },
	"simplifycfg":      func(int) Pass { return SimplifyCFG{} },
	"toplevel-reorder": func(int) Pass { return TopLevelReorder{} },
	"ipa-pure-const":   func(int) Pass { return IPAPureConst{} },
	"ipa-reference":    func(int) Pass { return IPAReference{} },
	"inline":           func(arg int) Pass { return Inline{MaxInstrs: arg} },
	"sroa":             func(int) Pass { return SROA{} },
	"ivsimplify":       func(int) Pass { return IVSimplify{} },
	"lsr":              func(int) Pass { return LSR{} },
	"loopunroll":       func(arg int) Pass { return LoopUnroll{MaxTrip: arg} },
	"loopdelete":       func(int) Pass { return LoopDelete{} },
	"looprotate":       func(int) Pass { return LoopRotate{} },
	"sched":            func(int) Pass { return Sched{} },
}

// RegisteredPasses returns the sorted names of every registered pass.
func RegisteredPasses() []string {
	names := make([]string, 0, len(passRegistry))
	for n := range passRegistry {
		names = append(names, n)
	}
	// Insertion sort: the list is tiny and this avoids an import.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// EntryOf returns the schedule entry describing a pass value, extracting
// the budget argument of the parameterized passes.
func EntryOf(p Pass) Entry {
	e := Entry{Name: p.Name()}
	switch t := p.(type) {
	case Inline:
		e.Arg = t.MaxInstrs
	case LoopUnroll:
		e.Arg = t.MaxTrip
	}
	return e
}

// ScheduleOf captures a pass list as a Schedule.
func ScheduleOf(passes []Pass) Schedule {
	entries := make([]Entry, len(passes))
	for i, p := range passes {
		entries[i] = EntryOf(p)
	}
	return Schedule{Entries: entries}
}

// Passes materializes the schedule into runnable pass values. It fails
// only when an entry names an unregistered pass.
func (s Schedule) Passes() ([]Pass, error) {
	passes := make([]Pass, len(s.Entries))
	for i, e := range s.Entries {
		mk, ok := passRegistry[e.Name]
		if !ok {
			return nil, fmt.Errorf("opt: unknown pass %q in schedule", e.Name)
		}
		passes[i] = mk(e.Arg)
	}
	return passes, nil
}

// RunSchedule materializes and executes a schedule on the module under
// the given options; Disabled and BisectLimit apply on top of the
// schedule exactly as they do for RunPipeline. The module is modified in
// place. It fails only when the schedule names an unregistered pass.
func RunSchedule(m *ir.Module, s Schedule, o Options) (*Result, error) {
	passes, err := s.Passes()
	if err != nil {
		return nil, err
	}
	return RunPipeline(m, passes, o), nil
}

// RemoveRegisteredPassForTest unregisters a pass and returns a function
// restoring it, so tests can pin the broken-registry failure paths (the
// canonical schedules must always materialize; compiler.Pipeline panics
// otherwise). Never use outside tests — and never in parallel ones: the
// registry is a process-wide table.
func RemoveRegisteredPassForTest(name string) (restore func()) {
	mk, ok := passRegistry[name]
	if !ok {
		return func() {}
	}
	delete(passRegistry, name)
	return func() { passRegistry[name] = mk }
}
