// Package debugger implements source-level debuggers over the VM and the
// DWARF-like debug information: a gdb-like and an lldb-like engine sharing
// the scope-resolution core but differing in the catalogued quirks the
// paper exposed (empty location ranges, abstract-origin-only locations, and
// concrete/abstract structural mismatches for inlined subroutines).
//
// Sessions are single-pass: a Recorder executes the VM once per binary and
// fans every first-hit stop out to all registered engines, inspecting
// through a StopPlan precompiled at session setup, so per-stop work is
// register/memory reads rather than DWARF walks.
package debugger

import (
	"fmt"
	"sort"

	"repro/internal/bugs"
	"repro/internal/dwarf"
	"repro/internal/object"
	"repro/internal/vm"
)

// VarState is the presentation state of a variable at a stop.
type VarState int

// Variable presentation states, in increasing quality.
const (
	// NotVisible: the variable does not appear in the frame at all.
	NotVisible VarState = iota
	// OptimizedOut: listed, but no value can be shown.
	OptimizedOut
	// Available: listed with its current value.
	Available
)

func (s VarState) String() string {
	return [...]string{"not-visible", "optimized-out", "available"}[s]
}

// Variable is one frame variable at a stop.
type Variable struct {
	Name  string
	State VarState
	Value int64
}

// Stop describes the program state the debugger presents at a breakpoint.
type Stop struct {
	PC   uint32
	Line int
	// Frame is the innermost function name (an inlined callee when the pc
	// falls inside an inlined subroutine).
	Frame string
	Vars  []Variable

	// byName indexes Vars by name on variable-heavy stops (see
	// varIndexMin); Var falls back to the linear scan when the index is
	// absent or stale.
	byName map[string]int
}

// varIndexMin is the Vars count at which a recorded stop gets a
// map-backed name index; below it the linear scan wins.
const varIndexMin = 8

// index builds the name lookup map for variable-heavy stops. Iterating
// backwards makes the first occurrence of a duplicated name win, matching
// the linear scan.
func (s *Stop) index() {
	if len(s.Vars) < varIndexMin {
		return
	}
	s.byName = make(map[string]int, len(s.Vars))
	for i := len(s.Vars) - 1; i >= 0; i-- {
		s.byName[s.Vars[i].Name] = i
	}
}

// Var returns the named variable's presentation, defaulting to NotVisible.
func (s *Stop) Var(name string) Variable {
	if i, ok := s.byName[name]; ok && i < len(s.Vars) && s.Vars[i].Name == name {
		return s.Vars[i]
	}
	for _, v := range s.Vars {
		if v.Name == name {
			return v
		}
	}
	return Variable{Name: name, State: NotVisible}
}

// Debugger inspects stopped machines through debug information.
type Debugger interface {
	// Name identifies the engine ("gdb" or "lldb").
	Name() string
	// Inspect builds the stop presentation for the machine's current pc.
	// The Stop must not refer to the machine: a Recorder releases the
	// machine's memory when its run ends.
	Inspect(exe *object.Executable, m *vm.Machine) (*Stop, error)
}

// Inspector is a Debugger that can inspect a stop through a precompiled
// StopPlan entry instead of walking DWARF. Both built-in engines implement
// it; the Recorder takes the fast path whenever it is available and falls
// back to per-stop Inspect for foreign Debugger implementations.
type Inspector interface {
	Debugger
	// InspectAt builds the stop presentation from a precompiled recipe,
	// performing only register/memory reads against the machine.
	InspectAt(ps *PlannedStop, m *vm.Machine) *Stop
}

// engine is the shared implementation; quirks are toggled per debugger.
type engine struct {
	name string
	// defects holds the debugger-side defect mechanisms that are active.
	defects map[string]bool
}

// NewGDB returns the gdb-like debugger with the given active defects
// (bugs.GDBEmptyRange, bugs.GDBConcreteMismatch).
func NewGDB(defects map[string]bool) Debugger {
	return &engine{name: "gdb", defects: defects}
}

// NewLLDB returns the lldb-like debugger with the given active defects
// (bugs.LLDBAbstractOnly).
func NewLLDB(defects map[string]bool) Debugger {
	return &engine{name: "lldb", defects: defects}
}

func (e *engine) Name() string { return e.name }

func (e *engine) defect(id string) bool { return e.defects[id] }

// Inspect implements Debugger. It compiles a one-off plan for the current
// pc; session code should plan once per executable (PlanStops or a
// Recorder) so per-stop inspection skips the DWARF walk and the debug-info
// fetch entirely.
func (e *engine) Inspect(exe *object.Executable, m *vm.Machine) (*Stop, error) {
	info, err := exe.DebugInfo()
	if err != nil {
		return nil, err
	}
	return e.InspectAt(planStop(info, uint32(m.PC)), m), nil
}

// InspectAt implements Inspector: the engine's quirks are applied as flag
// checks over the precompiled recipe, and every variable resolves by a
// direct register/memory read.
func (e *engine) InspectAt(ps *PlannedStop, m *vm.Machine) *Stop {
	stop := &Stop{PC: ps.PC, Line: ps.Line, Frame: ps.Frame}
	for i := range ps.Vars {
		pv := &ps.Vars[i]
		if pv.BlockMismatch && e.defect(bugs.GDBConcreteMismatch) {
			// gdb 29060: the concrete instance nests the variable in a
			// lexical block the abstract instance lacks; the mismatch makes
			// gdb drop the variable.
			continue
		}
		v := Variable{Name: pv.Name}
		v.State, v.Value = e.resolve(pv, m)
		stop.Vars = append(stop.Vars, v)
	}
	sort.Slice(stop.Vars, func(i, j int) bool { return stop.Vars[i].Name < stop.Vars[j].Name })
	stop.index()
	return stop
}

// resolve evaluates a planned variable against machine state.
func (e *engine) resolve(pv *PlannedVar, m *vm.Machine) (VarState, int64) {
	if pv.Const != nil {
		return Available, *pv.Const
	}
	if pv.EmptyDerail && e.defect(bugs.GDBEmptyRange) {
		// gdb 28987: an empty range derails the location-list scan.
		return OptimizedOut, 0
	}
	if pv.HasLoc {
		switch pv.LocKind {
		case dwarf.LocConst:
			return Available, pv.LocValue
		case dwarf.LocReg:
			if v, ok := m.ReadReg(int(pv.LocValue)); ok {
				return Available, v
			}
			return OptimizedOut, 0
		case dwarf.LocSlot:
			if v, ok := m.ReadSlot(int(pv.LocValue)); ok {
				return Available, v
			}
			return OptimizedOut, 0
		}
	}
	// No covering plain location: the abstract origin's constant value is
	// legitimate DWARF that lldb's engine cannot use.
	if pv.AbstractConst != nil && !e.defect(bugs.LLDBAbstractOnly) {
		return Available, *pv.AbstractConst
	}
	return OptimizedOut, 0
}

// String renders a stop for logs and the example programs.
func (s *Stop) String() string {
	out := fmt.Sprintf("stop at line %d in %s (pc %d):", s.Line, s.Frame, s.PC)
	for _, v := range s.Vars {
		if v.State == Available {
			out += fmt.Sprintf(" %s=%d", v.Name, v.Value)
		} else {
			out += fmt.Sprintf(" %s=<%s>", v.Name, v.State)
		}
	}
	return out
}
