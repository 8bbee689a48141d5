// Package vm executes compiled programs. It exposes the run-time state a
// debugger needs — current pc, per-frame registers, frame slots, and global
// memory — and a breakpoint/continue execution interface.
//
// The VM's observable behaviour (opaque-call events, volatile accesses,
// final memory, exit value) matches the IR interpreter's, which the test
// suite uses to validate the code generator.
package vm

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/asm"
	"repro/internal/ir"
)

// Event mirrors ir.Event for the machine-level execution.
type Event = ir.Event

// Frame is one activation record.
type Frame struct {
	Fn      *asm.Func
	Regs    []int64 // virtual registers (debug-visible)
	SlotOff []int64 // base address of each slot
	Base    int64
	RetPC   int
	RetReg  int // caller register receiving the return value (-1 none)
}

// Machine is a running VM instance.
type Machine struct {
	Prog    *asm.Program
	Mem     []int64
	PC      int
	Frames  []*Frame
	Events  []Event
	Halted  bool
	Exit    int64
	Steps   int
	MaxStep int

	gbase map[string]int64
	sp    int64
	bps   map[int]bool

	// lowHi is one past the highest word written below ir.StackBase and
	// stackHi one past the highest word written at or above it: Release
	// clears only Mem[:lowHi] and Mem[ir.StackBase:stackHi].
	lowHi, stackHi int64
}

// memPool holds zeroed machine memories for reuse across runs. A run
// touches a few hundred words of its 655 KB memory, so Release clears
// only the words the run wrote instead of every machine allocating and
// zeroing a fresh one.
var memPool = sync.Pool{New: func() any { return make([]int64, ir.MemWords) }}

// ErrStepLimit is returned when execution exceeds the step budget.
var ErrStepLimit = fmt.Errorf("vm: step limit exceeded")

// ErrStackOverflow is returned when a call's frame would not fit in the
// machine's memory.
var ErrStackOverflow = errors.New("vm: stack overflow")

// DefaultMaxStep is the step budget of a fresh machine. Callers may set
// Machine.MaxStep before running to raise or lower it.
const DefaultMaxStep = 4_000_000

// New loads prog and prepares a machine stopped before main's first
// instruction. The machine's memory comes from a pool; call Release once
// the machine's state is no longer read to return it, or let the garbage
// collector take it.
func New(prog *asm.Program) (*Machine, error) {
	mainFn := prog.Func("main")
	if mainFn == nil {
		return nil, fmt.Errorf("vm: no main")
	}
	m := &Machine{
		Prog:    prog,
		Mem:     memPool.Get().([]int64),
		gbase:   map[string]int64{},
		sp:      ir.StackBase,
		bps:     map[int]bool{},
		MaxStep: DefaultMaxStep,
		stackHi: ir.StackBase,
	}
	addr := int64(ir.GlobalBase)
	for _, g := range prog.Globals {
		end := addr + int64(g.Size)
		if g.Size < 0 || end > ir.MemWords {
			m.Release()
			return nil, fmt.Errorf("vm: global %s does not fit in memory", g.Name)
		}
		m.gbase[g.Name] = addr
		copy(m.Mem[addr:end], g.Init)
		addr = end
	}
	m.lowHi = addr
	if err := m.pushFrame(mainFn, nil, -1, -1); err != nil {
		m.Release()
		return nil, err
	}
	m.PC = mainFn.Entry
	return m, nil
}

// Release clears the words the run wrote and returns the machine's
// memory to the pool. The machine must not be used afterwards: Mem is
// nil, so a late read panics instead of seeing another run's memory.
// Release is idempotent.
func (m *Machine) Release() {
	if m.Mem == nil {
		return
	}
	clear(m.Mem[:m.lowHi])
	clear(m.Mem[ir.StackBase:m.stackHi])
	memPool.Put(m.Mem)
	m.Mem = nil
}

// store writes v at a, raising the high-water mark that covers a.
func (m *Machine) store(a, v int64) {
	m.Mem[a] = v
	if a < ir.StackBase {
		m.lowHi = max(m.lowHi, a+1)
	} else {
		m.stackHi = max(m.stackHi, a+1)
	}
}

// pushFrame activates f with the given arguments. Like the IR
// interpreter, it fails with ErrStackOverflow when the frame would reach
// the end of memory.
func (m *Machine) pushFrame(f *asm.Func, args []int64, retPC, retReg int) error {
	fr := &Frame{Fn: f, Regs: make([]int64, f.NTemp), Base: m.sp, RetPC: retPC, RetReg: retReg}
	off := int64(0)
	fr.SlotOff = make([]int64, len(f.Slots))
	for i, size := range f.Slots {
		fr.SlotOff[i] = fr.Base + off
		off += int64(size)
	}
	if off < 0 || fr.Base+off >= ir.MemWords {
		return fmt.Errorf("%w in %s", ErrStackOverflow, f.Name)
	}
	clear(m.Mem[fr.Base : fr.Base+off])
	m.sp = fr.Base + off
	m.stackHi = max(m.stackHi, m.sp)
	// Arguments are materialised in the function's parameter slots, which
	// are by construction the first slots of the frame (one per parameter).
	for i, a := range args {
		if i < len(fr.SlotOff) {
			m.Mem[fr.SlotOff[i]] = a
		}
	}
	m.Frames = append(m.Frames, fr)
	return nil
}

// Frame returns the current activation record, or nil when halted.
func (m *Machine) Frame() *Frame {
	if len(m.Frames) == 0 {
		return nil
	}
	return m.Frames[len(m.Frames)-1]
}

// SetBreak arms a one-time breakpoint at pc.
func (m *Machine) SetBreak(pc int) { m.bps[pc] = true }

// ClearBreaks removes all breakpoints.
func (m *Machine) ClearBreaks() { m.bps = map[int]bool{} }

// ReadReg returns the value of a debug-visible register in the current
// frame.
func (m *Machine) ReadReg(r int) (int64, bool) {
	fr := m.Frame()
	if fr == nil || r < 0 || r >= len(fr.Regs) {
		return 0, false
	}
	return fr.Regs[r], true
}

// ReadSlot returns the value stored in frame slot s (offset 0).
func (m *Machine) ReadSlot(s int) (int64, bool) {
	fr := m.Frame()
	if fr == nil || s < 0 || s >= len(fr.SlotOff) {
		return 0, false
	}
	return m.Mem[fr.SlotOff[s]], true
}

// Continue resumes execution until the next armed breakpoint fires (it is
// then disarmed, one-shot style), or the program halts. It reports whether
// a breakpoint was hit.
func (m *Machine) Continue() (bool, error) {
	for !m.Halted {
		if m.bps[m.PC] {
			delete(m.bps, m.PC)
			return true, nil
		}
		if err := m.Step(); err != nil {
			return false, err
		}
	}
	return false, nil
}

// ForEachStop is the stop-event hook of a recording session: it drives
// execution breakpoint to breakpoint, invoking onStop at every armed
// breakpoint hit (with the machine stopped on the breakpoint pc), then
// stepping over the stop and resuming, until the program halts. It returns
// the first error from Continue, Step or onStop. Continue and Step
// themselves are unchanged; this only packages their loop so sessions
// observe stops without reimplementing it.
func (m *Machine) ForEachStop(onStop func() error) error {
	for {
		hit, err := m.Continue()
		if err != nil {
			return err
		}
		if !hit {
			return nil
		}
		if err := onStop(); err != nil {
			return err
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
}

// Run executes to completion, ignoring breakpoints.
func (m *Machine) Run() error {
	m.ClearBreaks()
	for !m.Halted {
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) val(o asm.Operand) int64 {
	if o.IsConst {
		return o.C
	}
	if o.Temp < 0 {
		return 0
	}
	return m.Frame().Regs[o.Temp]
}

func (m *Machine) checkAddr(a int64) error {
	if a < 0 || a >= ir.MemWords {
		return fmt.Errorf("vm: address out of range: %d", a)
	}
	return nil
}

func (m *Machine) noteVolatile(a int64, kind string, v int64) {
	for _, g := range m.Prog.Globals {
		if !g.Volatile {
			continue
		}
		base := m.gbase[g.Name]
		if a >= base && a < base+int64(g.Size) {
			m.Events = append(m.Events, Event{Kind: kind, Name: g.Name, Args: []int64{v}})
			return
		}
	}
}

// Step executes one instruction.
func (m *Machine) Step() error {
	if m.Halted {
		return nil
	}
	m.Steps++
	if m.Steps > m.MaxStep {
		return ErrStepLimit
	}
	if m.PC < 0 || m.PC >= len(m.Prog.Instrs) {
		return fmt.Errorf("vm: pc out of range: %d", m.PC)
	}
	in := m.Prog.Instrs[m.PC]
	fr := m.Frame()
	next := m.PC + 1
	switch in.Op {
	case asm.OpNop:
	case asm.OpMov:
		v := m.val(in.Src)
		if in.Width != nil {
			v = in.Width.Truncate(v)
		}
		fr.Regs[in.Rd] = v
	case asm.OpUn:
		fr.Regs[in.Rd] = ir.EvalUn(in.UnOp, m.val(in.Src), in.Width)
	case asm.OpBin:
		fr.Regs[in.Rd] = ir.EvalBin(in.BinOp, m.val(in.Src), m.val(in.Src2), in.Width)
	case asm.OpLoadG:
		a := m.gbase[in.Global] + m.val(in.Src)
		if err := m.checkAddr(a); err != nil {
			return err
		}
		v := m.Mem[a]
		if g := m.findGlobal(in.Global); g != nil && g.Volatile {
			m.Events = append(m.Events, Event{Kind: "vload", Name: g.Name, Args: []int64{v}})
		}
		fr.Regs[in.Rd] = v
	case asm.OpStoreG:
		a := m.gbase[in.Global] + m.val(in.Src)
		if err := m.checkAddr(a); err != nil {
			return err
		}
		v := m.val(in.Src2)
		if in.Width != nil {
			v = in.Width.Truncate(v)
		}
		m.store(a, v)
		if g := m.findGlobal(in.Global); g != nil && g.Volatile {
			m.Events = append(m.Events, Event{Kind: "vstore", Name: g.Name, Args: []int64{v}})
		}
	case asm.OpLoadSlot:
		a := fr.SlotOff[in.Slot] + m.val(in.Src)
		if err := m.checkAddr(a); err != nil {
			return err
		}
		fr.Regs[in.Rd] = m.Mem[a]
	case asm.OpStoreSlot:
		a := fr.SlotOff[in.Slot] + m.val(in.Src)
		if err := m.checkAddr(a); err != nil {
			return err
		}
		v := m.val(in.Src2)
		if in.Width != nil {
			v = in.Width.Truncate(v)
		}
		m.store(a, v)
	case asm.OpAddrG:
		fr.Regs[in.Rd] = m.gbase[in.Global] + m.val(in.Src)
	case asm.OpAddrSlot:
		fr.Regs[in.Rd] = fr.SlotOff[in.Slot] + m.val(in.Src)
	case asm.OpLoadPtr:
		a := m.val(in.Src)
		if err := m.checkAddr(a); err != nil {
			return err
		}
		fr.Regs[in.Rd] = m.Mem[a]
		m.noteVolatile(a, "vload", m.Mem[a])
	case asm.OpStorePtr:
		a := m.val(in.Src)
		if err := m.checkAddr(a); err != nil {
			return err
		}
		v := m.val(in.Src2)
		if in.Width != nil {
			v = in.Width.Truncate(v)
		}
		m.store(a, v)
		m.noteVolatile(a, "vstore", v)
	case asm.OpCall:
		args := make([]int64, len(in.Args))
		for i, a := range in.Args {
			args[i] = m.val(a)
		}
		callee := m.Prog.Func(in.Callee)
		if callee == nil {
			// Opaque function: record the observable event.
			m.Events = append(m.Events, Event{Kind: "call", Name: in.Callee, Args: args})
			if in.Rd >= 0 {
				fr.Regs[in.Rd] = 0
			}
		} else {
			if err := m.pushFrame(callee, args, next, in.Rd); err != nil {
				return err
			}
			next = callee.Entry
		}
	case asm.OpJmp:
		next = in.Target
	case asm.OpJz:
		if m.val(in.Src) == 0 {
			next = in.Target
		}
	case asm.OpRet:
		var rv int64
		if in.Src.IsConst || in.Src.Temp >= 0 {
			rv = m.val(in.Src)
		}
		m.sp = fr.Base
		m.Frames = m.Frames[:len(m.Frames)-1]
		if len(m.Frames) == 0 {
			m.Halted = true
			m.Exit = rv
			m.PC = -1
			return nil
		}
		caller := m.Frame()
		if fr.RetReg >= 0 {
			caller.Regs[fr.RetReg] = rv
		}
		next = fr.RetPC
	default:
		return fmt.Errorf("vm: unknown op %v", in.Op)
	}
	m.PC = next
	return nil
}

func (m *Machine) findGlobal(name string) *asm.Global {
	for _, g := range m.Prog.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// Observe runs the program to completion and returns its observable
// behaviour in the interpreter's format.
func Observe(prog *asm.Program) (*ir.Observation, error) {
	m, err := New(prog)
	if err != nil {
		return nil, err
	}
	defer m.Release()
	if err := m.Run(); err != nil {
		return nil, err
	}
	return m.observation(), nil
}

// observation copies the machine's observable behaviour out of it.
func (m *Machine) observation() *ir.Observation {
	obs := &ir.Observation{Events: m.Events, Ret: m.Exit,
		Globals: map[string][]int64{}, Steps: m.Steps}
	for _, g := range m.Prog.Globals {
		base := m.gbase[g.Name]
		obs.Globals[g.Name] = append([]int64(nil), m.Mem[base:base+int64(g.Size)]...)
	}
	return obs
}
