package ir

import (
	"fmt"

	"repro/internal/minic"
)

// Interpreter executes IR modules directly. It exists for differential
// testing: the observable behaviour of a module (opaque-call arguments,
// volatile global accesses, final global memory, main's return value) must
// be identical before and after any optimization pipeline. The VM executing
// generated machine code must agree too.

// Layout constants shared with the code generator and VM (see minic).
const (
	GlobalBase = minic.GlobalBase
	StackBase  = minic.StackBase
	MemWords   = minic.MemWords
)

// Event is one externally observable action.
type Event struct {
	Kind string  // "call", "vstore", "vload"
	Name string  // callee or volatile global name
	Args []int64 // call arguments or the stored/loaded value
}

func (e Event) String() string { return fmt.Sprintf("%s %s %v", e.Kind, e.Name, e.Args) }

// Observation is the complete observable behaviour of one execution.
type Observation struct {
	Events  []Event
	Ret     int64
	Globals map[string][]int64
	Steps   int
}

// ErrStepLimit is returned when execution exceeds the step budget.
var ErrStepLimit = fmt.Errorf("ir: interpreter step limit exceeded")

// Interp runs the module's main function and collects its observable
// behaviour. maxSteps bounds execution (0 means a generous default).
func Interp(m *Module, maxSteps int) (*Observation, error) {
	if maxSteps == 0 {
		maxSteps = 2_000_000
	}
	ip := &interp{
		m:     m,
		mem:   make([]int64, MemWords),
		gbase: map[*Global]int64{},
		limit: maxSteps,
		sp:    StackBase,
		obs:   &Observation{Globals: map[string][]int64{}},
	}
	addr := int64(GlobalBase)
	for _, g := range m.Globals {
		end := addr + int64(g.Size)
		if g.Size < 0 || end > MemWords {
			return nil, fmt.Errorf("ir: global %s does not fit in memory", g.Name)
		}
		ip.gbase[g] = addr
		copy(ip.mem[addr:end], g.Init)
		addr = end
	}
	mainFn := m.Func("main")
	if mainFn == nil || mainFn.Opaque {
		return nil, fmt.Errorf("ir: no main function")
	}
	ret, err := ip.callFunc(mainFn, nil)
	if err != nil {
		return nil, err
	}
	ip.obs.Ret = ret
	ip.obs.Steps = ip.steps
	for _, g := range m.Globals {
		base := ip.gbase[g]
		ip.obs.Globals[g.Name] = append([]int64(nil), ip.mem[base:base+int64(g.Size)]...)
	}
	return ip.obs, nil
}

type interp struct {
	m     *Module
	mem   []int64
	gbase map[*Global]int64
	sp    int64
	steps int
	limit int
	obs   *Observation
}

type frame struct {
	fn      *Func
	base    int64 // slot area base address
	temps   []int64
	slotOff []int64
}

func (ip *interp) callFunc(f *Func, args []int64) (int64, error) {
	if f.Opaque {
		ip.obs.Events = append(ip.obs.Events, Event{Kind: "call", Name: f.Name, Args: args})
		return 0, nil
	}
	fr := &frame{fn: f, base: ip.sp, temps: make([]int64, f.NTemp)}
	// Lay out slots contiguously.
	off := int64(0)
	fr.slotOff = make([]int64, f.NSlot)
	for i, size := range f.Slots {
		fr.slotOff[i] = off
		off += int64(size)
	}
	if fr.base+off >= MemWords {
		return 0, fmt.Errorf("ir: stack overflow in %s", f.Name)
	}
	ip.sp = fr.base + off
	defer func() { ip.sp = fr.base }()
	// Zero the frame and bind parameters (params occupy their slots).
	for i := fr.base; i < fr.base+off; i++ {
		ip.mem[i] = 0
	}
	for i, p := range f.Params {
		if i < len(args) {
			v := args[i]
			if it, ok := p.Type.(*minic.IntType); ok {
				v = it.Truncate(v)
			}
			ip.mem[fr.base+fr.slotOff[p.Slot]] = v
		}
	}

	block := f.Entry()
	idx := 0
	for {
		ip.steps++
		if ip.steps > ip.limit {
			return 0, ErrStepLimit
		}
		if idx >= len(block.Instrs) {
			return 0, fmt.Errorf("ir: fell off block b%d in %s", block.ID, f.Name)
		}
		in := block.Instrs[idx]
		idx++
		switch in.Op {
		case OpDbgVal:
			// Debug intrinsics have no run-time effect.
		case OpCopy:
			v := ip.val(fr, in.Args[0])
			if in.Width != nil {
				v = in.Width.Truncate(v)
			}
			fr.temps[in.Dst] = v
		case OpUn:
			fr.temps[in.Dst] = EvalUn(in.UnOp, ip.val(fr, in.Args[0]), in.Width)
		case OpBin:
			fr.temps[in.Dst] = EvalBin(in.BinOp, ip.val(fr, in.Args[0]), ip.val(fr, in.Args[1]), in.Width)
		case OpLoadG:
			a := ip.gbase[in.G] + ip.val(fr, in.Args[0])
			if err := ip.checkAddr(a); err != nil {
				return 0, err
			}
			v := ip.mem[a]
			if in.G.Volatile {
				ip.obs.Events = append(ip.obs.Events, Event{Kind: "vload", Name: in.G.Name, Args: []int64{v}})
			}
			fr.temps[in.Dst] = v
		case OpStoreG:
			a := ip.gbase[in.G] + ip.val(fr, in.Args[0])
			if err := ip.checkAddr(a); err != nil {
				return 0, err
			}
			v := ip.val(fr, in.Args[1])
			if in.Width != nil {
				v = in.Width.Truncate(v)
			}
			ip.mem[a] = v
			if in.G.Volatile {
				ip.obs.Events = append(ip.obs.Events, Event{Kind: "vstore", Name: in.G.Name, Args: []int64{v}})
			}
		case OpLoadSlot:
			a := fr.base + fr.slotOff[in.Slot] + ip.val(fr, in.Args[0])
			if err := ip.checkAddr(a); err != nil {
				return 0, err
			}
			fr.temps[in.Dst] = ip.mem[a]
		case OpStoreSlot:
			a := fr.base + fr.slotOff[in.Slot] + ip.val(fr, in.Args[0])
			if err := ip.checkAddr(a); err != nil {
				return 0, err
			}
			v := ip.val(fr, in.Args[1])
			if in.Width != nil {
				v = in.Width.Truncate(v)
			}
			ip.mem[a] = v
		case OpAddrG:
			fr.temps[in.Dst] = ip.gbase[in.G] + ip.val(fr, in.Args[0])
		case OpAddrSlot:
			fr.temps[in.Dst] = fr.base + fr.slotOff[in.Slot] + ip.val(fr, in.Args[0])
		case OpLoadPtr:
			a := ip.val(fr, in.Args[0])
			if err := ip.checkAddr(a); err != nil {
				return 0, err
			}
			fr.temps[in.Dst] = ip.mem[a]
			ip.noteVolatileAddr(a, "vload", ip.mem[a])
		case OpStorePtr:
			a := ip.val(fr, in.Args[0])
			if err := ip.checkAddr(a); err != nil {
				return 0, err
			}
			v := ip.val(fr, in.Args[1])
			if in.Width != nil {
				v = in.Width.Truncate(v)
			}
			ip.mem[a] = v
			ip.noteVolatileAddr(a, "vstore", v)
		case OpCall:
			callee := ip.m.Func(in.Call)
			if callee == nil {
				return 0, fmt.Errorf("ir: call to unknown function %q", in.Call)
			}
			cargs := make([]int64, len(in.Args))
			for i, a := range in.Args {
				cargs[i] = ip.val(fr, a)
			}
			rv, err := ip.callFunc(callee, cargs)
			if err != nil {
				return 0, err
			}
			if in.Dst >= 0 {
				fr.temps[in.Dst] = rv
			}
		case OpBr:
			block = in.Tgts[0]
			idx = 0
		case OpCondBr:
			if ip.val(fr, in.Args[0]) != 0 {
				block = in.Tgts[0]
			} else {
				block = in.Tgts[1]
			}
			idx = 0
		case OpRet:
			if len(in.Args) > 0 {
				return ip.val(fr, in.Args[0]), nil
			}
			return 0, nil
		default:
			return 0, fmt.Errorf("ir: interp: unknown op %v", in.Op)
		}
	}
}

// noteVolatileAddr records a volatile event when a points into a volatile
// global's storage.
func (ip *interp) noteVolatileAddr(a int64, kind string, v int64) {
	for _, g := range ip.m.Globals {
		if !g.Volatile {
			continue
		}
		base := ip.gbase[g]
		if a >= base && a < base+int64(g.Size) {
			ip.obs.Events = append(ip.obs.Events, Event{Kind: kind, Name: g.Name, Args: []int64{v}})
			return
		}
	}
}

func (ip *interp) checkAddr(a int64) error {
	if a < 0 || a >= MemWords {
		return fmt.Errorf("ir: memory access out of range: %d", a)
	}
	return nil
}

func (ip *interp) val(fr *frame, v Value) int64 {
	switch v.Kind {
	case Const:
		return v.C
	case Temp:
		return fr.temps[v.Temp]
	}
	return 0
}

// Equal reports whether two observations are behaviourally identical.
func (o *Observation) Equal(other *Observation) bool {
	if o.Ret != other.Ret || len(o.Events) != len(other.Events) {
		return false
	}
	for i, e := range o.Events {
		oe := other.Events[i]
		if e.Kind != oe.Kind || e.Name != oe.Name || len(e.Args) != len(oe.Args) {
			return false
		}
		for j := range e.Args {
			if e.Args[j] != oe.Args[j] {
				return false
			}
		}
	}
	if len(o.Globals) != len(other.Globals) {
		return false
	}
	for name, vals := range o.Globals {
		ovals, ok := other.Globals[name]
		if !ok || len(vals) != len(ovals) {
			return false
		}
		for i := range vals {
			if vals[i] != ovals[i] {
				return false
			}
		}
	}
	return true
}
