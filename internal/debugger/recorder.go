package debugger

// The Recorder is the session layer of the checking pipeline: one VM
// execution per binary, fanned out to N registered debugger engines. The
// paper's §4.2 cross-validation runs the same binary under both engines;
// recording both views from a single pass halves the VM executions, and
// the precompiled StopPlan (built here, at session setup) turns each
// engine's per-stop work into register/memory reads.

import (
	"fmt"
	"maps"

	"repro/internal/object"
	"repro/internal/vm"
)

// MultiTrace is one single-pass recording seen through every registered
// engine: Views[i] is Engines[i]'s Trace of the shared execution. Views
// share no mutable state — stop maps, steppable sets and variable slices
// are engine-private — so a consumer may mutate one view (or one engine's
// defect set) without leaking into another.
type MultiTrace struct {
	// Engines holds the engine names in registration order.
	Engines []string
	// Views holds the per-engine traces, parallel to Engines.
	Views []*Trace
}

// View returns the named engine's trace, or nil when it was not
// registered. With duplicate names the first registration wins.
func (mt *MultiTrace) View(name string) *Trace {
	for i, n := range mt.Engines {
		if n == name {
			return mt.Views[i]
		}
	}
	return nil
}

// Recorder is one single-pass debugging session over an executable. The
// stop plan is precompiled at construction (debug information is decoded
// once, not per stop); Run executes the VM once and presents each
// first-hit stop to every registered engine.
type Recorder struct {
	exe  *object.Executable
	plan *StopPlan
	dbgs []Debugger
	opts RecordOpts
}

// NewRecorder prepares a session over exe for the given engines, compiling
// the stop plan up front. At least one engine is required.
func NewRecorder(exe *object.Executable, o RecordOpts, dbgs ...Debugger) (*Recorder, error) {
	if len(dbgs) == 0 {
		return nil, fmt.Errorf("debugger: recorder needs at least one engine")
	}
	plan, err := PlanStops(exe)
	if err != nil {
		return nil, err
	}
	return &Recorder{exe: exe, plan: plan, dbgs: dbgs, opts: o}, nil
}

// Plan exposes the session's precompiled stop plan.
func (r *Recorder) Plan() *StopPlan { return r.plan }

// Run executes the VM once with one-shot breakpoints armed on every
// line-table address and records the first stop per source line — the
// paper's checking criterion (§4.2, footnote 3) — into one view per
// registered engine. Whether a line is hit is engine-independent, so all
// views stop on exactly the same lines; only the presented frames differ.
func (r *Recorder) Run() (*MultiTrace, error) {
	mt := &MultiTrace{Engines: make([]string, len(r.dbgs)), Views: make([]*Trace, len(r.dbgs))}
	for i, d := range r.dbgs {
		mt.Engines[i] = d.Name()
		mt.Views[i] = &Trace{Stops: make(map[int]*Stop, len(r.plan.steppable)),
			Steppable: maps.Clone(r.plan.steppable), NLines: r.plan.nLines}
	}
	m, err := vm.New(r.exe.Prog)
	if err != nil {
		return nil, err
	}
	// Every stop copies what it reads out of the machine, so its memory
	// goes back to the pool when the run ends.
	defer m.Release()
	if r.opts.StepBudget > 0 {
		m.MaxStep = r.opts.StepBudget
	}
	for _, e := range r.plan.Info.Lines {
		m.SetBreak(int(e.PC))
	}
	err = m.ForEachStop(func() error {
		ps := r.plan.Stops[uint32(m.PC)]
		if ps == nil || ps.Line == 0 || mt.Views[0].Stops[ps.Line] != nil {
			// Not the first hit of a recordable line: resume (the
			// breakpoint was one-shot, so the cost is bounded).
			return nil
		}
		for i, d := range r.dbgs {
			var stop *Stop
			if ins, ok := d.(Inspector); ok {
				stop = ins.InspectAt(ps, m)
			} else {
				var err error
				if stop, err = d.Inspect(r.exe, m); err != nil {
					return err
				}
			}
			mt.Views[i].Stops[ps.Line] = stop
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("debugger: execution failed: %w", err)
	}
	return mt, nil
}
