package triage

import (
	"fmt"

	"repro/internal/compiler"
	"repro/internal/opt"
)

// Schedule delta debugging (ROADMAP item 2, modeled on swift's
// opt_bug_reducer): instead of stopping at a single culprit pass,
// ScheduleReduce delta-debugs the configuration's canonical pass schedule
// down to a minimal subsequence that still reproduces the violation. A
// result naming two or more passes is a pass-interaction bug — e.g.
// inlining exposing a defect in a later scalar pass — which single-culprit
// triage conflates with the plain single-pass bucket.

// ScheduleReduction is ScheduleReduce's outcome.
type ScheduleReduction struct {
	// Schedule is the minimal subsequence of the configuration's canonical
	// schedule that still reproduces the violation: removing any single
	// entry makes it vanish (1-minimality). Len() >= 2 marks a
	// pass-interaction bug. The empty schedule means the violation
	// pre-dates the optimizer (codegen or debugger side).
	Schedule opt.Schedule
	// Probes counts the candidate schedules compiled and traced.
	Probes int
}

// Interaction reports whether the reduction found a pass-interaction bug:
// a minimal schedule needing two or more passes.
func (r *ScheduleReduction) Interaction() bool { return r.Schedule.Len() >= 2 }

// ScheduleReduce finds a 1-minimal subsequence of the canonical O-level
// schedule that still reproduces the target violation, using ddmin
// (Zeller's delta debugging: prefix/suffix splits, then complements, with
// doubling granularity). Every probe compiles an explicit candidate
// schedule via Target.Compile — the engine injects a compile that re-runs
// Optimize+Codegen from the cached lowered module, so probes perform zero
// frontend executions. The algorithm is sequential and purely a function
// of probe outcomes, so the result is byte-deterministic at any engine
// worker count. It fails when the violation does not reproduce under the
// full canonical schedule.
func ScheduleReduce(tg Target) (*ScheduleReduction, error) {
	red := &ScheduleReduction{}
	occurs := func(entries []opt.Entry) (bool, error) {
		red.Probes++
		s := opt.Schedule{Entries: entries}
		return Occurs(tg, compiler.Options{Schedule: &s})
	}

	full := compiler.ScheduleFor(tg.Cfg)
	occ, err := occurs(full.Entries)
	if err != nil {
		return nil, err
	}
	if !occ {
		return nil, fmt.Errorf("triage: violation does not reproduce under the full schedule")
	}
	if full.Len() == 0 {
		return red, nil
	}
	occ, err = occurs(nil)
	if err != nil {
		return nil, err
	}
	if occ {
		// Reproduces with no optimization at all: attributable to codegen
		// or the debugger, mirroring Bisect's "codegen" verdict.
		return red, nil
	}

	entries := full.Entries
	n := 2
	for len(entries) >= 2 {
		reduced := false
		// Subsets: at n == 2 these are the prefix/suffix splits.
		for _, c := range chunksOf(entries, n) {
			occ, err := occurs(c)
			if err != nil {
				return nil, err
			}
			if occ {
				entries, n, reduced = c, 2, true
				break
			}
		}
		// Complements (identical to the subsets when n == 2, so skipped
		// there): at n == len(entries) each probe removes one entry, which
		// is what establishes 1-minimality on exit.
		if !reduced && n > 2 {
			for i := 0; i < n; i++ {
				comp := complementOf(entries, n, i)
				occ, err := occurs(comp)
				if err != nil {
					return nil, err
				}
				if occ {
					entries = comp
					if n > 2 {
						n--
					}
					reduced = true
					break
				}
			}
		}
		if !reduced {
			if n >= len(entries) {
				break
			}
			n *= 2
			if n > len(entries) {
				n = len(entries)
			}
		}
	}
	red.Schedule = opt.Schedule{Entries: entries}
	return red, nil
}

// chunksOf splits entries into n contiguous chunks of near-equal length,
// earlier chunks taking the remainder — the deterministic split ddmin's
// reproducibility depends on.
func chunksOf(entries []opt.Entry, n int) [][]opt.Entry {
	out := make([][]opt.Entry, 0, n)
	size, rem := len(entries)/n, len(entries)%n
	start := 0
	for i := 0; i < n; i++ {
		end := start + size
		if i < rem {
			end++
		}
		if end > start {
			out = append(out, entries[start:end])
		}
		start = end
	}
	return out
}

// complementOf returns entries with the i-th of n chunks removed,
// preserving order.
func complementOf(entries []opt.Entry, n, i int) []opt.Entry {
	chunks := chunksOf(entries, n)
	out := make([]opt.Entry, 0, len(entries))
	for j, c := range chunks {
		if j == i {
			continue
		}
		out = append(out, c...)
	}
	return out
}
