// Schedreduce delta-debugs the pass schedule of one violation down to its
// minimal reproducing subsequence (Engine.ScheduleReduce) and prints the
// result. It doubles as the CI smoke-schedule probe: after the initial
// Check has warmed the engine, the reduction itself must not run the
// frontend even once — every ddmin probe re-optimizes the cached lowered
// module and re-runs only the debugger — so the example asserts that the
// engine's frontend counter is unchanged across the reduction and exits
// non-zero if any probe slipped back to a full recompile.
//
// Usage:
//
//	schedreduce -src testdata/golden/seed022.mc -family gc -version trunk -level O2
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	src := flag.String("src", "", "MiniC source file to check (required)")
	family := flag.String("family", "gc", "compiler family: gc or cl")
	version := flag.String("version", "trunk", "compiler version")
	level := flag.String("level", "O2", "optimization level")
	flag.Parse()
	if *src == "" {
		log.Fatal("schedreduce: -src is required")
	}

	text, err := os.ReadFile(*src)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := pokeholes.ParseProgram(string(text))
	if err != nil {
		log.Fatalf("schedreduce: %s: %v", *src, err)
	}

	eng := pokeholes.NewEngine()
	ctx := context.Background()
	cfg := pokeholes.Config{Family: pokeholes.Family(*family), Version: *version, Level: *level}
	rep, err := eng.Check(ctx, prog, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		log.Fatalf("schedreduce: %s has no conjecture violations at %s; pick a program that does", *src, cfg)
	}
	v := rep.Violations[0]
	fmt.Printf("%s @ %s: %d violations; reducing first (C%d, var %s line %d)\n",
		*src, cfg, len(rep.Violations), v.Conjecture, v.Var, v.Line)

	// The Check above lowered the program once; the reduction must reuse
	// that cached module for every probe (Optimize+Codegen only).
	before := eng.Stats()
	red, err := eng.ScheduleReduce(ctx, prog, cfg, v)
	if err != nil {
		log.Fatal(err)
	}
	after := eng.Stats()
	if d := after.Frontends - before.Frontends; d != 0 {
		log.Fatalf("schedreduce: reduction ran the frontend %d times, want 0 (probes must reuse the cached lowered module)", d)
	}

	fmt.Printf("minimal schedule: %s\n", orNone(red.Schedule.String()))
	fmt.Printf("probes: %d (all frontend-free)\n", red.Probes)
	if red.Interaction() {
		fmt.Println("interaction bug: reproducing needs >= 2 passes together")
	} else if red.Schedule.Len() == 1 {
		fmt.Println("single-pass bug: one pass reproduces it alone")
	} else {
		fmt.Println("pre-optimizer: the violation survives an empty schedule")
	}
}

// orNone renders the empty schedule readably.
func orNone(s string) string {
	if s == "" {
		return "(empty)"
	}
	return s
}
