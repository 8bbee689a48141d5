package main

// Program inputs of the serve workloads.
//
// Checking cost grows steeply with program size: when this benchmark was
// written, the 6.5% of fuzzed programs longer than 80 source lines took
// about three quarters of a serve-cold window's client time, and a single
// /check of a 679-line program held a client for 14 s of a 50 s window.
// The inputs therefore keep the generator's own distribution of program
// lengths but fix it per round: every round holds the same number of
// programs of each length class, each class spread evenly over the
// round, so any stretch of the pool holds each class's share to within
// one program. The seed picks which programs, except in the tail: the
// programs of tailLines lines or more (6.5% of what the generator makes)
// are the costliest requests of a window, and which ones a seed drew
// would decide its throughput and p99 latency. Every run takes them from
// one fixed stream of fuzzer seeds and puts them at the same fractions of
// each round.

import (
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/fuzzgen"
	"repro/internal/minic"
)

const (
	// roundSize is the number of programs in a round.
	roundSize = 2000
	// tailLines is where the tail classes start.
	tailLines = 81
	// tailSeed is the first fuzzer seed of the tail's fixed stream.
	tailSeed = 1 << 41
)

// lengthClasses split programs by rendered source lines: class i holds
// lengths below lengthClasses[i].upper, and a round takes .perRound of
// them. The counts are the generator's own shares among 40,000 programs
// (seeds 3e9 + 7919k), rounded to a round of roundSize by largest
// remainder. The classes are finest where cost grows fastest.
var lengthClasses = []struct{ upper, perRound int }{
	{21, 683}, {26, 316}, {31, 223}, {36, 166}, {41, 117}, {51, 161},
	{61, 97}, {71, 65}, {81, 41}, {101, 52}, {126, 33}, {151, 19},
	{176, 10}, {201, 6}, {251, 6}, {301, 3}, {math.MaxInt, 2},
}

// isTail reports whether length class c is in the tail.
func isTail(c int) bool { return c > 0 && lengthClasses[c-1].upper >= tailLines }

// pooled is one input program. The pool keeps sources, not syntax trees,
// so the benchmark's own memory adds little to the heap the server's
// garbage collector scans.
type pooled struct {
	seed  int64  // its fuzzer seed
	src   string // its rendered source
	class int    // its index in lengthClasses
	fns   int    // its number of functions
}

// programPool returns n fuzzed programs in rounds of roundSize with the
// fixed length composition of lengthClasses, each class spread evenly
// over the round: the tail's from the fixed stream at fixed fractions of
// the round, every other class's drawn from seed from a seeded phase.
func programPool(seed int64, n int) []pooled {
	rng := rand.New(rand.NewSource(seed))
	seeded, fixed := rng.Int63n(1<<40), int64(tailSeed)
	var out []pooled
	for len(out) < n {
		queues := make([][]pooled, len(lengthClasses))
		fill(queues, &seeded, func(c int) bool { return !isTail(c) })
		fill(queues, &fixed, isTail)
		type placed struct {
			at float64
			p  pooled
		}
		var round []placed
		for c := range queues {
			phase := 0.5
			if !isTail(c) {
				phase = rng.Float64()
			}
			for k, p := range queues[c] {
				round = append(round, placed{(float64(k) + phase) / float64(len(queues[c])), p})
			}
		}
		sort.SliceStable(round, func(a, b int) bool { return round[a].at < round[b].at })
		for _, r := range round {
			out = append(out, r.p)
		}
	}
	return out[:n]
}

// fill fuzzes programs from the seed *next onwards until every length
// class that want selects holds its share of a round, dropping programs
// of other or full classes, and leaves *next at the first seed not used.
func fill(queues [][]pooled, next *int64, want func(class int) bool) {
	for {
		full := true
		for c, lc := range lengthClasses {
			if want(c) && len(queues[c]) < lc.perRound {
				full = false
			}
		}
		if full {
			return
		}
		prog := fuzzgen.GenerateSeed(*next)
		p := pooled{seed: *next, src: minic.Render(prog), fns: len(prog.Funcs)}
		*next++
		p.class = lengthClass(p.src)
		if want(p.class) && len(queues[p.class]) < lengthClasses[p.class].perRound {
			queues[p.class] = append(queues[p.class], p)
		}
	}
}

// lengthClass returns the index in lengthClasses of a rendered source.
func lengthClass(src string) int {
	lines := strings.Count(src, "\n")
	c := 0
	for lines >= lengthClasses[c].upper {
		c++
	}
	return c
}
