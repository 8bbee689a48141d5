package opt

import (
	"repro/internal/ir"
)

// This file provides CFG analyses shared by the passes: the dominator tree,
// natural loop detection, and small structural helpers.

// DomTree is the dominator tree of one function's CFG, numbered for O(1)
// dominance queries. Immediate dominators come from Cooper, Harvey and
// Kennedy's "A Simple, Fast Dominance Algorithm" over the reachable blocks
// in reverse postorder; a preorder walk of the tree then gives each block a
// number pre and a subtree size, so a dominates b exactly when b's number
// lies in a's subtree interval.
//
// Unreachable blocks follow the classic dataflow convention: every block of
// the function vacuously dominates an unreachable block, an unreachable
// block dominates no reachable one, and unreachable predecessors do not
// constrain the blocks they branch to. A DomTree describes the CFG it was
// built from; rebuild it after a pass changes branches or the block list.
type DomTree struct {
	// pre maps every block of the function to its dominator-tree preorder
	// number, or -1 when the block is unreachable from the entry.
	pre map[*ir.Block]int32
	// size is the dominator subtree size, indexed by preorder number.
	size []int32
}

// NewDomTree builds the dominator tree of fn.
func NewDomTree(fn *ir.Func) *DomTree {
	t := &DomTree{pre: make(map[*ir.Block]int32, len(fn.Blocks))}
	if len(fn.Blocks) == 0 {
		return t
	}
	for _, b := range fn.Blocks {
		t.pre[b] = -1
	}
	// Postorder DFS from the entry over blocks of the function; pre holds
	// -2 while a block is on the stack or done, so each is visited once.
	type visit struct {
		b    *ir.Block
		next int
	}
	post := make([]*ir.Block, 0, len(fn.Blocks))
	stack := []visit{{b: fn.Entry()}}
	t.pre[fn.Entry()] = -2
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		succs := top.b.Succs()
		if top.next < len(succs) {
			s := succs[top.next]
			top.next++
			if p, ok := t.pre[s]; ok && p == -1 {
				t.pre[s] = -2
				stack = append(stack, visit{b: s})
			}
			continue
		}
		post = append(post, top.b)
		stack = stack[:len(stack)-1]
	}
	// Reverse-postorder numbers, kept in pre until the tree is numbered:
	// the entry is 0 and, outside back edges, every edge goes from a lower
	// to a higher number.
	n := len(post)
	for i, b := range post {
		t.pre[b] = int32(n - 1 - i)
	}
	// Predecessor lists in RPO numbers, in compressed-row form. Edges from
	// unreachable blocks are left out.
	start := make([]int32, n+1)
	for _, b := range post {
		for _, s := range b.Succs() {
			if w, ok := t.pre[s]; ok && w >= 0 {
				start[w+1]++
			}
		}
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	preds := make([]int32, start[n])
	fill := append([]int32(nil), start[:n]...)
	for _, b := range post {
		v := t.pre[b]
		for _, s := range b.Succs() {
			if w, ok := t.pre[s]; ok && w >= 0 {
				preds[fill[w]] = v
				fill[w]++
			}
		}
	}
	idom := make([]int32, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0
	for changed := true; changed; {
		changed = false
		for v := 1; v < n; v++ {
			nd := int32(-1)
			for _, p := range preds[start[v]:start[v+1]] {
				if idom[p] < 0 {
					continue // not yet processed
				}
				if nd < 0 {
					nd = p
					continue
				}
				// Walk both fingers up to their nearest common dominator.
				a := p
				for a != nd {
					for a > nd {
						a = idom[a]
					}
					for nd > a {
						nd = idom[nd]
					}
				}
			}
			if idom[v] != nd {
				idom[v] = nd
				changed = true
			}
		}
	}
	// Subtree sizes bottom-up (an immediate dominator precedes the blocks it
	// dominates in RPO), then preorder numbers top-down: each child takes
	// the next free interval inside its parent's.
	size := make([]int32, n)
	for v := n - 1; v > 0; v-- {
		size[v]++
		size[idom[v]] += size[v]
	}
	size[0]++
	preOf := make([]int32, n)
	free := make([]int32, n)
	free[0] = 1
	for v := 1; v < n; v++ {
		p := idom[v]
		preOf[v] = free[p]
		free[p] += size[v]
		free[v] = preOf[v] + 1
	}
	t.size = make([]int32, n)
	for _, b := range post {
		v := t.pre[b]
		t.pre[b] = preOf[v]
		t.size[preOf[v]] = size[v]
	}
	return t
}

// Dominates reports whether a dominates b; every block dominates itself.
// Blocks outside the function dominate nothing and are dominated by
// nothing.
func (t *DomTree) Dominates(a, b *ir.Block) bool {
	pb, ok := t.pre[b]
	if !ok {
		return false
	}
	pa, ok := t.pre[a]
	switch {
	case !ok:
		return false
	case pb < 0:
		return true
	case pa < 0:
		return false
	}
	return pa <= pb && pb < pa+t.size[pa]
}

// reachable reports whether b is a block of the function reachable from
// its entry.
func (t *DomTree) reachable(b *ir.Block) bool {
	p, ok := t.pre[b]
	return ok && p >= 0
}

// Loop describes one natural loop.
type Loop struct {
	Header *ir.Block
	Latch  *ir.Block // source of the back edge
	Blocks map[*ir.Block]bool
	// Exits are blocks outside the loop that loop blocks branch to.
	Exits []*ir.Block
}

// FindLoops detects natural loops (back edges to a dominating header).
// Loops sharing a header are merged. Only the reachable CFG is considered:
// every block vacuously dominates an unreachable one, so without the filter
// every edge out of one would read as a back edge.
func FindLoops(fn *ir.Func) []*Loop {
	return findLoops(fn, NewDomTree(fn))
}

// findLoops is FindLoops over an already built dominator tree of fn.
func findLoops(fn *ir.Func, dom *DomTree) []*Loop {
	preds := fn.Preds()
	byHeader := map[*ir.Block]*Loop{}
	var order []*ir.Block
	for _, b := range fn.Blocks {
		if !dom.reachable(b) {
			continue
		}
		for _, s := range b.Succs() {
			if dom.Dominates(s, b) { // back edge b -> s
				l := byHeader[s]
				if l == nil {
					l = &Loop{Header: s, Latch: b, Blocks: map[*ir.Block]bool{s: true}}
					byHeader[s] = l
					order = append(order, s)
				}
				l.Latch = b
				// Collect the loop body: blocks that reach the latch
				// without passing through the header.
				stack := []*ir.Block{b}
				for len(stack) > 0 {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if l.Blocks[x] {
						continue
					}
					l.Blocks[x] = true
					for _, p := range preds[x] {
						if dom.reachable(p) {
							stack = append(stack, p)
						}
					}
				}
			}
		}
	}
	var loops []*Loop
	for _, h := range order {
		l := byHeader[h]
		seenExit := map[*ir.Block]bool{}
		for b := range l.Blocks {
			for _, s := range b.Succs() {
				if !l.Blocks[s] && !seenExit[s] {
					seenExit[s] = true
					l.Exits = append(l.Exits, s)
				}
			}
		}
		loops = append(loops, l)
	}
	return loops
}

// ReplaceSucc rewrites branches in b from old to new.
func ReplaceSucc(b *ir.Block, old, new *ir.Block) {
	t := b.Term()
	if t == nil {
		return
	}
	for i, tgt := range t.Tgts {
		if tgt == old {
			t.Tgts[i] = new
		}
	}
}

// TempUseCounts returns, for each register, how many non-debug uses it has
// in the function.
func TempUseCounts(fn *ir.Func) []int {
	uses := make([]int, fn.NTemp)
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpDbgVal {
				continue
			}
			for _, a := range in.Args {
				if a.IsTemp() {
					uses[a.Temp]++
				}
			}
		}
	}
	return uses
}

// DefCounts returns, for each register, how many definitions it has.
func DefCounts(fn *ir.Func) []int {
	defs := make([]int, fn.NTemp)
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Dst >= 0 {
				defs[in.Dst]++
			}
		}
	}
	return defs
}

// RemoveUnreachable deletes blocks not reachable from the entry and returns
// whether anything was removed. Debug intrinsics in removed blocks are
// dropped: the code never executes, so no location can be valid there.
func RemoveUnreachable(fn *ir.Func) bool {
	reach := fn.Reachable()
	if len(reach) == len(fn.Blocks) {
		return false
	}
	var kept []*ir.Block
	for _, b := range fn.Blocks {
		if reach[b] {
			kept = append(kept, b)
		}
	}
	changed := len(kept) != len(fn.Blocks)
	fn.Blocks = kept
	return changed
}
