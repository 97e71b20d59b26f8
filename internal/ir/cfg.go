package ir

// This file implements the "global dependencies" analyses of compiler phase
// 2 that the scheduler relies on: reverse postorder, dominators, and natural
// loop discovery.

// ReversePostorder returns the blocks of f in reverse postorder of a
// depth-first traversal from the entry. Unreachable blocks are excluded.
func ReversePostorder(f *Func) []*Block {
	seen := make(map[*Block]bool, len(f.Blocks))
	post := make([]*Block, 0, len(f.Blocks))
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b] = true
		for _, s := range b.Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(f.Entry())
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Dominators computes the immediate dominator of every reachable block using
// the Cooper–Harvey–Kennedy iterative algorithm. The entry block's immediate
// dominator is itself.
func Dominators(f *Func) map[*Block]*Block {
	rpo := ReversePostorder(f)
	index := make(map[*Block]int, len(rpo))
	for i, b := range rpo {
		index[b] = i
	}
	idom := make(map[*Block]*Block, len(rpo))
	entry := f.Entry()
	idom[entry] = entry

	intersect := func(a, b *Block) *Block {
		for a != b {
			for index[a] > index[b] {
				a = idom[a]
			}
			for index[b] > index[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == entry {
				continue
			}
			var newIdom *Block
			for _, p := range b.Preds {
				if _, ok := idom[p]; !ok {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether a dominates b under the idom map.
func Dominates(idom map[*Block]*Block, a, b *Block) bool {
	for {
		if a == b {
			return true
		}
		next, ok := idom[b]
		if !ok || next == b {
			return false
		}
		b = next
	}
}

// Loop is a natural loop: the set of blocks of a back edge tail→Head.
type Loop struct {
	Head   *Block
	Blocks map[*Block]bool
	// Depth is the nesting depth (1 = outermost). Inner reports whether the
	// loop contains no other loop.
	Depth int
	Inner bool
}

// Contains reports whether b belongs to the loop.
func (l *Loop) Contains(b *Block) bool { return l.Blocks[b] }

// NumBlocks returns the number of blocks in the loop.
func (l *Loop) NumBlocks() int { return len(l.Blocks) }

// NaturalLoops finds all natural loops of f. Loops sharing a header are
// merged. The result is ordered outermost-first by nesting depth.
func NaturalLoops(f *Func) []*Loop {
	idom := Dominators(f)
	byHead := make(map[*Block]*Loop)

	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if !Dominates(idom, s, b) {
				continue
			}
			// back edge b -> s
			loop := byHead[s]
			if loop == nil {
				loop = &Loop{Head: s, Blocks: map[*Block]bool{s: true}}
				byHead[s] = loop
			}
			// Walk predecessors backwards from the tail until the header.
			var stack []*Block
			if !loop.Blocks[b] {
				loop.Blocks[b] = true
				stack = append(stack, b)
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range x.Preds {
					if !loop.Blocks[p] {
						loop.Blocks[p] = true
						stack = append(stack, p)
					}
				}
			}
		}
	}

	loops := make([]*Loop, 0, len(byHead))
	for _, l := range byHead {
		loops = append(loops, l)
	}
	// Depth: number of loops containing this loop's head; Inner: contains no
	// other loop's head besides its own.
	for _, l := range loops {
		l.Depth = 0
		l.Inner = true
		for _, o := range loops {
			if o.Blocks[l.Head] {
				l.Depth++
			}
			if o != l && l.Blocks[o.Head] {
				l.Inner = false
			}
		}
	}
	// Order outermost-first, then by header ID for determinism.
	for i := 0; i < len(loops); i++ {
		for j := i + 1; j < len(loops); j++ {
			li, lj := loops[i], loops[j]
			if lj.Depth < li.Depth || (lj.Depth == li.Depth && lj.Head.ID < li.Head.ID) {
				loops[i], loops[j] = loops[j], loops[i]
			}
		}
	}
	return loops
}
