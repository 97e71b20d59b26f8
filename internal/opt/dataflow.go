package opt

import "repro/internal/ir"

// Liveness holds the result of global live-variable analysis: for each block
// the virtual registers live on entry and on exit. A Liveness belongs to the
// goroutine that computed it: LiveAt works in scratch it owns.
type Liveness struct {
	In  map[*ir.Block]BitSet
	Out map[*ir.Block]BitSet
	// NumVRegs is the analysis universe size (vreg ids are 1..NumVRegs).
	NumVRegs int

	// bits backs every set below and in In and Out, so that solving again
	// (dead-code elimination does, after each round of removals) starts from
	// one clear, not from fresh allocations. scratch is the working set of
	// solve and LiveAt; rpo is the block order solve visits, which removing
	// instructions does not change either.
	bits     []uint64
	use, def map[*ir.Block]BitSet
	scratch  BitSet
	rpo      []*ir.Block
}

// ComputeLiveness runs backward iterative dataflow over f.
func ComputeLiveness(f *ir.Func) *Liveness {
	lv := newLiveness(f)
	lv.solve(f)
	return lv
}

// newLiveness allocates the sets for f's blocks and registers, all empty.
func newLiveness(f *ir.Func) *Liveness {
	words := (f.NumVRegs() + 1 + 63) / 64 // as NewBitSet sizes a set
	nb := len(f.Blocks)
	lv := &Liveness{
		In:       make(map[*ir.Block]BitSet, nb),
		Out:      make(map[*ir.Block]BitSet, nb),
		NumVRegs: f.NumVRegs(),
		bits:     make([]uint64, (4*nb+1)*words),
		use:      make(map[*ir.Block]BitSet, nb),
		def:      make(map[*ir.Block]BitSet, nb),
		rpo:      ir.ReversePostorder(f),
	}
	rest := lv.bits
	take := func() BitSet {
		s := rest[:words:words]
		rest = rest[words:]
		return BitSet(s)
	}
	for _, b := range f.Blocks {
		lv.use[b], lv.def[b] = take(), take()
		lv.In[b], lv.Out[b] = take(), take()
	}
	lv.scratch = take()
	return lv
}

// solve computes the solution for f as it now is. f must have the blocks,
// edges and register count lv was allocated for; its instructions may have
// changed.
func (lv *Liveness) solve(f *ir.Func) {
	clear(lv.bits)
	var uses [8]ir.VReg
	for _, b := range f.Blocks {
		u, d := lv.use[b], lv.def[b]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, r := range in.AppendUses(uses[:0]) {
				if !d.Has(int(r)) {
					u.Set(int(r))
				}
			}
			if dst := in.Def(); dst != ir.None {
				d.Set(int(dst))
			}
		}
	}

	// Iterate to fixpoint, visiting blocks in reverse order for faster
	// convergence of the backward problem.
	rpo := lv.rpo
	newIn := lv.scratch
	for changed := true; changed; {
		changed = false
		for i := len(rpo) - 1; i >= 0; i-- {
			b := rpo[i]
			out := lv.Out[b]
			for _, s := range b.Succs {
				if out.OrWith(lv.In[s]) {
					changed = true
				}
			}
			// in = use ∪ (out − def)
			newIn.Copy(out)
			newIn.AndNotWith(lv.def[b])
			newIn.OrWith(lv.use[b])
			if lv.In[b].OrWith(newIn) {
				changed = true
			}
		}
	}
}

// LiveAt walks a block backwards computing per-instruction live-out sets.
// It calls visit for every instruction with the set of registers live
// immediately after it. The callback must not retain the set.
func (lv *Liveness) LiveAt(b *ir.Block, visit func(idx int, liveOut BitSet)) {
	live := lv.scratch
	live.Copy(lv.Out[b])
	var uses [8]ir.VReg
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		visit(i, live)
		in := &b.Instrs[i]
		if dst := in.Def(); dst != ir.None {
			live.Clear(int(dst))
		}
		for _, r := range in.AppendUses(uses[:0]) {
			live.Set(int(r))
		}
	}
}

// DefSite identifies one definition: the block and instruction index.
type DefSite struct {
	Block *ir.Block
	Index int
}

// ReachingDefs holds the reaching-definitions solution. Definitions are
// numbered densely; In[b] is the set of definition ids reaching the entry
// of b.
type ReachingDefs struct {
	Defs  []DefSite            // definition id -> site
	DefOf map[*ir.Block][]int  // block -> definition ids in order
	In    map[*ir.Block]BitSet // reaching in
	Out   map[*ir.Block]BitSet
	// ByVReg lists definition ids per virtual register.
	ByVReg map[ir.VReg][]int
}

// ComputeReachingDefs runs forward iterative dataflow over f. This is the
// "computation of global dependencies" of the paper's phase 2; the
// scheduler consults it when checking whether a value flowing into a loop is
// redefined inside it.
func ComputeReachingDefs(f *ir.Func) *ReachingDefs {
	rd := &ReachingDefs{
		DefOf:  make(map[*ir.Block][]int),
		In:     make(map[*ir.Block]BitSet),
		Out:    make(map[*ir.Block]BitSet),
		ByVReg: make(map[ir.VReg][]int),
	}
	// Number definitions.
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if dst := b.Instrs[i].Def(); dst != ir.None {
				id := len(rd.Defs)
				rd.Defs = append(rd.Defs, DefSite{Block: b, Index: i})
				rd.DefOf[b] = append(rd.DefOf[b], id)
				rd.ByVReg[dst] = append(rd.ByVReg[dst], id)
			}
		}
	}
	n := len(rd.Defs)

	gen := make(map[*ir.Block]BitSet)
	kill := make(map[*ir.Block]BitSet)
	for _, b := range f.Blocks {
		g, k := NewBitSet(n), NewBitSet(n)
		// Walk forward; later defs of the same vreg kill earlier ones.
		lastDef := make(map[ir.VReg]int)
		for i := range b.Instrs {
			if dst := b.Instrs[i].Def(); dst != ir.None {
				id := defIDAt(rd, b, i)
				lastDef[dst] = id
			}
		}
		for v, id := range lastDef {
			g.Set(id)
			for _, other := range rd.ByVReg[v] {
				if other != id {
					k.Set(other)
				}
			}
		}
		gen[b], kill[b] = g, k
		rd.In[b] = NewBitSet(n)
		rd.Out[b] = NewBitSet(n)
	}

	rpo := ir.ReversePostorder(f)
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			in := rd.In[b]
			for _, p := range b.Preds {
				if in.OrWith(rd.Out[p]) {
					changed = true
				}
			}
			newOut := in.Clone()
			newOut.AndNotWith(kill[b])
			newOut.OrWith(gen[b])
			if rd.Out[b].OrWith(newOut) {
				changed = true
			}
		}
	}
	return rd
}

func defIDAt(rd *ReachingDefs, b *ir.Block, idx int) int {
	// DefOf[b] is ordered by instruction index; find the one at idx.
	k := 0
	for i := 0; i <= idx; i++ {
		if b.Instrs[i].Def() != ir.None {
			if i == idx {
				return rd.DefOf[b][k]
			}
			k++
		}
	}
	return -1
}

// ReachingDefsOf returns the definition sites of v that reach the entry of b.
func (rd *ReachingDefs) ReachingDefsOf(b *ir.Block, v ir.VReg) []DefSite {
	var out []DefSite
	in := rd.In[b]
	for _, id := range rd.ByVReg[v] {
		if in.Has(id) {
			out = append(out, rd.Defs[id])
		}
	}
	return out
}
