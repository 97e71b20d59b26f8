package opt

import (
	"repro/internal/ir"
	"repro/internal/types"
)

// EliminateDeadCode removes instructions whose results are never used and
// that have no side effects, using global liveness. It iterates to a fixed
// point (removing one instruction can kill the operands feeding it) and
// returns the number of instructions removed.
func EliminateDeadCode(f *ir.Func) int {
	removed := 0
	// Removing instructions changes neither the blocks nor the registers, so
	// every round solves into the same sets and marks into the same flags.
	lv := newLiveness(f)
	var deadBuf []bool
	for {
		lv.solve(f)
		n := 0
		for _, b := range f.Blocks {
			if len(b.Instrs) > cap(deadBuf) {
				deadBuf = make([]bool, len(b.Instrs))
			}
			dead := deadBuf[:len(b.Instrs)]
			clear(dead)
			lv.LiveAt(b, func(idx int, liveOut BitSet) {
				in := &b.Instrs[idx]
				if in.Op.HasSideEffects() || in.Op.IsTerminator() {
					return
				}
				if in.Dst == ir.None || !liveOut.Has(int(in.Dst)) {
					dead[idx] = true
				}
			})
			if !anyTrue(dead) {
				continue
			}
			kept := b.Instrs[:0]
			for i := range b.Instrs {
				if dead[i] {
					n++
				} else {
					kept = append(kept, b.Instrs[i])
				}
			}
			b.Instrs = kept
		}
		removed += n
		if n == 0 {
			return removed
		}
	}
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}

// SimplifyBranches folds conditional branches whose condition is a constant
// defined in the same block, and collapses CondBr with identical targets.
// It returns the number of simplifications and removes newly unreachable
// blocks.
func SimplifyBranches(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.CondBr {
			continue
		}
		if t.Then == t.Else {
			*t = ir.Instr{Op: ir.Jmp, Then: t.Then}
			n++
			continue
		}
		// Scan backward for the defining ConstI of the condition within the
		// block, stopping at any redefinition.
		for i := len(b.Instrs) - 2; i >= 0; i-- {
			in := &b.Instrs[i]
			if in.Def() == t.A {
				if in.Op == ir.ConstI {
					target := t.Else
					if in.ConstI != 0 {
						target = t.Then
					}
					*t = ir.Instr{Op: ir.Jmp, Then: target}
					n++
				}
				break
			}
		}
	}
	if n > 0 {
		f.RecomputeEdges()
		f.RemoveUnreachable()
	}
	return n
}

// MergeStraightLine merges a block into its unique successor when the
// successor has exactly one predecessor (jump threading for fallthrough
// chains produced by lowering). Returns the number of merges.
func MergeStraightLine(f *ir.Func) int {
	n := 0
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			t := b.Term()
			if t == nil || t.Op != ir.Jmp {
				continue
			}
			s := t.Then
			if s == b || len(s.Preds) != 1 || s == f.Entry() {
				continue
			}
			// Splice s's instructions in place of b's Jmp.
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1], s.Instrs...)
			s.Instrs = nil
			// Retarget: s is now empty; edges recomputed below.
			changed = true
			n++
			f.RecomputeEdges()
			f.RemoveUnreachable()
			break
		}
	}
	return n
}

// Stats aggregates everything the optimizer did to one function; the
// compile-cost model uses these counters as its work metric.
type Stats struct {
	Local       LocalStats
	DeadRemoved int
	Branches    int
	Merges      int
	Passes      int
	// FinalInstrs and FinalBlocks describe the optimized function.
	FinalInstrs int
	FinalBlocks int
}

// Optimize runs the full phase-2 pipeline on f to a fixed point (bounded by
// a small pass budget, as the 1989 compiler would).
func Optimize(f *ir.Func) Stats {
	var st Stats
	sc := newLocalScratch()
	for pass := 0; pass < 4; pass++ {
		st.Passes++
		local := localOptimize(f, sc)
		st.Local.Add(local)
		br := SimplifyBranches(f)
		st.Branches += br
		mg := MergeStraightLine(f)
		st.Merges += mg
		dead := EliminateDeadCode(f)
		st.DeadRemoved += dead
		if local == (LocalStats{}) && br == 0 && mg == 0 && dead == 0 {
			break
		}
	}
	st.FinalInstrs = f.NumInstrs()
	st.FinalBlocks = len(f.Blocks)
	return st
}

// kindsSane double-checks that every vreg still has a valid kind after
// optimization; used by tests.
func kindsSane(f *ir.Func) bool {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, u := range in.Uses() {
				if f.KindOf(u) == types.Invalid {
					return false
				}
			}
		}
	}
	return true
}
