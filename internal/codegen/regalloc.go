package codegen

import (
	"fmt"
	"sort"

	"repro/internal/ir"
	"repro/internal/machine"
)

// Register allocation: linear scan over conservative live intervals derived
// from block-level liveness. The cell has a single 64-register file; r0 is
// hardwired zero and r61–r63 are reserved as spill scratch registers, so the
// allocator hands out r1–r60.

const (
	firstAllocReg = 1
	lastAllocReg  = machine.NumRegs - 4 // 60
	scratch1      = machine.Reg(machine.NumRegs - 3)
	scratch2      = machine.Reg(machine.NumRegs - 2)
	scratch3      = machine.Reg(machine.NumRegs - 1)
)

// POp is a machine operation with physical registers, ready for scheduling
// and encoding.
type POp struct {
	Op  machine.Opcode
	Dst machine.Reg
	A   machine.Reg
	B   machine.Reg
	Imm int32
	Sym string
}

func (p POp) String() string {
	return p.instr().StringSym(p.Sym)
}

// instr is the encodable part of p: everything but its symbol.
func (p *POp) instr() machine.Instr {
	return machine.Instr{Op: p.Op, Dst: p.Dst, A: p.A, B: p.B, Imm: p.Imm}
}

// PBlock is a block of physical-register operations.
type PBlock struct {
	Label     string
	Ops       []POp
	SelfLoop  bool
	Loop      *LoopInfo
	HasSpills bool // spill code present; disqualifies software pipelining
	// Scheduled holds the block's final instruction words once a scheduler
	// has placed the ops, and Syms the symbolic operands of those words'
	// slots, which the assembler turns into relocations.
	Scheduled []machine.Word
	Syms      []SlotSym
}

// SlotSym is the symbolic operand of one slot of a scheduled block: a branch
// label or a function-local data symbol, resolved into the slot's Imm at
// link time.
type SlotSym struct {
	Word int
	Unit machine.Unit
	Sym  string
}

// place puts op into its unit's slot of word w of b.Scheduled and records
// its symbol, if it has one. Every scheduler fills a block through it.
func (b *PBlock) place(w int, op *POp) {
	u := machine.Info(op.Op).Unit
	b.Scheduled[w][u] = op.instr()
	if op.Sym != "" {
		b.Syms = append(b.Syms, SlotSym{Word: w, Unit: u, Sym: op.Sym})
	}
}

// PFunc is the allocated function.
type PFunc struct {
	Name    string
	Section int
	Blocks  []*PBlock
	Arrays  []ir.ArrayVar
	IsEntry bool
	// Spilled counts spilled virtual registers (a work/quality metric).
	Spilled int
}

// NumOps returns the total op count.
func (f *PFunc) NumOps() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Ops)
	}
	return n
}

func (f *PFunc) String() string {
	s := fmt.Sprintf("pfunc %s (section %d, %d spills)\n", f.Name, f.Section, f.Spilled)
	for _, b := range f.Blocks {
		s += b.Label + ":\n"
		for _, op := range b.Ops {
			s += "  " + op.String() + "\n"
		}
	}
	return s
}

// opUses returns the vregs read by a machine op (respecting its shape), in
// buf: a loop over many ops lends one array to every call.
func opUses(op *MOp, buf *[2]ir.VReg) []ir.VReg {
	info := machine.Info(op.Op)
	out := buf[:0]
	if info.NumSrc >= 1 && op.A > 0 {
		out = append(out, op.A)
	}
	if info.NumSrc >= 2 && op.B > 0 {
		out = append(out, op.B)
	}
	return out
}

// opDef returns the vreg written, or None. The $retval marker is not a vreg.
func opDef(op *MOp) ir.VReg {
	if machine.Info(op.Op).HasDst && op.Dst > 0 {
		return op.Dst
	}
	return ir.None
}

// Allocate maps virtual to physical registers, inserting spill code where
// the 60 allocatable registers do not suffice.
func Allocate(mf *MFunc) (*PFunc, error) {
	intervals := buildIntervals(mf)

	// Linear scan.
	sort.Slice(intervals, func(i, j int) bool {
		if intervals[i].start != intervals[j].start {
			return intervals[i].start < intervals[j].start
		}
		return intervals[i].vreg < intervals[j].vreg
	})
	assignment := make(map[ir.VReg]machine.Reg)
	spilled := make(map[ir.VReg]string)

	free := make([]machine.Reg, 0, lastAllocReg)
	for r := lastAllocReg; r >= firstAllocReg; r-- {
		free = append(free, machine.Reg(r)) // pop from the end → lowest first
	}
	type active struct {
		vreg ir.VReg
		end  int
		reg  machine.Reg
	}
	var act []active

	for _, iv := range intervals {
		// Expire finished intervals.
		kept := act[:0]
		for _, a := range act {
			if a.end < iv.start {
				free = append(free, a.reg)
			} else {
				kept = append(kept, a)
			}
		}
		act = kept

		if len(free) > 0 {
			r := free[len(free)-1]
			free = free[:len(free)-1]
			assignment[iv.vreg] = r
			act = append(act, active{iv.vreg, iv.end, r})
			continue
		}
		// Spill the interval that ends last (classic heuristic).
		victim := -1
		for i, a := range act {
			if victim < 0 || a.end > act[victim].end {
				victim = i
			}
		}
		if victim >= 0 && act[victim].end > iv.end {
			v := act[victim]
			spilled[v.vreg] = spillSym(v.vreg)
			delete(assignment, v.vreg)
			assignment[iv.vreg] = v.reg
			act[victim] = active{iv.vreg, iv.end, v.reg}
		} else {
			spilled[iv.vreg] = spillSym(iv.vreg)
		}
	}

	pf := &PFunc{
		Name:    mf.Name,
		Section: mf.Section,
		IsEntry: mf.IsEntry,
		Arrays:  append([]ir.ArrayVar(nil), mf.Arrays...),
		Spilled: len(spilled),
	}
	for v := range spilled {
		pf.Arrays = append(pf.Arrays, ir.ArrayVar{Sym: spilled[v], Words: 1})
	}
	sort.Slice(pf.Arrays[len(mf.Arrays):], func(i, j int) bool {
		a := pf.Arrays[len(mf.Arrays):]
		return a[i].Sym < a[j].Sym
	})

	// Rewrite every block.
	for _, mb := range mf.Blocks {
		pb := &PBlock{Label: mb.Label, SelfLoop: mb.SelfLoop, Loop: mb.Loop}
		for i := range mb.Ops {
			if err := rewriteOp(pb, &mb.Ops[i], assignment, spilled); err != nil {
				return nil, fmt.Errorf("%s: %w", mf.Name, err)
			}
		}
		pf.Blocks = append(pf.Blocks, pb)
	}

	// Non-entry functions receive arguments in r1..rk by convention; bind
	// them to the allocated registers of the parameter vregs.
	if !mf.IsEntry && len(mf.Params) > 0 {
		entry := pf.Blocks[0]
		var prologue []POp
		for i, p := range mf.Params {
			argReg := machine.Reg(i + 1)
			if dst, ok := assignment[p]; ok && dst != argReg {
				prologue = append(prologue, POp{Op: machine.MOV, Dst: dst, A: argReg})
			} else if sym, ok := spilled[p]; ok {
				prologue = append(prologue, POp{Op: machine.STORE, A: machine.RZero, B: argReg, Sym: sym})
			}
		}
		entry.Ops = append(prologue, entry.Ops...)
	}
	return pf, nil
}

func spillSym(v ir.VReg) string { return fmt.Sprintf("spill$%d", v) }

type interval struct {
	vreg       ir.VReg
	start, end int
}

// buildIntervals computes conservative live intervals: a vreg's interval
// spans from its first occurrence (or the start of any block where it is
// live-in) to its last occurrence (or the end of any block where it is
// live-out).
func buildIntervals(mf *MFunc) []interval {
	// Block successors, by position in mf.Blocks, via labels.
	byLabel := make(map[string]int, len(mf.Blocks))
	for i, b := range mf.Blocks {
		byLabel[b.Label] = i
	}
	succs := make([][]int, len(mf.Blocks))
	for i, b := range mf.Blocks {
		for _, op := range b.Ops {
			if (op.Op == machine.JMP || op.Op == machine.BT || op.Op == machine.BF) && op.Sym != "" {
				if t, ok := byLabel[op.Sym]; ok {
					succs[i] = append(succs[i], t)
				}
			}
		}
	}

	// Four register sets per block — use, def, live-in, live-out — as rows
	// of one bit matrix, allocated once for the whole function.
	n := mf.NumVRegs + 1
	words := (n + 63) / 64
	bits := make([]uint64, 4*len(mf.Blocks)*words)
	const useRow, defRow, inRow, outRow = 0, 1, 2, 3
	row := func(block, which int) []uint64 {
		at := (4*block + which) * words
		return bits[at : at+words]
	}
	var ub [2]ir.VReg
	for i, b := range mf.Blocks {
		u, d := row(i, useRow), row(i, defRow)
		for k := range b.Ops {
			op := &b.Ops[k]
			for _, r := range opUses(op, &ub) {
				if !hasBit(d, r) {
					setBit(u, r)
				}
			}
			if dst := opDef(op); dst != ir.None {
				setBit(d, dst)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := len(mf.Blocks) - 1; i >= 0; i-- {
			out := row(i, outRow)
			for _, s := range succs[i] {
				for w, lv := range row(s, inRow) {
					if lv&^out[w] != 0 {
						out[w] |= lv
						changed = true
					}
				}
			}
			in, u, d := row(i, inRow), row(i, useRow), row(i, defRow)
			for w := range in {
				if nv := u[w] | out[w]&^d[w]; nv&^in[w] != 0 {
					in[w] |= nv
					changed = true
				}
			}
		}
	}

	// Positions: global op index; block start/end positions bracket its ops.
	pos := 0
	starts := make([]int, n)
	ends := make([]int, n)
	seen := make([]bool, n)
	touch := func(v ir.VReg, p int) {
		if v <= 0 {
			return
		}
		if !seen[v] {
			seen[v] = true
			starts[v] = p
			ends[v] = p
		} else {
			if p < starts[v] {
				starts[v] = p
			}
			if p > ends[v] {
				ends[v] = p
			}
		}
	}
	for bi, b := range mf.Blocks {
		blockStart := pos
		for i := range b.Ops {
			op := &b.Ops[i]
			for _, r := range opUses(op, &ub) {
				touch(r, pos)
			}
			if dst := opDef(op); dst != ir.None {
				touch(dst, pos)
			}
			pos++
		}
		blockEnd := pos - 1
		if blockEnd < blockStart {
			blockEnd = blockStart
		}
		in, out := row(bi, inRow), row(bi, outRow)
		for v := 1; v < n; v++ {
			if hasBit(in, ir.VReg(v)) {
				touch(ir.VReg(v), blockStart)
			}
			if hasBit(out, ir.VReg(v)) {
				touch(ir.VReg(v), blockEnd)
			}
		}
	}

	var out []interval
	for v := 1; v < n; v++ {
		if seen[v] {
			out = append(out, interval{ir.VReg(v), starts[v], ends[v]})
		}
	}
	return out
}

// hasBit and setBit treat a row of words as a set of (positive) vregs.
func hasBit(row []uint64, v ir.VReg) bool { return row[v/64]&(1<<(v%64)) != 0 }
func setBit(row []uint64, v ir.VReg)      { row[v/64] |= 1 << (v % 64) }

// rewriteOp translates one MOp into POps, inserting spill loads/stores.
func rewriteOp(pb *PBlock, op *MOp, assignment map[ir.VReg]machine.Reg, spilled map[ir.VReg]string) error {
	info := machine.Info(op.Op)

	mapReg := func(v ir.VReg, scratch machine.Reg, isUse bool) (machine.Reg, bool, string) {
		if v <= 0 {
			return machine.RZero, false, ""
		}
		if r, ok := assignment[v]; ok {
			return r, false, ""
		}
		if sym, ok := spilled[v]; ok {
			return scratch, true, sym
		}
		// Dead value (never used): park writes in scratch3.
		if !isUse {
			return scratch3, false, ""
		}
		return machine.RZero, false, ""
	}

	var p POp
	p.Op = op.Op
	p.Imm = op.Imm
	p.Sym = op.Sym

	if info.NumSrc >= 1 {
		r, sp, sym := mapReg(op.A, scratch1, true)
		if sp {
			pb.Ops = append(pb.Ops, POp{Op: machine.LOAD, Dst: scratch1, A: machine.RZero, Sym: sym})
			pb.HasSpills = true
		}
		p.A = r
	}
	if info.NumSrc >= 2 {
		r, sp, sym := mapReg(op.B, scratch2, true)
		if sp {
			pb.Ops = append(pb.Ops, POp{Op: machine.LOAD, Dst: scratch2, A: machine.RZero, Sym: sym})
			pb.HasSpills = true
		}
		p.B = r
	}

	var defSpillSym string
	if info.HasDst {
		if op.Dst == retValueMarker {
			// Return value convention: r1. Nothing is live at this point
			// (the function returns immediately after).
			p.Dst = machine.Reg(1)
			p.Sym = ""
		} else {
			r, sp, sym := mapReg(op.Dst, scratch3, false)
			p.Dst = r
			if sp {
				defSpillSym = sym
			}
		}
	}

	pb.Ops = append(pb.Ops, p)
	if defSpillSym != "" {
		pb.Ops = append(pb.Ops, POp{Op: machine.STORE, A: machine.RZero, B: scratch3, Sym: defSpillSym})
		pb.HasSpills = true
	}
	return nil
}
