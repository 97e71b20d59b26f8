package codegen

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/types"
)

// Select translates an optimized, call-free IR function into machine-op
// form. The IR function should already have had loops inverted so that
// innermost loops appear as self-loop blocks.
func Select(f *ir.Func, isEntry bool) (*MFunc, error) {
	if ir.HasCalls(f) {
		return nil, fmt.Errorf("%s: instruction selection requires a call-free function (run inlining first)", f.Name)
	}
	mf := &MFunc{
		Name:     f.Name,
		Section:  f.Section,
		NumVRegs: f.NumVRegs(),
		IsEntry:  isEntry,
		Params:   append([]ir.VReg(nil), f.Params...),
	}
	mf.Arrays = append(mf.Arrays, f.Arrays...)

	for _, b := range f.Blocks {
		mb := &MBlock{Label: BlockLabel(f.Name, b.ID)}
		if _, ok := ir.SelfLoop(b); ok {
			mb.SelfLoop = true
		}
		for i := range b.Instrs {
			if err := selectInstr(mf, mb, f, b, &b.Instrs[i]); err != nil {
				return nil, fmt.Errorf("%s: %w", f.Name, err)
			}
		}
		mf.Blocks = append(mf.Blocks, mb)
	}
	detectCountedLoops(mf)
	return mf, nil
}

// intBin and floatBin map IR arithmetic to opcodes per kind.
var intBin = map[ir.Op]machine.Opcode{
	ir.Add: machine.IADD, ir.Sub: machine.ISUB, ir.Mul: machine.IMUL,
	ir.Div: machine.IDIV, ir.Rem: machine.IREM,
	ir.Min: machine.IMIN, ir.Max: machine.IMAX,
	ir.CmpEQ: machine.ICMPEQ, ir.CmpNE: machine.ICMPNE,
	ir.CmpLT: machine.ICMPLT, ir.CmpLE: machine.ICMPLE,
	ir.CmpGT: machine.ICMPGT, ir.CmpGE: machine.ICMPGE,
}

var floatBin = map[ir.Op]machine.Opcode{
	ir.Add: machine.FADDOP, ir.Sub: machine.FSUBOP, ir.Mul: machine.FMULOP,
	ir.Div: machine.FDIV,
	ir.Min: machine.FMIN, ir.Max: machine.FMAX,
	ir.CmpEQ: machine.FCMPEQ, ir.CmpNE: machine.FCMPNE,
	ir.CmpLT: machine.FCMPLT, ir.CmpLE: machine.FCMPLE,
	ir.CmpGT: machine.FCMPGT, ir.CmpGE: machine.FCMPGE,
}

func selectInstr(mf *MFunc, mb *MBlock, f *ir.Func, b *ir.Block, in *ir.Instr) error {
	emit := func(op MOp) { mb.Ops = append(mb.Ops, op) }

	switch in.Op {
	case ir.Nop:
	case ir.ConstI:
		if in.ConstI < -1<<31 || in.ConstI >= 1<<31 {
			return fmt.Errorf("integer constant %d exceeds the 32-bit machine word", in.ConstI)
		}
		emit(MOp{Op: machine.LDI, Dst: in.Dst, Imm: int32(in.ConstI)})
	case ir.ConstF:
		bits := machine.FloatWord(float32(in.ConstF))
		emit(MOp{Op: machine.LDI, Dst: in.Dst, Imm: int32(uint32(bits))})
	case ir.Mov:
		emit(MOp{Op: machine.MOV, Dst: in.Dst, A: in.A})
	case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.Min, ir.Max,
		ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE:
		table := intBin
		if in.Kind == types.Float {
			table = floatBin
		}
		op, ok := table[in.Op]
		if !ok {
			return fmt.Errorf("no machine op for %s kind %v", in.Op, in.Kind)
		}
		emit(MOp{Op: op, Dst: in.Dst, A: in.A, B: in.B})
	case ir.Neg:
		if in.Kind == types.Float {
			emit(MOp{Op: machine.FNEG, Dst: in.Dst, A: in.A})
		} else {
			emit(MOp{Op: machine.INEG, Dst: in.Dst, A: in.A})
		}
	case ir.Abs:
		if in.Kind == types.Float {
			emit(MOp{Op: machine.FABS, Dst: in.Dst, A: in.A})
		} else {
			emit(MOp{Op: machine.IABS, Dst: in.Dst, A: in.A})
		}
	case ir.Sqrt:
		emit(MOp{Op: machine.FSQRT, Dst: in.Dst, A: in.A})
	case ir.Not:
		emit(MOp{Op: machine.NOT, Dst: in.Dst, A: in.A})
	case ir.CvtIF:
		emit(MOp{Op: machine.CVTIF, Dst: in.Dst, A: in.A})
	case ir.CvtFI:
		emit(MOp{Op: machine.CVTFI, Dst: in.Dst, A: in.A})
	case ir.Load:
		emit(MOp{Op: machine.LOAD, Dst: in.Dst, A: in.A, Sym: in.Sym})
	case ir.Store:
		emit(MOp{Op: machine.STORE, A: in.A, B: in.B, Sym: in.Sym})
	case ir.Recv:
		op := machine.RECVX
		if in.Sym == "Y" {
			op = machine.RECVY
		}
		// Wire protocol: every queue word is an IEEE single. Receiving into
		// an int variable therefore inserts a truncating conversion, which
		// matches the reference interpreter's numeric channel semantics.
		if in.Kind == types.Int {
			tmp := mf.NewVReg()
			emit(MOp{Op: op, Dst: tmp})
			emit(MOp{Op: machine.CVTFI, Dst: in.Dst, A: tmp})
		} else {
			emit(MOp{Op: op, Dst: in.Dst})
		}
	case ir.Send:
		op := machine.SENDY
		if in.Sym == "X" {
			op = machine.SENDX
		}
		if in.Kind == types.Int {
			tmp := mf.NewVReg()
			emit(MOp{Op: machine.CVTIF, Dst: tmp, A: in.A})
			emit(MOp{Op: op, A: tmp})
		} else {
			emit(MOp{Op: op, A: in.A})
		}
	case ir.Ret:
		if mf.IsEntry {
			emit(MOp{Op: machine.HALT})
		} else {
			if in.A != ir.None {
				// Return value convention: r1. The MOV is emitted with a
				// pinned destination after allocation; here we mark it with
				// the special "ret" symbol understood by the allocator.
				emit(MOp{Op: machine.MOV, Dst: retValueMarker, A: in.A, Sym: "$retval"})
			}
			emit(MOp{Op: machine.RET})
		}
	case ir.Jmp:
		emit(MOp{Op: machine.JMP, Sym: BlockLabel(f.Name, in.Then.ID)})
	case ir.CondBr:
		emit(MOp{Op: machine.BT, A: in.A, Sym: BlockLabel(f.Name, in.Then.ID)})
		emit(MOp{Op: machine.JMP, Sym: BlockLabel(f.Name, in.Else.ID)})
	default:
		return fmt.Errorf("no selection rule for %s", in.Op)
	}
	return nil
}

// retValueMarker is a sentinel vreg id for the return-value MOV; the
// register allocator pins it to r1.
const retValueMarker ir.VReg = -1

// detectCountedLoops inspects every self-loop block and, when the loop is a
// rotated counted loop with compile-time-constant bounds, records the trip
// count for the software pipeliner. The analysis relies on virtual-register
// def counting: a register with exactly one LDI definition in the whole
// function is a known constant.
func detectCountedLoops(mf *MFunc) {
	// Gather definition counts and the single defining op of each
	// once-defined register.
	// Both tables are indexed by vreg; the $retval marker is not one.
	defCount := make([]int, mf.NumVRegs+1)
	singleDef := make([]*MOp, mf.NumVRegs+1)
	for _, b := range mf.Blocks {
		for i := range b.Ops {
			op := &b.Ops[i]
			if machine.Info(op.Op).HasDst && op.Dst > 0 {
				defCount[op.Dst]++
				singleDef[op.Dst] = op
			}
		}
	}
	// constOf resolves a register to a compile-time constant, following
	// chains of single-definition MOVs (local optimization leaves such a
	// copy when the loop bound is captured into a loop-invariant temp).
	constOf := func(r ir.VReg) (int32, bool) {
		for hops := 0; hops < 8; hops++ {
			if r <= 0 || defCount[r] != 1 {
				return 0, false
			}
			def := singleDef[r]
			switch def.Op {
			case machine.LDI:
				return def.Imm, true
			case machine.MOV:
				r = def.A
			default:
				return 0, false
			}
		}
		return 0, false
	}

	// opConst resolves the value produced by a definition op, if constant.
	opConst := func(op MOp) (int32, bool) {
		switch op.Op {
		case machine.LDI:
			return op.Imm, true
		case machine.MOV:
			return constOf(op.A)
		}
		return 0, false
	}

	// Predecessor map over block labels, for walking back from a loop to
	// the definition of its induction variable's initial value.
	byLabel := make(map[string]*MBlock, len(mf.Blocks))
	for _, b := range mf.Blocks {
		byLabel[b.Label] = b
	}
	preds := make(map[*MBlock][]*MBlock)
	for _, b := range mf.Blocks {
		for _, op := range b.Ops {
			if (op.Op == machine.JMP || op.Op == machine.BT || op.Op == machine.BF) && op.Sym != "" {
				if t := byLabel[op.Sym]; t != nil {
					preds[t] = append(preds[t], b)
				}
			}
		}
	}

	for _, b := range mf.Blocks {
		if !b.SelfLoop {
			continue
		}
		li := analyzeCountedLoop(mf, b, preds, constOf, opConst)
		if li != nil {
			b.Loop = li
		}
	}
}

// analyzeCountedLoop matches the rotated counted-loop pattern:
//
//	... body ...
//	iadd i, i, step        (IncIdx; i has exactly 2 defs: init LDI + this)
//	icmple/icmpge c, i, hi (CmpIdx; hi a known constant)
//	bt c, self             (BranchIdx)
//	jmp exit
//
// with i's other definition a known-constant LDI (the initial value) and
// step a known constant. Trip = floor((hi-init)/step) for the rotated form
// (body runs once before the first test), i.e. iterations = number of times
// the body executes = 1 + floor((hi - init - ... )); computed by direct
// simulation below to avoid sign errors.
func analyzeCountedLoop(mf *MFunc, b *MBlock, preds map[*MBlock][]*MBlock, constOf func(ir.VReg) (int32, bool), opConst func(MOp) (int32, bool)) *LoopInfo {
	n := len(b.Ops)
	if n < 4 {
		return nil
	}
	jmp := b.Ops[n-1]
	bt := b.Ops[n-2]
	if jmp.Op != machine.JMP || bt.Op != machine.BT || bt.Sym != b.Label {
		return nil
	}
	// Find the comparison defining the branch condition.
	cmpIdx := -1
	for i := n - 3; i >= 0; i-- {
		if b.Ops[i].Dst == bt.A {
			cmpIdx = i
			break
		}
	}
	if cmpIdx < 0 {
		return nil
	}
	cmp := b.Ops[cmpIdx]
	if cmp.Op != machine.ICMPLE && cmp.Op != machine.ICMPGE && cmp.Op != machine.ICMPLT && cmp.Op != machine.ICMPGT {
		return nil
	}
	// The condition must be defined exactly once in this block (loop
	// inversion legitimately duplicates the test into the preheader) and
	// used only by the loop-back branch.
	var ub [2]ir.VReg
	for i := 0; i < n; i++ {
		if i != cmpIdx && b.Ops[i].Dst == bt.A && machine.Info(b.Ops[i].Op).HasDst {
			return nil
		}
		if i != n-2 {
			for _, u := range opUses(&b.Ops[i], &ub) {
				if u == bt.A {
					return nil
				}
			}
		}
	}
	iReg := cmp.A
	hiVal, ok := constOf(cmp.B)
	if !ok {
		return nil
	}
	// The induction variable must have exactly one definition inside the
	// loop: the increment IADD i, i, step. (Its initial value may be set by
	// any number of definitions elsewhere — loop variables are commonly
	// reused — so the reaching definition is resolved by walking the
	// preheader chain below.)
	incIdx := -1
	for i := 0; i < n; i++ {
		op := b.Ops[i]
		if machine.Info(op.Op).HasDst && op.Dst == iReg {
			if op.Op != machine.IADD || op.A != iReg {
				return nil
			}
			if incIdx >= 0 {
				return nil // two defs inside the loop
			}
			incIdx = i
		}
	}
	if incIdx < 0 || incIdx > cmpIdx {
		return nil
	}
	stepVal, ok := constOf(b.Ops[incIdx].B)
	if !ok || stepVal == 0 {
		return nil
	}
	initVal, ok := reachingInitConst(b, preds, iReg, opConst)
	if !ok {
		return nil
	}
	// No other op may redefine the comparison's inputs between cmp and bt.
	for i := cmpIdx + 1; i < n-2; i++ {
		if b.Ops[i].Dst == bt.A || b.Ops[i].Dst == iReg {
			return nil
		}
	}

	// Simulate the rotated loop to count iterations (bounded).
	trip := 0
	i := initVal
	for trip < 1<<20 {
		trip++ // body executes
		i += stepVal
		var cont bool
		switch cmp.Op {
		case machine.ICMPLE:
			cont = i <= hiVal
		case machine.ICMPLT:
			cont = i < hiVal
		case machine.ICMPGE:
			cont = i >= hiVal
		case machine.ICMPGT:
			cont = i > hiVal
		}
		if !cont {
			break
		}
	}
	if trip >= 1<<20 {
		return nil
	}
	return &LoopInfo{
		Trip:       trip,
		CounterReg: iReg,
		BranchIdx:  n - 2,
		CmpIdx:     cmpIdx,
		IncIdx:     incIdx,
	}
}

// reachingInitConst resolves the value of r at the loop's entry by walking
// backward from the loop's unique preheader through single-predecessor
// blocks until a definition of r is found. Any ambiguity (several
// preheaders, merge points, depth limit) makes the loop non-analyzable.
func reachingInitConst(loop *MBlock, preds map[*MBlock][]*MBlock, r ir.VReg, opConst func(MOp) (int32, bool)) (int32, bool) {
	var pre *MBlock
	for _, p := range preds[loop] {
		if p == loop {
			continue
		}
		if pre != nil && pre != p {
			return 0, false // multiple preheaders
		}
		pre = p
	}
	if pre == nil {
		return 0, false
	}
	cur := pre
	for hops := 0; hops < 16 && cur != nil; hops++ {
		for i := len(cur.Ops) - 1; i >= 0; i-- {
			op := cur.Ops[i]
			if machine.Info(op.Op).HasDst && op.Dst == r {
				return opConst(op)
			}
		}
		var uniq *MBlock
		for _, p := range preds[cur] {
			if p == cur {
				continue
			}
			if uniq != nil && uniq != p {
				return 0, false
			}
			uniq = p
		}
		cur = uniq
	}
	return 0, false
}
