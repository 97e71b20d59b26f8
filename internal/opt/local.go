package opt

import (
	"math"

	"repro/internal/ir"
	"repro/internal/types"
)

// Local optimization: within each basic block, perform constant folding and
// propagation, copy propagation, algebraic simplification, and common-
// subexpression elimination by value numbering. The implementation is
// version-based because the IR is not SSA: every redefinition of a virtual
// register invalidates facts recorded about it.

// constVal is a compile-time constant.
type constVal struct {
	isF bool
	i   int64
	f   float64
}

// vver is a versioned virtual register: facts are keyed by (reg, version)
// so that redefinitions invalidate them implicitly.
type vver struct {
	r ir.VReg
	v int
}

// LocalStats counts what local optimization changed.
type LocalStats struct {
	Folded     int // instructions replaced by constants
	CopyProp   int // operand uses rewritten to an earlier copy/constant source
	CSE        int // instructions replaced by Mov from an equal value
	Simplified int // algebraic identities applied
}

// Add accumulates other into s.
func (s *LocalStats) Add(other LocalStats) {
	s.Folded += other.Folded
	s.CopyProp += other.CopyProp
	s.CSE += other.CSE
	s.Simplified += other.Simplified
}

// localOptimize runs local optimization on every block of f, reusing sc's
// tables, and returns the combined statistics.
func localOptimize(f *ir.Func, sc *localScratch) LocalStats {
	var stats LocalStats
	for _, b := range f.Blocks {
		stats.Add(localBlock(b, sc))
	}
	return stats
}

// localScratch is the fact tables of one block's local optimization. Facts
// never cross a block boundary, so localBlock clears the tables and reuses
// them for the next block; the scratch belongs to the goroutine optimizing
// the function.
type localScratch struct {
	ver    map[ir.VReg]int   // current version of each vreg
	consts map[vver]constVal // known constant values
	copies map[vver]vver     // copy source (canonical)
	exprs  map[exprKeyT]vver // value-number table: expression -> holder
}

func newLocalScratch() *localScratch {
	return &localScratch{
		ver:    make(map[ir.VReg]int),
		consts: make(map[vver]constVal),
		copies: make(map[vver]vver),
		exprs:  make(map[exprKeyT]vver),
	}
}

func localBlock(b *ir.Block, sc *localScratch) LocalStats {
	var stats LocalStats

	clear(sc.ver)
	clear(sc.consts)
	clear(sc.copies)
	clear(sc.exprs)
	ver, consts, copies, exprs := sc.ver, sc.consts, sc.copies, sc.exprs
	memEpoch := 0 // bumped by stores; part of load keys

	cur := func(r ir.VReg) vver { return vver{r, ver[r]} }

	// canon follows copy chains to the oldest still-valid source.
	canon := func(x vver) vver {
		for {
			src, ok := copies[x]
			if !ok {
				return x
			}
			// The source must still hold the same value.
			if cur(src.r) != src {
				return x
			}
			x = src
		}
	}

	for idx := range b.Instrs {
		in := &b.Instrs[idx]

		// 1. Copy-propagate operands.
		rewrite := func(r *ir.VReg) {
			if *r == ir.None {
				return
			}
			c := canon(cur(*r))
			if c.r != *r {
				*r = c.r
				stats.CopyProp++
			}
		}
		rewrite(&in.A)
		rewrite(&in.B)
		for i := range in.Args {
			rewrite(&in.Args[i])
		}

		// 2. Try constant folding.
		if folded := tryFold(in, consts, cur); folded {
			stats.Folded++
		} else if simplified := trySimplify(in, consts, cur); simplified {
			stats.Simplified++
		}

		// 3. CSE on pure instructions. A miss records the key after the
		// destination's version bump below, so the table entry refers to the
		// new value.
		var recordKey exprKeyT
		record := false
		if isPure(in.Op) && in.Dst != ir.None {
			key := exprKey(in, cur, memEpoch)
			if holder, ok := exprs[key]; ok && cur(holder.r) == holder && holder.r != in.Dst {
				*in = ir.Instr{Op: ir.Mov, Kind: in.Kind, Dst: in.Dst, A: holder.r}
				stats.CSE++
			} else {
				recordKey, record = key, true
			}
		}

		// 4. Account for effects.
		if in.Op == ir.Store {
			memEpoch++
		}

		// 5. Version the definition and record facts about it.
		if dst := in.Def(); dst != ir.None {
			ver[dst]++
			dv := cur(dst)
			delete(consts, dv)
			delete(copies, dv)
			switch in.Op {
			case ir.ConstI:
				consts[dv] = constVal{i: in.ConstI}
			case ir.ConstF:
				consts[dv] = constVal{isF: true, f: in.ConstF}
			case ir.Mov:
				src := canon(cur(in.A))
				copies[dv] = src
				if cv, ok := consts[src]; ok {
					consts[dv] = cv
				}
			}
			if record {
				exprs[recordKey] = dv
			}
		}
	}
	return stats
}

// isPure reports whether the op computes a value without side effects and
// without reading mutable state other than its operands (Load reads memory
// and is handled via the memory epoch in its key).
func isPure(op ir.Op) bool {
	switch op {
	case ir.ConstI, ir.ConstF, ir.Add, ir.Sub, ir.Mul, ir.Neg, ir.Abs,
		ir.Min, ir.Max, ir.Sqrt, ir.Not, ir.CmpEQ, ir.CmpNE, ir.CmpLT,
		ir.CmpLE, ir.CmpGT, ir.CmpGE, ir.CvtIF, ir.CvtFI, ir.Load:
		return true
	}
	return false
}

// exprKeyT identifies a pure expression's value within a block: two
// instructions with equal keys compute the same value.
type exprKeyT struct {
	op     ir.Op
	kind   types.Kind
	a, b   vver
	constI int64
	constF uint64 // bit pattern, so that -0 and +0 stay distinct constants
	sym    string
	mem    int // memory epoch, for loads
}

func exprKey(in *ir.Instr, cur func(ir.VReg) vver, memEpoch int) exprKeyT {
	a, b := vver{}, vver{}
	if in.A != ir.None {
		a = cur(in.A)
	}
	if in.B != ir.None {
		b = cur(in.B)
	}
	// Normalize commutative operand order.
	if in.Op.IsCommutative() {
		if b.r != ir.None && (a.r > b.r || (a.r == b.r && a.v > b.v)) {
			a, b = b, a
		}
	}
	f := in.ConstF
	if f != f {
		f = math.NaN() // one key for every NaN, whatever its payload
	}
	key := exprKeyT{op: in.Op, kind: in.Kind, a: a, b: b, constI: in.ConstI, constF: math.Float64bits(f), sym: in.Sym}
	if in.Op == ir.Load {
		key.mem = memEpoch
	}
	return key
}

// tryFold replaces in with a constant when all operands are known constants
// and the operation cannot trap. It reports whether it folded.
func tryFold(in *ir.Instr, consts map[vver]constVal, cur func(ir.VReg) vver) bool {
	getC := func(r ir.VReg) (constVal, bool) {
		if r == ir.None {
			return constVal{}, false
		}
		cv, ok := consts[cur(r)]
		return cv, ok
	}

	setI := func(v int64) {
		*in = ir.Instr{Op: ir.ConstI, Kind: in.Kind, Dst: in.Dst, ConstI: v}
	}
	setF := func(v float64) {
		*in = ir.Instr{Op: ir.ConstF, Kind: types.Float, Dst: in.Dst, ConstF: v}
	}
	setB := func(v bool) {
		n := int64(0)
		if v {
			n = 1
		}
		*in = ir.Instr{Op: ir.ConstI, Kind: types.Bool, Dst: in.Dst, ConstI: n}
	}

	switch in.Op {
	case ir.Mov:
		if cv, ok := getC(in.A); ok {
			if cv.isF {
				setF(cv.f)
			} else {
				setI(cv.i)
			}
			return true
		}
	case ir.Neg:
		if cv, ok := getC(in.A); ok {
			if in.Kind == types.Float {
				setF(-cv.f)
			} else {
				setI(-cv.i)
			}
			return true
		}
	case ir.Abs:
		if cv, ok := getC(in.A); ok {
			if in.Kind == types.Float {
				f := cv.f
				if f < 0 {
					f = -f
				}
				setF(f)
			} else {
				v := cv.i
				if v < 0 {
					v = -v
				}
				setI(v)
			}
			return true
		}
	case ir.Not:
		if cv, ok := getC(in.A); ok {
			setB(cv.i == 0)
			return true
		}
	case ir.CvtIF:
		if cv, ok := getC(in.A); ok {
			setF(float64(cv.i))
			return true
		}
	case ir.CvtFI:
		if cv, ok := getC(in.A); ok {
			setI(int64(cv.f))
			return true
		}
	case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.Min, ir.Max:
		ca, okA := getC(in.A)
		cb, okB := getC(in.B)
		if !okA || !okB {
			return false
		}
		if in.Kind == types.Float {
			a, b := ca.f, cb.f
			switch in.Op {
			case ir.Add:
				setF(a + b)
			case ir.Sub:
				setF(a - b)
			case ir.Mul:
				setF(a * b)
			case ir.Div:
				setF(a / b)
			case ir.Min:
				if a < b {
					setF(a)
				} else {
					setF(b)
				}
			case ir.Max:
				if a > b {
					setF(a)
				} else {
					setF(b)
				}
			default:
				return false
			}
			return true
		}
		a, b := ca.i, cb.i
		switch in.Op {
		case ir.Add:
			setI(a + b)
		case ir.Sub:
			setI(a - b)
		case ir.Mul:
			setI(a * b)
		case ir.Div:
			if b == 0 {
				return false // preserve the runtime trap
			}
			setI(a / b)
		case ir.Rem:
			if b == 0 {
				return false
			}
			setI(a % b)
		case ir.Min:
			if a < b {
				setI(a)
			} else {
				setI(b)
			}
		case ir.Max:
			if a > b {
				setI(a)
			} else {
				setI(b)
			}
		}
		return true
	case ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE:
		ca, okA := getC(in.A)
		cb, okB := getC(in.B)
		if !okA || !okB {
			return false
		}
		var r bool
		if in.Kind == types.Float {
			a, b := ca.f, cb.f
			switch in.Op {
			case ir.CmpEQ:
				r = a == b
			case ir.CmpNE:
				r = a != b
			case ir.CmpLT:
				r = a < b
			case ir.CmpLE:
				r = a <= b
			case ir.CmpGT:
				r = a > b
			case ir.CmpGE:
				r = a >= b
			}
		} else {
			a, b := ca.i, cb.i
			switch in.Op {
			case ir.CmpEQ:
				r = a == b
			case ir.CmpNE:
				r = a != b
			case ir.CmpLT:
				r = a < b
			case ir.CmpLE:
				r = a <= b
			case ir.CmpGT:
				r = a > b
			case ir.CmpGE:
				r = a >= b
			}
		}
		setB(r)
		return true
	case ir.Sqrt:
		if cv, ok := getC(in.A); ok && cv.f >= 0 {
			*in = ir.Instr{Op: ir.ConstF, Kind: types.Float, Dst: in.Dst, ConstF: sqrtConst(cv.f)}
			return true
		}
	}
	return false
}

func sqrtConst(x float64) float64 {
	// Newton iteration, not math.Sqrt: folded constants, and so compiled
	// output, must stay bit-identical to what this iteration has always
	// produced.
	if x == 0 {
		return 0
	}
	z := x
	for i := 0; i < 64; i++ {
		nz := (z + x/z) / 2
		if nz == z {
			break
		}
		z = nz
	}
	return z
}

// trySimplify applies algebraic identities with one constant operand.
// Integer-only where float semantics (signed zero, NaN) would differ.
func trySimplify(in *ir.Instr, consts map[vver]constVal, cur func(ir.VReg) vver) bool {
	getC := func(r ir.VReg) (constVal, bool) {
		if r == ir.None {
			return constVal{}, false
		}
		cv, ok := consts[cur(r)]
		return cv, ok
	}
	toMov := func(src ir.VReg) {
		*in = ir.Instr{Op: ir.Mov, Kind: in.Kind, Dst: in.Dst, A: src}
	}
	if in.Kind != types.Int {
		return false
	}
	ca, okA := getC(in.A)
	cb, okB := getC(in.B)
	switch in.Op {
	case ir.Add:
		if okB && cb.i == 0 {
			toMov(in.A)
			return true
		}
		if okA && ca.i == 0 {
			toMov(in.B)
			return true
		}
	case ir.Sub:
		if okB && cb.i == 0 {
			toMov(in.A)
			return true
		}
	case ir.Mul:
		if okB && cb.i == 1 {
			toMov(in.A)
			return true
		}
		if okA && ca.i == 1 {
			toMov(in.B)
			return true
		}
		if (okB && cb.i == 0) || (okA && ca.i == 0) {
			*in = ir.Instr{Op: ir.ConstI, Kind: in.Kind, Dst: in.Dst}
			return true
		}
	case ir.Div:
		if okB && cb.i == 1 {
			toMov(in.A)
			return true
		}
	}
	return false
}
