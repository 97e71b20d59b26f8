// Package ir defines the compiler's intermediate representation: a control
// flowgraph of basic blocks holding three-address instructions over virtual
// registers. Phase 2 of the compiler (flowgraph construction, local
// optimization, global dependency computation) and phase 3 (software
// pipelining and code generation) both operate on this representation.
//
// The IR is deliberately not SSA: it models the flowgraph-plus-dataflow
// style of late-1980s optimizing compilers. Scalar variables are bound to
// fixed virtual registers; temporaries get fresh ones. Arrays live in cell
// data memory and are accessed with Load/Store.
package ir

import (
	"fmt"

	"repro/internal/types"
)

// VReg is a virtual register. 0 is "none"; real registers start at 1.
type VReg int

// None marks an absent register operand.
const None VReg = 0

func (r VReg) String() string {
	if r == None {
		return "_"
	}
	return fmt.Sprintf("v%d", int(r))
}

// Op enumerates IR operations.
type Op int

const (
	Nop Op = iota

	// ConstI materializes an integer or boolean constant (ConstI field);
	// ConstF materializes a float constant (ConstF field).
	ConstI
	ConstF

	// Mov copies A to Dst.
	Mov

	// Arithmetic on Kind (Int or Float; Rem is Int-only).
	Add
	Sub
	Mul
	Div
	Rem
	Neg
	Abs
	Min
	Max
	Sqrt

	// Not complements a boolean (0/1) word.
	Not

	// Comparisons on operand Kind; Dst is boolean.
	CmpEQ
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE

	// Conversions.
	CvtIF // int -> float
	CvtFI // float -> int (truncate)

	// Load reads Sym[A] into Dst; Store writes B to Sym[A]. A is an integer
	// element index; Sym names a local array.
	Load
	Store

	// Recv dequeues from channel Sym ("X" or "Y") into Dst, converting the
	// word to Kind. Send enqueues A to channel Sym.
	Recv
	Send

	// Call invokes function Sym with Args; Dst receives the result (None
	// for void calls).
	Call

	// Terminators. Ret returns A (None for void). Jmp goes to Then.
	// CondBr branches on A to Then or Else.
	Ret
	Jmp
	CondBr
)

var opNames = map[Op]string{
	Nop: "nop", ConstI: "consti", ConstF: "constf", Mov: "mov",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	Neg: "neg", Abs: "abs", Min: "min", Max: "max", Sqrt: "sqrt",
	Not:   "not",
	CmpEQ: "cmpeq", CmpNE: "cmpne", CmpLT: "cmplt", CmpLE: "cmple",
	CmpGT: "cmpgt", CmpGE: "cmpge",
	CvtIF: "cvtif", CvtFI: "cvtfi",
	Load: "load", Store: "store", Recv: "recv", Send: "send",
	Call: "call", Ret: "ret", Jmp: "jmp", CondBr: "condbr",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsTerminator reports whether o ends a basic block.
func (o Op) IsTerminator() bool { return o == Ret || o == Jmp || o == CondBr }

// HasSideEffects reports whether an instruction with this op must not be
// removed even if its result is unused.
func (o Op) HasSideEffects() bool {
	switch o {
	case Store, Send, Recv, Call, Ret, Jmp, CondBr, Div, Rem:
		// Div and Rem can trap (divide by zero); Recv consumes queue input.
		return true
	}
	return false
}

// IsCommutative reports whether the operands of o may be swapped.
func (o Op) IsCommutative() bool {
	switch o {
	case Add, Mul, Min, Max, CmpEQ, CmpNE:
		return true
	}
	return false
}

// Instr is one three-address instruction.
type Instr struct {
	Op     Op
	Kind   types.Kind // operand kind for arithmetic/comparison/recv
	Dst    VReg
	A, B   VReg
	ConstI int64
	ConstF float64
	Sym    string
	Args   []VReg
	// Then and Else are branch targets: Jmp uses Then; CondBr uses both.
	Then, Else *Block
}

// Uses returns the virtual registers read by the instruction.
func (in *Instr) Uses() []VReg { return in.AppendUses(nil) }

// AppendUses appends the virtual registers read by the instruction to dst
// and returns it. A loop over many instructions passes buf[:0] of one small
// array each time and so visits them without allocating.
func (in *Instr) AppendUses(dst []VReg) []VReg {
	if in.A != None {
		dst = append(dst, in.A)
	}
	if in.B != None {
		dst = append(dst, in.B)
	}
	return append(dst, in.Args...)
}

// Def returns the register written by the instruction, or None.
func (in *Instr) Def() VReg {
	return in.Dst
}

func (in *Instr) String() string {
	s := ""
	if in.Dst != None {
		s = in.Dst.String() + " = "
	}
	s += in.Op.String()
	switch in.Op {
	case ConstI:
		s += fmt.Sprintf(" %d", in.ConstI)
	case ConstF:
		s += fmt.Sprintf(" %g", in.ConstF)
	case Load:
		s += fmt.Sprintf(" %s[%s]", in.Sym, in.A)
		return s
	case Store:
		return fmt.Sprintf("store %s[%s] = %s", in.Sym, in.A, in.B)
	case Recv:
		s += " " + in.Sym
	case Send:
		return fmt.Sprintf("send %s %s", in.Sym, in.A)
	case Call:
		s += " " + in.Sym + "("
		for i, a := range in.Args {
			if i > 0 {
				s += ", "
			}
			s += a.String()
		}
		s += ")"
		return s
	case Jmp:
		return fmt.Sprintf("jmp b%d", in.Then.ID)
	case CondBr:
		return fmt.Sprintf("condbr %s b%d b%d", in.A, in.Then.ID, in.Else.ID)
	case Ret:
		if in.A != None {
			return "ret " + in.A.String()
		}
		return "ret"
	default:
		if in.A != None {
			s += " " + in.A.String()
		}
		if in.B != None {
			s += " " + in.B.String()
		}
	}
	return s
}

// Block is a basic block. The final instruction is always a terminator.
type Block struct {
	ID     int
	Instrs []Instr
	Preds  []*Block
	Succs  []*Block
}

// Term returns the block's terminator instruction, or nil if the block is
// not yet terminated (only during construction).
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := &b.Instrs[len(b.Instrs)-1]
	if !last.Op.IsTerminator() {
		return nil
	}
	return last
}

// ArrayVar is a function-local array allocated in cell data memory.
type ArrayVar struct {
	Sym   string // unique symbol within the function
	Words int    // total element count
	Kind  types.Kind
}

// Func is one function's flowgraph — the unit of work handed to a function
// master in the parallel compiler.
type Func struct {
	Name    string
	Section int // 1-based section index
	Blocks  []*Block
	Params  []VReg
	// ResultKind is the function's result kind (Void for none).
	ResultKind types.Kind
	Arrays     []ArrayVar

	// kinds[v] is the value kind of virtual register v (index 0 unused).
	kinds []types.Kind
}

// NewFunc returns an empty function with an entry block.
func NewFunc(name string, section int) *Func {
	f := &Func{Name: name, Section: section, ResultKind: types.Void, kinds: make([]types.Kind, 1)}
	f.NewBlock()
	return f
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NewBlock appends a fresh empty block.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewVReg allocates a virtual register of the given kind.
func (f *Func) NewVReg(k types.Kind) VReg {
	f.kinds = append(f.kinds, k)
	return VReg(len(f.kinds) - 1)
}

// KindOf returns the value kind of v.
func (f *Func) KindOf(v VReg) types.Kind {
	if v <= 0 || int(v) >= len(f.kinds) {
		return types.Invalid
	}
	return f.kinds[v]
}

// NumVRegs returns the number of allocated virtual registers (vreg ids are
// 1..NumVRegs).
func (f *Func) NumVRegs() int { return len(f.kinds) - 1 }

// NumInstrs returns the total instruction count, a work metric used by the
// compile-cost model.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// AddEdge records a CFG edge from b to s.
func AddEdge(b, s *Block) {
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
}

// RecomputeEdges rebuilds all Preds/Succs from the terminators. Passes that
// restructure terminators call this instead of patching edges by hand.
func (f *Func) RecomputeEdges() {
	for _, b := range f.Blocks {
		b.Preds = b.Preds[:0]
		b.Succs = b.Succs[:0]
	}
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			continue
		}
		switch t.Op {
		case Jmp:
			AddEdge(b, t.Then)
		case CondBr:
			AddEdge(b, t.Then)
			if t.Else != t.Then {
				AddEdge(b, t.Else)
			}
		}
	}
}

// RemoveUnreachable deletes blocks not reachable from the entry and
// renumbers the survivors. It returns the number of removed blocks.
func (f *Func) RemoveUnreachable() int {
	// Number the blocks by position first, so a flag per position can stand
	// for a set of blocks: this runs once per merged block pair, and a map
	// per run was most of what it cost. The survivors are renumbered below
	// either way.
	for i, b := range f.Blocks {
		b.ID = i
	}
	reach := make([]bool, len(f.Blocks))
	stack := make([]*Block, 0, len(f.Blocks))
	stack = append(stack, f.Entry())
	reach[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t := b.Term()
		if t == nil {
			continue
		}
		for _, s := range [...]*Block{t.Then, t.Else} {
			// A target that is not one of f's blocks cannot be kept anyway.
			if s != nil && uint(s.ID) < uint(len(f.Blocks)) && f.Blocks[s.ID] == s && !reach[s.ID] {
				reach[s.ID] = true
				stack = append(stack, s)
			}
		}
	}
	kept := f.Blocks[:0]
	removed := 0
	for i, b := range f.Blocks {
		if reach[i] {
			kept = append(kept, b)
		} else {
			removed++
		}
	}
	f.Blocks = kept
	for i, b := range f.Blocks {
		b.ID = i
	}
	f.RecomputeEdges()
	return removed
}

// String renders the function as readable IR text.
func (f *Func) String() string {
	s := fmt.Sprintf("func %s (section %d)", f.Name, f.Section)
	if len(f.Params) > 0 {
		s += " params"
		for _, p := range f.Params {
			s += " " + p.String()
		}
	}
	s += "\n"
	for _, a := range f.Arrays {
		s += fmt.Sprintf("  array %s[%d]\n", a.Sym, a.Words)
	}
	for _, b := range f.Blocks {
		s += fmt.Sprintf("b%d:", b.ID)
		if len(b.Preds) > 0 {
			s += " ; preds"
			for _, p := range b.Preds {
				s += fmt.Sprintf(" b%d", p.ID)
			}
		}
		s += "\n"
		for i := range b.Instrs {
			s += "  " + b.Instrs[i].String() + "\n"
		}
	}
	return s
}

// Validate checks structural invariants: every block terminated, branch
// targets within the function, operand vregs allocated, edges consistent.
// It returns the first problem found, or nil.
func (f *Func) Validate() error {
	inFunc := make(map[*Block]bool)
	for _, b := range f.Blocks {
		inFunc[b] = true
	}
	var uses [8]VReg
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("func %s: block b%d is empty", f.Name, b.ID)
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op.IsTerminator() && i != len(b.Instrs)-1 {
				return fmt.Errorf("func %s: b%d has terminator %s mid-block", f.Name, b.ID, in)
			}
			for _, u := range in.AppendUses(uses[:0]) {
				if int(u) >= len(f.kinds) {
					return fmt.Errorf("func %s: b%d uses unallocated vreg %s in %q", f.Name, b.ID, u, in)
				}
			}
			if int(in.Dst) >= len(f.kinds) {
				return fmt.Errorf("func %s: b%d defines unallocated vreg %s", f.Name, b.ID, in.Dst)
			}
			for _, tgt := range []*Block{in.Then, in.Else} {
				if tgt != nil && !inFunc[tgt] {
					return fmt.Errorf("func %s: b%d branches outside the function", f.Name, b.ID)
				}
			}
		}
		if b.Term() == nil {
			return fmt.Errorf("func %s: block b%d lacks a terminator", f.Name, b.ID)
		}
	}
	return nil
}
