package ir

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/sem"
	"repro/internal/types"
)

// Lower translates one checked function into its flowgraph. This is the
// front half of compiler phase 2. The module must have passed sem.Check
// without errors; Lower returns an error only on internal inconsistencies.
func Lower(fn *ast.FuncDecl, info *sem.Info) (*Func, error) {
	lw := &lowerer{
		f:      NewFunc(fn.Name, fn.SectionIndex),
		info:   info,
		vars:   make(map[*sem.Object]VReg),
		arrays: make(map[*sem.Object]string),
		arena:  make([]Instr, 0, estimateInstrs(fn, info)),
	}
	lw.cur = lw.f.Entry()

	if fn.Sig != nil {
		if b, ok := fn.Sig.Result.(*types.Basic); ok {
			lw.f.ResultKind = b.Kind
		}
	}

	// Bind parameters and locals. Parameters come first in the locals list
	// (declaration order); scalars map to fixed vregs, arrays to data-memory
	// symbols.
	for _, obj := range info.Locals[fn] {
		switch t := obj.Type.(type) {
		case *types.Basic:
			v := lw.f.NewVReg(t.Kind)
			lw.vars[obj] = v
			if obj.Kind == sem.ParamObj {
				lw.f.Params = append(lw.f.Params, v)
			} else {
				// Locals start at zero, like the cell's cleared data memory.
				lw.emit(Instr{Op: zeroConstOp(t.Kind), Kind: t.Kind, Dst: v})
			}
		case *types.Array:
			sym := fmt.Sprintf("%s$%d", obj.Name, len(lw.f.Arrays))
			lw.arrays[obj] = sym
			ek := types.Float
			if b, ok := t.ScalarElem().(*types.Basic); ok {
				ek = b.Kind
			}
			lw.f.Arrays = append(lw.f.Arrays, ArrayVar{Sym: sym, Words: t.TotalLen(), Kind: ek})
		}
	}

	if err := lw.block(fn.Body); err != nil {
		return nil, err
	}
	// Fall off the end of a void function: implicit return.
	if lw.cur.Term() == nil {
		lw.emit(Instr{Op: Ret})
	}
	lw.f.RemoveUnreachable()
	if err := lw.f.Validate(); err != nil {
		return nil, fmt.Errorf("lowering %s produced invalid IR: %w", fn.Name, err)
	}
	return lw.f, nil
}

func zeroConstOp(k types.Kind) Op {
	if k == types.Float {
		return ConstF
	}
	return ConstI
}

type loopTargets struct {
	cont *Block // continue target (loop increment / header)
	brk  *Block // break target (loop exit)
}

type lowerer struct {
	f      *Func
	info   *sem.Info
	cur    *Block
	vars   map[*sem.Object]VReg
	arrays map[*sem.Object]string
	loops  []loopTargets

	// arena is one array, sized from an estimate of the function's
	// instruction count, that the blocks' Instrs are carved from: lowering
	// fills one block at a time, so each grows in place at the arena's tail
	// (the block there is tail) instead of doubling a slice of its own. Every
	// block's slice has cap == len, so a later append to it copies out and
	// cannot reach its neighbour.
	arena []Instr
	tail  *Block
}

// estimateInstrs predicts how many instructions lowering fn emits: about one
// per statement and per non-identifier expression (a scalar identifier is a
// register, not an instruction), a handful per loop for its bounds, step and
// test, and one zero-initialization per local. An estimate that falls short
// costs only the ordinary slice growth it was meant to avoid.
func estimateInstrs(fn *ast.FuncDecl, info *sem.Info) int {
	n := len(info.Locals[fn]) + 8
	ast.Inspect(fn.Body, func(node ast.Node) bool {
		switch node.(type) {
		case *ast.Ident:
		case *ast.For, *ast.While:
			n += 6
		case ast.Expr, ast.Stmt:
			n++
		}
		return true
	})
	return n
}

func (lw *lowerer) emit(in Instr) {
	if lw.cur.Term() != nil {
		// Statements after a terminator are unreachable; collect them in a
		// detached block that RemoveUnreachable deletes.
		lw.cur = lw.f.NewBlock()
	}
	b := lw.cur
	n := len(b.Instrs)
	if (n == 0 || b == lw.tail) && len(lw.arena) < cap(lw.arena) {
		lw.arena = append(lw.arena, in)
		end := len(lw.arena)
		b.Instrs = lw.arena[end-n-1 : end : end]
		lw.tail = b
		return
	}
	// A block resumed after another took the tail, or the estimate ran out.
	if b == lw.tail {
		lw.tail = nil
	}
	b.Instrs = append(b.Instrs, in)
}

// terminate emits a terminator and switches to a new current block.
func (lw *lowerer) jumpTo(b *Block) {
	if lw.cur.Term() == nil {
		lw.emit(Instr{Op: Jmp, Then: b})
	}
}

func (lw *lowerer) condBr(cond VReg, then, els *Block) {
	if lw.cur.Term() == nil {
		lw.emit(Instr{Op: CondBr, A: cond, Then: then, Else: els})
	}
}

func (lw *lowerer) use(b *Block) { lw.cur = b }

func exprKind(e ast.Expr) types.Kind {
	if b, ok := e.Type().(*types.Basic); ok {
		return b.Kind
	}
	return types.Invalid
}

// ---------------------------------------------------------------------------
// Statements

func (lw *lowerer) block(b *ast.Block) error {
	for _, s := range b.Stmts {
		if err := lw.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (lw *lowerer) stmt(s ast.Stmt) error {
	switch s := s.(type) {
	case *ast.Block:
		return lw.block(s)
	case *ast.VarDecl:
		if s.Init == nil {
			return nil
		}
		v, err := lw.expr(s.Init)
		if err != nil {
			return err
		}
		obj := lw.objForDecl(s)
		if obj == nil {
			return fmt.Errorf("no object for declaration of %s", s.Name)
		}
		lw.emit(Instr{Op: Mov, Kind: exprKind(s.Init), Dst: lw.vars[obj], A: v})
		return nil
	case *ast.Assign:
		v, err := lw.expr(s.RHS)
		if err != nil {
			return err
		}
		return lw.store(s.LHS, v)
	case *ast.If:
		return lw.ifStmt(s)
	case *ast.While:
		return lw.whileStmt(s)
	case *ast.For:
		return lw.forStmt(s)
	case *ast.Return:
		if s.Value == nil {
			lw.emit(Instr{Op: Ret})
			return nil
		}
		v, err := lw.expr(s.Value)
		if err != nil {
			return err
		}
		lw.emit(Instr{Op: Ret, A: v, Kind: exprKind(s.Value)})
		return nil
	case *ast.ExprStmt:
		_, err := lw.expr(s.X)
		return err
	case *ast.Receive:
		k := exprKind(s.LHS)
		dst := lw.f.NewVReg(k)
		lw.emit(Instr{Op: Recv, Kind: k, Dst: dst, Sym: s.Chan})
		return lw.store(s.LHS, dst)
	case *ast.Send:
		v, err := lw.expr(s.Value)
		if err != nil {
			return err
		}
		lw.emit(Instr{Op: Send, Kind: exprKind(s.Value), A: v, Sym: s.Chan})
		return nil
	case *ast.Break:
		if len(lw.loops) == 0 {
			return fmt.Errorf("break outside loop escaped the checker")
		}
		lw.jumpTo(lw.loops[len(lw.loops)-1].brk)
		return nil
	case *ast.Continue:
		if len(lw.loops) == 0 {
			return fmt.Errorf("continue outside loop escaped the checker")
		}
		lw.jumpTo(lw.loops[len(lw.loops)-1].cont)
		return nil
	}
	return fmt.Errorf("unknown statement %T", s)
}

func (lw *lowerer) objForDecl(d *ast.VarDecl) *sem.Object {
	for obj := range lw.vars {
		if obj.Decl == d {
			return obj
		}
	}
	for obj := range lw.arrays {
		if obj.Decl == d {
			return obj
		}
	}
	return nil
}

func (lw *lowerer) ifStmt(s *ast.If) error {
	thenB := lw.f.NewBlock()
	exitB := lw.f.NewBlock()
	elseB := exitB
	if s.Else != nil {
		elseB = lw.f.NewBlock()
	}
	cond, err := lw.expr(s.Cond)
	if err != nil {
		return err
	}
	lw.condBr(cond, thenB, elseB)

	lw.use(thenB)
	if err := lw.block(s.Then); err != nil {
		return err
	}
	lw.jumpTo(exitB)

	if s.Else != nil {
		lw.use(elseB)
		if err := lw.stmt(s.Else); err != nil {
			return err
		}
		lw.jumpTo(exitB)
	}
	lw.use(exitB)
	return nil
}

func (lw *lowerer) whileStmt(s *ast.While) error {
	header := lw.f.NewBlock()
	body := lw.f.NewBlock()
	exit := lw.f.NewBlock()

	lw.jumpTo(header)
	lw.use(header)
	cond, err := lw.expr(s.Cond)
	if err != nil {
		return err
	}
	lw.condBr(cond, body, exit)

	lw.loops = append(lw.loops, loopTargets{cont: header, brk: exit})
	lw.use(body)
	if err := lw.block(s.Body); err != nil {
		return err
	}
	lw.jumpTo(header)
	lw.loops = lw.loops[:len(lw.loops)-1]

	lw.use(exit)
	return nil
}

func (lw *lowerer) forStmt(s *ast.For) error {
	obj := lw.info.Uses[s.Var]
	if obj == nil {
		return fmt.Errorf("unresolved loop variable %s", s.Var.Name)
	}
	iv, ok := lw.vars[obj]
	if !ok {
		return fmt.Errorf("loop variable %s has no vreg", s.Var.Name)
	}

	lo, err := lw.expr(s.Lo)
	if err != nil {
		return err
	}
	hi, err := lw.expr(s.Hi)
	if err != nil {
		return err
	}
	// Copy the bound into a loop-invariant temporary in case the source
	// expression names a variable mutated in the body.
	hiT := lw.f.NewVReg(types.Int)
	lw.emit(Instr{Op: Mov, Kind: types.Int, Dst: hiT, A: hi})

	stepConst := int64(1)
	stepKnown := true
	var stepT VReg
	if s.Step != nil {
		if lit, ok := s.Step.(*ast.IntLit); ok {
			stepConst = lit.Value
		} else if u, ok := s.Step.(*ast.UnaryExpr); ok {
			if lit, ok := u.X.(*ast.IntLit); ok {
				stepConst = -lit.Value
			} else {
				stepKnown = false
			}
		} else {
			stepKnown = false
		}
		sv, err := lw.expr(s.Step)
		if err != nil {
			return err
		}
		stepT = lw.f.NewVReg(types.Int)
		lw.emit(Instr{Op: Mov, Kind: types.Int, Dst: stepT, A: sv})
	} else {
		stepT = lw.f.NewVReg(types.Int)
		lw.emit(Instr{Op: ConstI, Kind: types.Int, Dst: stepT, ConstI: 1})
	}

	lw.emit(Instr{Op: Mov, Kind: types.Int, Dst: iv, A: lo})

	header := lw.f.NewBlock()
	body := lw.f.NewBlock()
	incr := lw.f.NewBlock()
	exit := lw.f.NewBlock()

	lw.jumpTo(header)
	lw.use(header)
	if stepKnown {
		cmpOp := CmpLE
		if stepConst < 0 {
			cmpOp = CmpGE
		}
		c := lw.f.NewVReg(types.Bool)
		lw.emit(Instr{Op: cmpOp, Kind: types.Int, Dst: c, A: iv, B: hiT})
		lw.condBr(c, body, exit)
	} else {
		// Direction depends on the runtime sign of the step:
		// if step > 0 then continue while i <= hi else while i >= hi.
		posHdr := lw.f.NewBlock()
		negHdr := lw.f.NewBlock()
		zero := lw.f.NewVReg(types.Int)
		lw.emit(Instr{Op: ConstI, Kind: types.Int, Dst: zero})
		sp := lw.f.NewVReg(types.Bool)
		lw.emit(Instr{Op: CmpGT, Kind: types.Int, Dst: sp, A: stepT, B: zero})
		lw.condBr(sp, posHdr, negHdr)
		lw.use(posHdr)
		c1 := lw.f.NewVReg(types.Bool)
		lw.emit(Instr{Op: CmpLE, Kind: types.Int, Dst: c1, A: iv, B: hiT})
		lw.condBr(c1, body, exit)
		lw.use(negHdr)
		c2 := lw.f.NewVReg(types.Bool)
		lw.emit(Instr{Op: CmpGE, Kind: types.Int, Dst: c2, A: iv, B: hiT})
		lw.condBr(c2, body, exit)
	}

	lw.loops = append(lw.loops, loopTargets{cont: incr, brk: exit})
	lw.use(body)
	if err := lw.block(s.Body); err != nil {
		return err
	}
	lw.jumpTo(incr)
	lw.loops = lw.loops[:len(lw.loops)-1]

	lw.use(incr)
	lw.emit(Instr{Op: Add, Kind: types.Int, Dst: iv, A: iv, B: stepT})
	lw.jumpTo(header)

	lw.use(exit)
	return nil
}

// store writes v to an lvalue.
func (lw *lowerer) store(lhs ast.Expr, v VReg) error {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		obj := lw.info.Uses[lhs]
		if obj == nil {
			return fmt.Errorf("unresolved identifier %s", lhs.Name)
		}
		lw.emit(Instr{Op: Mov, Kind: exprKind(lhs), Dst: lw.vars[obj], A: v})
		return nil
	case *ast.IndexExpr:
		sym, idx, ek, err := lw.flatIndex(lhs)
		if err != nil {
			return err
		}
		lw.emit(Instr{Op: Store, Kind: ek, Sym: sym, A: idx, B: v})
		return nil
	}
	return fmt.Errorf("bad assignment target %T", lhs)
}

// flatIndex lowers a (possibly multi-dimensional) index expression to the
// array symbol and a flat element index in a vreg.
func (lw *lowerer) flatIndex(e *ast.IndexExpr) (sym string, idx VReg, elemKind types.Kind, err error) {
	var idxs []ast.Expr
	x := ast.Expr(e)
	for {
		ie, ok := x.(*ast.IndexExpr)
		if !ok {
			break
		}
		idxs = append([]ast.Expr{ie.Index}, idxs...)
		x = ie.X
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return "", None, types.Invalid, fmt.Errorf("indexed expression is not a variable")
	}
	obj := lw.info.Uses[id]
	if obj == nil {
		return "", None, types.Invalid, fmt.Errorf("unresolved identifier %s", id.Name)
	}
	sym, ok = lw.arrays[obj]
	if !ok {
		return "", None, types.Invalid, fmt.Errorf("%s is not an array", id.Name)
	}
	arr := obj.Type.(*types.Array)
	if b, ok := arr.ScalarElem().(*types.Basic); ok {
		elemKind = b.Kind
	}

	// off = ((i0 * d1 + i1) * d2 + i2) ...
	t := types.Type(arr)
	var off VReg
	for n, ie := range idxs {
		at := t.(*types.Array)
		iv, err := lw.expr(ie)
		if err != nil {
			return "", None, types.Invalid, err
		}
		if n == 0 {
			off = iv
		} else {
			dim := lw.f.NewVReg(types.Int)
			lw.emit(Instr{Op: ConstI, Kind: types.Int, Dst: dim, ConstI: int64(at.Len)})
			scaled := lw.f.NewVReg(types.Int)
			lw.emit(Instr{Op: Mul, Kind: types.Int, Dst: scaled, A: off, B: dim})
			sum := lw.f.NewVReg(types.Int)
			lw.emit(Instr{Op: Add, Kind: types.Int, Dst: sum, A: scaled, B: iv})
			off = sum
		}
		t = at.Elem
	}
	return sym, off, elemKind, nil
}

// ---------------------------------------------------------------------------
// Expressions

func (lw *lowerer) expr(e ast.Expr) (VReg, error) {
	switch e := e.(type) {
	case *ast.Ident:
		obj := lw.info.Uses[e]
		if obj == nil {
			return None, fmt.Errorf("unresolved identifier %s", e.Name)
		}
		v, ok := lw.vars[obj]
		if !ok {
			return None, fmt.Errorf("array %s used as scalar", e.Name)
		}
		return v, nil
	case *ast.IntLit:
		v := lw.f.NewVReg(types.Int)
		lw.emit(Instr{Op: ConstI, Kind: types.Int, Dst: v, ConstI: e.Value})
		return v, nil
	case *ast.FloatLit:
		v := lw.f.NewVReg(types.Float)
		lw.emit(Instr{Op: ConstF, Kind: types.Float, Dst: v, ConstF: e.Value})
		return v, nil
	case *ast.BoolLit:
		v := lw.f.NewVReg(types.Bool)
		ci := int64(0)
		if e.Value {
			ci = 1
		}
		lw.emit(Instr{Op: ConstI, Kind: types.Bool, Dst: v, ConstI: ci})
		return v, nil
	case *ast.BinaryExpr:
		return lw.binary(e)
	case *ast.UnaryExpr:
		x, err := lw.expr(e.X)
		if err != nil {
			return None, err
		}
		k := exprKind(e)
		v := lw.f.NewVReg(k)
		op := Neg
		if e.Op.String() == "!" {
			op = Not
		}
		lw.emit(Instr{Op: op, Kind: k, Dst: v, A: x})
		return v, nil
	case *ast.CallExpr:
		return lw.call(e)
	case *ast.IndexExpr:
		sym, idx, ek, err := lw.flatIndex(e)
		if err != nil {
			return None, err
		}
		v := lw.f.NewVReg(ek)
		lw.emit(Instr{Op: Load, Kind: ek, Dst: v, Sym: sym, A: idx})
		return v, nil
	}
	return None, fmt.Errorf("unknown expression %T", e)
}

var binOps = map[string]Op{
	"+": Add, "-": Sub, "*": Mul, "/": Div, "%": Rem,
	"==": CmpEQ, "!=": CmpNE, "<": CmpLT, "<=": CmpLE, ">": CmpGT, ">=": CmpGE,
}

func (lw *lowerer) binary(e *ast.BinaryExpr) (VReg, error) {
	opStr := e.Op.String()
	// Short-circuit && and || lower to control flow, preserving the
	// reference interpreter's lazy right-operand evaluation.
	if opStr == "&&" || opStr == "||" {
		res := lw.f.NewVReg(types.Bool)
		rhsB := lw.f.NewBlock()
		shortB := lw.f.NewBlock()
		done := lw.f.NewBlock()

		x, err := lw.expr(e.X)
		if err != nil {
			return None, err
		}
		if opStr == "&&" {
			lw.condBr(x, rhsB, shortB)
		} else {
			lw.condBr(x, shortB, rhsB)
		}

		lw.use(rhsB)
		y, err := lw.expr(e.Y)
		if err != nil {
			return None, err
		}
		lw.emit(Instr{Op: Mov, Kind: types.Bool, Dst: res, A: y})
		lw.jumpTo(done)

		lw.use(shortB)
		short := int64(0)
		if opStr == "||" {
			short = 1
		}
		lw.emit(Instr{Op: ConstI, Kind: types.Bool, Dst: res, ConstI: short})
		lw.jumpTo(done)

		lw.use(done)
		return res, nil
	}

	x, err := lw.expr(e.X)
	if err != nil {
		return None, err
	}
	y, err := lw.expr(e.Y)
	if err != nil {
		return None, err
	}
	op, ok := binOps[opStr]
	if !ok {
		return None, fmt.Errorf("unknown binary operator %s", opStr)
	}
	// For comparisons the instruction Kind is the operand kind, not the
	// boolean result kind.
	opndKind := exprKind(e.X)
	resKind := exprKind(e)
	v := lw.f.NewVReg(resKind)
	lw.emit(Instr{Op: op, Kind: opndKind, Dst: v, A: x, B: y})
	return v, nil
}

func (lw *lowerer) call(e *ast.CallExpr) (VReg, error) {
	args := make([]VReg, len(e.Args))
	for i, a := range e.Args {
		v, err := lw.expr(a)
		if err != nil {
			return None, err
		}
		args[i] = v
	}

	if e.Builtin != "" {
		return lw.builtin(e, args)
	}

	k := exprKind(e)
	var dst VReg
	if k != types.Void && k != types.Invalid {
		dst = lw.f.NewVReg(k)
	}
	lw.emit(Instr{Op: Call, Kind: k, Dst: dst, Sym: e.Fun.Name, Args: args})
	return dst, nil
}

func (lw *lowerer) builtin(e *ast.CallExpr, args []VReg) (VReg, error) {
	k := exprKind(e)
	v := lw.f.NewVReg(k)
	argKind := exprKind(e.Args[0])
	switch e.Builtin {
	case "sqrt":
		lw.emit(Instr{Op: Sqrt, Kind: types.Float, Dst: v, A: args[0]})
	case "abs":
		lw.emit(Instr{Op: Abs, Kind: k, Dst: v, A: args[0]})
	case "min":
		lw.emit(Instr{Op: Min, Kind: k, Dst: v, A: args[0], B: args[1]})
	case "max":
		lw.emit(Instr{Op: Max, Kind: k, Dst: v, A: args[0], B: args[1]})
	case "float":
		if argKind == types.Float {
			lw.emit(Instr{Op: Mov, Kind: types.Float, Dst: v, A: args[0]})
		} else {
			lw.emit(Instr{Op: CvtIF, Kind: types.Float, Dst: v, A: args[0]})
		}
	case "int":
		if argKind == types.Int {
			lw.emit(Instr{Op: Mov, Kind: types.Int, Dst: v, A: args[0]})
		} else {
			lw.emit(Instr{Op: CvtFI, Kind: types.Int, Dst: v, A: args[0]})
		}
	default:
		return None, fmt.Errorf("unknown builtin %s", e.Builtin)
	}
	return v, nil
}
