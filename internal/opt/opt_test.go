package opt

import (
	"math"
	"testing"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

func lower(t *testing.T, src string) (map[string]*ir.Func, map[string]*ast.FuncDecl, *sem.Info) {
	t.Helper()
	var bag source.DiagBag
	m := parser.Parse("t.w2", []byte(src), &bag)
	info := sem.Check(m, &bag)
	if bag.HasErrors() {
		t.Fatalf("front-end errors:\n%s", bag.String())
	}
	funcs := make(map[string]*ir.Func)
	decls := make(map[string]*ast.FuncDecl)
	for _, s := range m.Sections {
		for _, fn := range s.Funcs {
			f, err := ir.Lower(fn, info)
			if err != nil {
				t.Fatalf("lower %s: %v", fn.Name, err)
			}
			funcs[fn.Name] = f
			decls[fn.Name] = fn
		}
	}
	return funcs, decls, info
}

func sec(body string) string { return "module m\nsection 1 {\n" + body + "\n}\n" }

func countOp(f *ir.Func, op ir.Op) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == op {
				n++
			}
		}
	}
	return n
}

func TestBitSetBasics(t *testing.T) {
	s := NewBitSet(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		s.Set(i)
	}
	if s.Count() != 8 {
		t.Errorf("Count = %d, want 8", s.Count())
	}
	if !s.Has(64) || s.Has(2) {
		t.Error("Has wrong")
	}
	s.Clear(64)
	if s.Has(64) || s.Count() != 7 {
		t.Error("Clear wrong")
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	want := []int{0, 1, 63, 65, 127, 128, 199}
	if len(got) != len(want) {
		t.Fatalf("ForEach got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ForEach[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	o := NewBitSet(200)
	o.Set(5)
	if !s.OrWith(o) || !s.Has(5) {
		t.Error("OrWith failed")
	}
	if s.OrWith(o) {
		t.Error("OrWith should report no change the second time")
	}
	s.AndNotWith(o)
	if s.Has(5) {
		t.Error("AndNotWith failed")
	}
}

func TestConstantFolding(t *testing.T) {
	funcs, _, _ := lower(t, sec(`
function f(): int {
    var a: int = 2 + 3 * 4;
    var b: int = (100 / 5) % 7;
    return a + b;
}
`))
	f := funcs["f"]
	Optimize(f)
	// Everything is constant: the function should reduce to materializing 20
	// (14 + 6) and returning it, with no arithmetic left.
	for _, op := range []ir.Op{ir.Add, ir.Mul, ir.Div, ir.Rem} {
		if n := countOp(f, op); n != 0 {
			t.Errorf("%s ops remaining after folding: %d\n%s", op, n, f)
		}
	}
	env := &ir.EvalEnv{Funcs: funcs}
	v, _, err := env.EvalFunc(f, nil)
	if err != nil || v.I != 20 {
		t.Errorf("f() = %d (%v), want 20", v.I, err)
	}
}

func TestDivByZeroNotFolded(t *testing.T) {
	funcs, _, _ := lower(t, sec(`
function f(): int {
    var z: int = 0;
    return 1 / z;
}
`))
	f := funcs["f"]
	Optimize(f)
	if countOp(f, ir.Div) != 1 {
		t.Errorf("division by constant zero must survive to trap at runtime:\n%s", f)
	}
	env := &ir.EvalEnv{Funcs: funcs}
	_, _, err := env.EvalFunc(f, nil)
	if err == nil {
		t.Error("expected division-by-zero trap")
	}
}

func TestCSE(t *testing.T) {
	funcs, _, _ := lower(t, sec(`
function f(a: float, b: float): float {
    return (a * b + 1.0) + (a * b + 1.0);
}
`))
	f := funcs["f"]
	before := countOp(f, ir.Mul)
	Optimize(f)
	after := countOp(f, ir.Mul)
	if before != 2 || after != 1 {
		t.Errorf("CSE: muls before=%d after=%d, want 2 then 1\n%s", before, after, f)
	}
	env := &ir.EvalEnv{Funcs: funcs}
	v, _, err := env.EvalFunc(f, []ir.EvalValue{ir.EvalFloat(2), ir.EvalFloat(3)})
	if err != nil || v.F != 14 {
		t.Errorf("f(2,3) = %g (%v), want 14", v.F, err)
	}
}

func TestCSERespectsRedefinition(t *testing.T) {
	funcs, _, _ := lower(t, sec(`
function f(a: int): int {
    var x: int = a * a;
    a = a + 1;
    var y: int = a * a;
    return x + y;
}
`))
	f := funcs["f"]
	Optimize(f)
	if countOp(f, ir.Mul) != 2 {
		t.Errorf("a*a after redefining a must not be CSE'd:\n%s", f)
	}
	env := &ir.EvalEnv{Funcs: funcs}
	v, _, err := env.EvalFunc(f, []ir.EvalValue{ir.EvalInt(3)})
	if err != nil || v.I != 9+16 {
		t.Errorf("f(3) = %d (%v), want 25", v.I, err)
	}
}

func TestLoadCSEAndStoreInvalidation(t *testing.T) {
	funcs, _, _ := lower(t, sec(`
function f(): int {
    var a: int[4];
    a[2] = 7;
    var x: int = a[2] + a[2];
    a[2] = 9;
    var y: int = a[2];
    return x * 100 + y;
}
`))
	f := funcs["f"]
	loadsBefore := countOp(f, ir.Load)
	Optimize(f)
	loadsAfter := countOp(f, ir.Load)
	if loadsBefore != 3 {
		t.Fatalf("expected 3 loads before, got %d", loadsBefore)
	}
	if loadsAfter != 2 {
		t.Errorf("duplicate load should be CSE'd but the post-store load kept: got %d loads\n%s", loadsAfter, f)
	}
	env := &ir.EvalEnv{Funcs: funcs}
	v, _, err := env.EvalFunc(f, nil)
	if err != nil || v.I != 1409 {
		t.Errorf("f() = %d (%v), want 1409", v.I, err)
	}
}

func TestDeadCodeElimination(t *testing.T) {
	funcs, _, _ := lower(t, sec(`
function f(a: int): int {
    var unused: int = a * 37 + 4;
    var alsoUnused: float = float(a) * 2.5;
    return a + 1;
}
`))
	f := funcs["f"]
	st := Optimize(f)
	if st.DeadRemoved == 0 {
		t.Error("expected dead instructions to be removed")
	}
	if countOp(f, ir.Mul) != 0 || countOp(f, ir.CvtIF) != 0 {
		t.Errorf("dead computations survive:\n%s", f)
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	funcs, _, _ := lower(t, `
module m (in xs: float[1], out ys: float[1])
section 1 {
    function helper(): int {
        send(Y, 1.0);
        return 5;
    }
    function f(): int {
        var unused: int = helper();
        var v: float;
        receive(X, v);
        var alsoUnused: float = v * 2.0;
        return 1;
    }
}
`)
	f := funcs["f"]
	Optimize(f)
	if countOp(f, ir.Call) != 1 {
		t.Errorf("call with side effects must be kept:\n%s", f)
	}
	if countOp(f, ir.Recv) != 1 {
		t.Errorf("receive must be kept (consumes queue input):\n%s", f)
	}
	if countOp(f, ir.Mul) != 0 {
		t.Errorf("pure computation on received value is dead and must go:\n%s", f)
	}
}

func TestBranchFolding(t *testing.T) {
	funcs, _, _ := lower(t, sec(`
function f(): int {
    if 2 > 1 {
        return 10;
    }
    return 20;
}
`))
	f := funcs["f"]
	Optimize(f)
	if countOp(f, ir.CondBr) != 0 {
		t.Errorf("constant branch not folded:\n%s", f)
	}
	env := &ir.EvalEnv{Funcs: funcs}
	v, _, err := env.EvalFunc(f, nil)
	if err != nil || v.I != 10 {
		t.Errorf("f() = %d (%v), want 10", v.I, err)
	}
}

func TestMergeStraightLine(t *testing.T) {
	funcs, _, _ := lower(t, sec(`
function f(a: int): int {
    var x: int = a + 1;
    if a > 0 {
        x = x * 2;
    }
    return x;
}
`))
	f := funcs["f"]
	before := len(f.Blocks)
	Optimize(f)
	if len(f.Blocks) >= before && before > 3 {
		t.Errorf("expected block merging to shrink the CFG: %d -> %d", before, len(f.Blocks))
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("invalid after merging: %v", err)
	}
}

func TestAlgebraicSimplification(t *testing.T) {
	funcs, _, _ := lower(t, sec(`
function f(a: int): int {
    var zero: int = 0;
    var one: int = 1;
    return (a + zero) * one + (a - zero) * zero + a / one;
}
`))
	f := funcs["f"]
	Optimize(f)
	if n := countOp(f, ir.Mul); n != 0 {
		t.Errorf("multiplications by 0/1 must vanish, %d remain:\n%s", n, f)
	}
	if n := countOp(f, ir.Div); n != 0 {
		t.Errorf("division by 1 must vanish, %d remain:\n%s", n, f)
	}
	env := &ir.EvalEnv{Funcs: funcs}
	v, _, err := env.EvalFunc(f, []ir.EvalValue{ir.EvalInt(21)})
	if err != nil || v.I != 42 {
		t.Errorf("f(21) = %d (%v), want 42", v.I, err)
	}
}

func TestLivenessLoop(t *testing.T) {
	funcs, _, _ := lower(t, sec(`
function f(n: int): int {
    var s: int = 0;
    var i: int;
    for i = 0 to n {
        s = s + i;
    }
    return s;
}
`))
	f := funcs["f"]
	lv := ComputeLiveness(f)
	// The accumulator must be live around the back edge: find the loop and
	// check s is live-in at its header.
	loops := ir.NaturalLoops(f)
	if len(loops) != 1 {
		t.Fatalf("want 1 loop, got %d", len(loops))
	}
	head := loops[0].Head
	liveInCount := lv.In[head].Count()
	if liveInCount < 2 { // at least i and s (and the bound temp)
		t.Errorf("expected >=2 live-in regs at loop header, got %d", liveInCount)
	}
}

func TestReachingDefs(t *testing.T) {
	funcs, _, _ := lower(t, sec(`
function f(a: int): int {
    var x: int = 1;
    if a > 0 {
        x = 2;
    }
    return x;
}
`))
	f := funcs["f"]
	rd := ComputeReachingDefs(f)
	// Find the block containing Ret; both defs of x must reach it.
	var retBlock *ir.Block
	var retReg ir.VReg
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.Ret {
				retBlock = b
				retReg = b.Instrs[i].A
			}
		}
	}
	if retBlock == nil {
		t.Fatal("no return found")
	}
	defs := rd.ReachingDefsOf(retBlock, retReg)
	if len(defs) < 2 {
		t.Errorf("both definitions of x should reach the return, got %d\n%s", len(defs), f)
	}
}

// TestOptimizePreservesSemantics is the key property: for a battery of
// programs, running the optimizer must not change results.
func TestOptimizePreservesSemantics(t *testing.T) {
	src := sec(`
function mix(a: int, b: int): int {
    var t1: int = a * b + a * b;
    var t2: int = t1 / 2;
    var r: int = 0;
    var i: int;
    for i = 0 to 7 {
        if (t2 + i) % 3 == 0 {
            r = r + i * 2;
        } else {
            r = r - 1;
        }
    }
    while r > 50 {
        r = r - 7;
    }
    return r + t2 * 0 + t1 * 1;
}
function fmath(x: float): float {
    var c: float = 2.0 * 3.0;
    var y: float = x * c + x * c;
    return sqrt(abs(y)) + min(y, 10.0) - max(-y, 0.5);
}
`)
	funcs, _, _ := lower(t, src)
	funcs2, _, _ := lower(t, src)
	for name := range funcs2 {
		st := Optimize(funcs2[name])
		if st.FinalInstrs >= funcs[name].NumInstrs() && name == "mix" {
			t.Errorf("%s: optimizer removed nothing (%d -> %d)", name, funcs[name].NumInstrs(), st.FinalInstrs)
		}
		if err := funcs2[name].Validate(); err != nil {
			t.Fatalf("%s invalid after optimization: %v", name, err)
		}
		if !kindsSane(funcs2[name]) {
			t.Errorf("%s: vreg kinds broken after optimization", name)
		}
	}

	for i := -5; i <= 5; i++ {
		for j := 1; j <= 3; j++ {
			e1 := &ir.EvalEnv{Funcs: funcs}
			e2 := &ir.EvalEnv{Funcs: funcs2}
			v1, _, err1 := e1.EvalFunc(funcs["mix"], []ir.EvalValue{ir.EvalInt(int64(i)), ir.EvalInt(int64(j))})
			v2, _, err2 := e2.EvalFunc(funcs2["mix"], []ir.EvalValue{ir.EvalInt(int64(i)), ir.EvalInt(int64(j))})
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("mix(%d,%d): errs %v vs %v", i, j, err1, err2)
			}
			if err1 == nil && v1.I != v2.I {
				t.Errorf("mix(%d,%d): %d != %d after optimization", i, j, v1.I, v2.I)
			}
		}
		x := float64(i) * 0.7
		e1 := &ir.EvalEnv{Funcs: funcs}
		e2 := &ir.EvalEnv{Funcs: funcs2}
		v1, _, err1 := e1.EvalFunc(funcs["fmath"], []ir.EvalValue{ir.EvalFloat(x)})
		v2, _, err2 := e2.EvalFunc(funcs2["fmath"], []ir.EvalValue{ir.EvalFloat(x)})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("fmath(%g): errs %v vs %v", x, err1, err2)
		}
		if err1 == nil && math.Abs(v1.F-v2.F) > 1e-9 {
			t.Errorf("fmath(%g): %g != %g after optimization", x, v1.F, v2.F)
		}
	}
}

func TestSqrtConstMatchesMath(t *testing.T) {
	for _, x := range []float64{0, 1, 2, 0.25, 100, 12345.678} {
		if got, want := sqrtConst(x), math.Sqrt(x); math.Abs(got-want) > 1e-12*math.Max(1, want) {
			t.Errorf("sqrtConst(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestOptimizeStreamProgramPreservesIO(t *testing.T) {
	src := `
module m (in xs: float[6], out ys: float[6])
section 1 {
    function cell() {
        var i: int;
        var v: float;
        var k: float = 1.5 * 2.0;
        for i = 0 to 5 {
            receive(X, v);
            send(Y, v * k + 0.0 * v);
        }
    }
}
`
	funcs, _, _ := lower(t, src)
	funcs2, _, _ := lower(t, src)
	Optimize(funcs2["cell"])

	input := []ir.EvalValue{
		ir.EvalFloat(1), ir.EvalFloat(-2), ir.EvalFloat(3),
		ir.EvalFloat(0), ir.EvalFloat(5.5), ir.EvalFloat(-0.5),
	}
	e1 := &ir.EvalEnv{Funcs: funcs, In: append([]ir.EvalValue(nil), input...)}
	e2 := &ir.EvalEnv{Funcs: funcs2, In: append([]ir.EvalValue(nil), input...)}
	if _, _, err := e1.EvalFunc(funcs["cell"], nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e2.EvalFunc(funcs2["cell"], nil); err != nil {
		t.Fatal(err)
	}
	if len(e1.Out) != len(e2.Out) {
		t.Fatalf("output lengths differ: %d vs %d", len(e1.Out), len(e2.Out))
	}
	for i := range e1.Out {
		if e1.Out[i].AsFloat() != e2.Out[i].AsFloat() {
			t.Errorf("out[%d]: %g != %g", i, e1.Out[i].AsFloat(), e2.Out[i].AsFloat())
		}
	}
}
