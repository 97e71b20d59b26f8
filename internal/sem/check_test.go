package sem

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/types"
)

func checkSrc(t *testing.T, src string) (*ast.Module, *Info, *source.DiagBag) {
	t.Helper()
	var bag source.DiagBag
	m := parser.Parse("t.w2", []byte(src), &bag)
	if bag.HasErrors() {
		t.Fatalf("parse errors:\n%s", bag.String())
	}
	info := Check(m, &bag)
	return m, info, &bag
}

func mustCheck(t *testing.T, src string) (*ast.Module, *Info) {
	t.Helper()
	m, info, bag := checkSrc(t, src)
	if bag.HasErrors() {
		t.Fatalf("unexpected check errors:\n%s", bag.String())
	}
	return m, info
}

func wrap(body string) string {
	return "module m\nsection 1 {\n" + body + "\n}\n"
}

func TestCheckWellTypedModule(t *testing.T) {
	src := `
module ok (in xs: float[64], out ys: float[64])
section 1 of 1 {
    function helper(a: float, b: float): float {
        return a * b + 1.0;
    }
    function cell() {
        var i: int;
        var buf: float[8];
        var v: float;
        for i = 0 to 63 {
            receive(X, v);
            buf[i % 8] = helper(v, 2.0);
            send(Y, buf[i % 8] + float(i));
        }
    }
}
`
	m, info := mustCheck(t, src)
	helper := m.Sections[0].Funcs[0]
	if helper.Sig == nil || !helper.Sig.Result.Equal(types.FloatType) || len(helper.Sig.Params) != 2 {
		t.Errorf("helper signature wrong: %v", helper.Sig)
	}
	if len(info.Locals[m.Sections[0].Funcs[1]]) != 3 {
		t.Errorf("cell should have 3 locals, got %d", len(info.Locals[m.Sections[0].Funcs[1]]))
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct{ name, body, wantSub string }{
		{"undeclared", `function f() { x = 1; }`, "undeclared name x"},
		{"redeclared var", `function f() { var x: int; var x: float; }`, "redeclared"},
		{"assign type mismatch", `function f() { var x: int; x = 1.5; }`, "cannot use float"},
		{"bool arith", `function f() { var b: bool; b = true + false; }`, "numeric operands"},
		{"mod float", `function f() { var x: float; x = 1.0 % 2.0; }`, "int operands"},
		{"if cond not bool", `function f() { if 1 { return; } }`, "must be bool"},
		{"while cond not bool", `function f() { while 1.5 { return; } }`, "must be bool"},
		{"loop var float", `function f() { var x: float; for x = 0 to 3 { return; } }`, "must have type int"},
		{"loop bound float", `function f() { var i: int; for i = 0 to 2.5 { return; } }`, "must be int"},
		{"zero step", `function f() { var i: int; for i = 0 to 9 step 0 { return; } }`, "must not be zero"},
		{"break outside loop", `function f() { break; }`, "break outside loop"},
		{"continue outside loop", `function f() { continue; }`, "continue outside loop"},
		{"missing return", `function f(): int { var x: int; x = 1; }`, "missing return"},
		{"return value in void fn", `function f() { return 3; }`, "unexpected return value"},
		{"missing return value", `function f(): int { return; }`, "missing return value"},
		{"call undeclared", `function f() { g(); }`, "undeclared function g"},
		{"recursive call", `function f() { f(); }`, "undeclared function f"},
		{"arity", `function g(a: int): int { return a; } function f() { var x: int; x = g(1, 2); }`, "expects 1 argument"},
		{"arg type", `function g(a: bool): bool { return a; } function f() { var x: bool; x = g(3); }`, "cannot use int"},
		{"array param", `function f(a: int[4]) { return; }`, "non-scalar"},
		{"array result", `function f(): int[4] { return; }`, "non-scalar"},
		{"index non-array", `function f() { var x: int; x = x[0]; }`, "non-array"},
		{"index not int", `function f() { var a: int[4]; var x: int; x = a[1.5]; }`, "must be int"},
		{"const index oob", `function f() { var a: int[4]; var x: int; x = a[4]; }`, "out of range"},
		{"assign to function", `function g() { return; } function f() { g = 1; }`, "cannot assign to function"},
		{"assign whole array", `function f() { var a: int[2]; var b: int[2]; a = b; }`, "scalar element"},
		{"func as value", `function g() { return; } function f() { var x: int; x = g; }`, "used as value"},
		{"receive bool", `function f() { var b: bool; receive(X, b); }`, "numeric scalar"},
		{"send bool", `function f() { send(Y, true); }`, "numeric scalar"},
		{"not on int", `function f() { var b: bool; b = !3; }`, "requires a bool operand"},
		{"neg on bool", `function f() { var b: bool; b = -true; }`, "requires a numeric operand"},
		{"sqrt on bool", `function f() { var x: float; x = sqrt(true); }`, "float argument"},
		{"exprstmt non-call", `function f() { var x: int; x + 1; }`, "must be a call"},
		{"bad section of", ``, ""}, // placeholder replaced below
	}
	for _, c := range cases {
		if c.name == "bad section of" {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			_, _, bag := checkSrc(t, wrap(c.body))
			if !bag.HasErrors() {
				t.Fatalf("expected errors, got none")
			}
			if !strings.Contains(bag.String(), c.wantSub) {
				t.Errorf("diagnostics:\n%s\ndo not mention %q", bag.String(), c.wantSub)
			}
		})
	}
}

func TestCheckSectionOfMismatch(t *testing.T) {
	src := `
module m
section 1 of 3 {
    function f() { return; }
}
section 2 of 3 {
    function g() { return; }
}
`
	_, _, bag := checkSrc(t, src)
	if !strings.Contains(bag.String(), "module has 2 sections") {
		t.Errorf("expected section-count mismatch, got:\n%s", bag.String())
	}
}

func TestCheckDuplicateSection(t *testing.T) {
	src := `
module m
section 1 { function f() { return; } }
section 1 { function g() { return; } }
`
	_, _, bag := checkSrc(t, src)
	if !strings.Contains(bag.String(), "section 1 redeclared") {
		t.Errorf("expected duplicate-section error, got:\n%s", bag.String())
	}
}

func TestCrossSectionCallRejected(t *testing.T) {
	src := `
module m
section 1 { function f(): int { return 1; } }
section 2 { function g(): int { return f(); } }
`
	_, _, bag := checkSrc(t, src)
	if !strings.Contains(bag.String(), "undeclared function f") {
		t.Errorf("cross-section call should be rejected, got:\n%s", bag.String())
	}
}

func TestForwardCallRejected(t *testing.T) {
	src := wrap(`
function f(): int { return g(); }
function g(): int { return 1; }
`)
	_, _, bag := checkSrc(t, src)
	if !strings.Contains(bag.String(), "undeclared function g") {
		t.Errorf("forward call should be rejected, got:\n%s", bag.String())
	}
}

func TestImplicitWidening(t *testing.T) {
	src := wrap(`
function f() {
    var x: float;
    var i: int;
    x = 3;
    x = x + i;
    x = i * x;
    x = min(i, x);
}
`)
	m, _ := mustCheck(t, src)
	// Every int leaf feeding a float context must now sit under a float()
	// conversion; verify by counting inserted builtins.
	widenCount := 0
	ast.Inspect(m, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && c.Builtin == "float" {
			widenCount++
		}
		return true
	})
	if widenCount != 4 {
		t.Errorf("expected 4 implicit widenings, found %d", widenCount)
	}
}

func TestExprTypesAnnotated(t *testing.T) {
	src := wrap(`
function f(a: float): float {
    var i: int;
    var arr: float[4];
    arr[i] = a * 2.0;
    return arr[0];
}
`)
	m, _ := mustCheck(t, src)
	ast.Inspect(m, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			if e.Type() == nil {
				t.Errorf("expression %s at %s has no type", ast.ExprString(e), e.Pos())
			}
		}
		return true
	})
}

func TestMultiDimArrays(t *testing.T) {
	src := wrap(`
function f(): float {
    var g: float[3][4];
    var i: int;
    var j: int;
    for i = 0 to 2 {
        for j = 0 to 3 {
            g[i][j] = float(i * j);
        }
    }
    return g[2][3];
}
`)
	m, _ := mustCheck(t, src)
	var decl *ast.VarDecl
	ast.Inspect(m, func(n ast.Node) bool {
		if v, ok := n.(*ast.VarDecl); ok && v.Name == "g" {
			decl = v
		}
		return true
	})
	if decl == nil {
		t.Fatal("declaration of g not found")
	}
	at, ok := decl.Type.T.(*types.Array)
	if !ok || at.Len != 3 || at.TotalLen() != 12 || !at.ScalarElem().Equal(types.FloatType) {
		t.Errorf("type of g = %v, want float[3][4]", decl.Type.T)
	}
	if at.String() != "float[3][4]" {
		t.Errorf("String() = %q, want float[3][4]", at.String())
	}
}

func TestPartialIndexYieldsArray(t *testing.T) {
	// g[i] on float[3][4] has type float[4]; assigning it must fail but
	// reading an element through it must work.
	src := wrap(`
function f(): float {
    var g: float[3][4];
    return g[1][2];
}
`)
	mustCheck(t, src)

	bad := wrap(`
function f() {
    var g: float[3][4];
    var h: float[4];
    g[1] = h;
}
`)
	_, _, bag := checkSrc(t, bad)
	if !bag.HasErrors() {
		t.Error("assigning a whole sub-array should be rejected")
	}
}

func TestReturnPathAnalysis(t *testing.T) {
	good := wrap(`
function f(x: int): int {
    if x > 0 {
        return 1;
    } else {
        return 0;
    }
}
`)
	mustCheck(t, good)

	bad := wrap(`
function f(x: int): int {
    if x > 0 {
        return 1;
    }
}
`)
	_, _, bag := checkSrc(t, bad)
	if !strings.Contains(bag.String(), "missing return") {
		t.Errorf("expected missing-return error, got:\n%s", bag.String())
	}

	// A loop does not guarantee a return.
	loop := wrap(`
function f(x: int): int {
    var i: int;
    for i = 0 to x {
        return i;
    }
}
`)
	_, _, bag2 := checkSrc(t, loop)
	if !strings.Contains(bag2.String(), "missing return") {
		t.Errorf("loop body return must not satisfy all-paths analysis:\n%s", bag2.String())
	}
}

func TestBuiltinsTyped(t *testing.T) {
	src := wrap(`
function f(): float {
    var i: int;
    var x: float;
    i = abs(-3);
    x = abs(-3.5);
    i = min(1, 2);
    x = max(1.5, 2.5);
    i = int(3.7);
    x = float(7);
    x = sqrt(2.0);
    x = sqrt(2);
    return x;
}
`)
	mustCheck(t, src)
}

func TestScopeShadowing(t *testing.T) {
	src := wrap(`
function f(): int {
    var x: int = 1;
    {
        var x: float = 2.0;
        x = x + 1.0;
    }
    return x;
}
`)
	mustCheck(t, src)
}

func TestScopeInsertLookup(t *testing.T) {
	outer := NewScope(nil)
	inner := NewScope(outer)
	a := &Object{Name: "a", Kind: VarObj, Type: types.IntType}
	if outer.Insert(a) != nil {
		t.Fatal("first insert must succeed")
	}
	if prev := outer.Insert(&Object{Name: "a"}); prev != a {
		t.Error("duplicate insert must return the original")
	}
	if inner.Lookup("a") != a {
		t.Error("inner scope must see outer names")
	}
	if inner.LookupLocal("a") != nil {
		t.Error("LookupLocal must not see outer names")
	}
	b := &Object{Name: "a", Kind: VarObj, Type: types.FloatType}
	inner.Insert(b)
	if inner.Lookup("a") != b {
		t.Error("inner declaration must shadow outer")
	}
	if got := outer.Objects(); len(got) != 1 || got[0] != a {
		t.Error("Objects() must list declaration order")
	}
}

// TestScopePrefixView: a view sees exactly the objects its scope held when
// the view was taken — keep-first duplicates included — falls through to
// the parent for anything inserted later, and refuses inserts.
func TestScopePrefixView(t *testing.T) {
	outer := NewScope(nil)
	stream := &Object{Name: "g", Kind: StreamObj}
	outer.Insert(stream)
	sec := NewScope(outer)
	f := &Object{Name: "f", Kind: FuncObj}
	sec.Insert(f)
	v1 := sec.prefixView()
	g := &Object{Name: "g", Kind: FuncObj}
	sec.Insert(g)
	sec.Insert(&Object{Name: "f", Kind: FuncObj}) // duplicate: keep-first
	v2 := sec.prefixView()

	if v1.Lookup("f") != f || v1.LookupLocal("g") != nil || v1.Lookup("g") != stream {
		t.Error("view 1 must see f only, and the outer g")
	}
	if v2.Lookup("f") != f || v2.Lookup("g") != g {
		t.Error("view 2 must see the first f and the function g")
	}
	if got := v1.Objects(); len(got) != 1 || got[0] != f {
		t.Errorf("view 1 objects = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Insert into a view must panic")
		}
	}()
	v2.Insert(&Object{Name: "h"})
}
