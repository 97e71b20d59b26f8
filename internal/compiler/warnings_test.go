package compiler

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/source"
)

// linearWarningOwner is warningOwner as a scan of every function: the
// function with the greatest starting offset not after pos, the first one
// found on a tie. It is the oracle for the binary search.
func linearWarningOwner(m *ast.Module, pos source.Pos) *ast.FuncDecl {
	var owner *ast.FuncDecl
	for _, sec := range m.Sections {
		for _, f := range sec.Funcs {
			if f.Pos().Offset <= pos.Offset && (owner == nil || f.Pos().Offset > owner.Pos().Offset) {
				owner = f
			}
		}
	}
	return owner
}

// discardingProgram returns a module of n functions over two sections in
// which every function discards the result of a call, so every function
// owns one warning of the frontend.
func discardingProgram(n int) []byte {
	var sb strings.Builder
	sb.WriteString("module warn (out ys: float[1])\n")
	for s := 1; s <= 2; s++ {
		fmt.Fprintf(&sb, "section %d {\n", s)
		sb.WriteString("    function f0(): int { abs(1); return 1; }\n")
		for i := 1; i < n/2; i++ {
			fmt.Fprintf(&sb, "    function f%d(): int { f%d(); return %d; }\n", i, i-1, i)
		}
		sb.WriteString("}\n")
	}
	return []byte(sb.String())
}

// TestWarningOwnerMatchesLinearScan: ownership by binary search over the
// offset-ordered functions answers what the scan over every function
// answered — for every warning of a 256-function module where every function
// owns one, and for positions before, between and after the functions — so
// FrontendWarnings hands every function exactly its own warnings.
func TestWarningOwnerMatchesLinearScan(t *testing.T) {
	src := discardingProgram(256)
	m, _, bag := Frontend("warn.w2", src)
	if bag.HasErrors() {
		t.Fatal(bag.String())
	}
	fns := funcsByOffset(m)
	var positions []source.Pos
	for _, d := range bag.All() {
		positions = append(positions, d.Pos)
	}
	if len(positions) != 256 {
		t.Fatalf("%d diagnostics, want one warning per function", len(positions))
	}
	for off := 0; off <= len(src); off += 7 {
		positions = append(positions, source.Pos{Offset: off})
	}
	for _, pos := range positions {
		if got, want := warningOwner(fns, pos), linearWarningOwner(m, pos); got != want {
			t.Fatalf("owner of offset %d: %v, the scan finds %v", pos.Offset, got, want)
		}
	}

	total := len(FrontendWarnings(m, bag, nil))
	for _, sec := range m.Sections {
		for _, fn := range sec.Funcs {
			got := FrontendWarnings(m, bag, fn)
			if len(got) != 1 || !strings.Contains(got[0], "result of call is discarded") {
				t.Errorf("s%d/%s owns %q, want its one warning", sec.Index, fn.Name, got)
			}
			total += len(got)
		}
	}
	if total != 256 {
		t.Errorf("%d warnings handed out, want 256", total)
	}

	// Functions at equal offsets (a tree built without positions): the
	// first declared owns everything.
	same := &ast.Module{Sections: []*ast.Section{{Index: 1, Funcs: []*ast.FuncDecl{{Name: "a"}, {Name: "b"}}}}}
	if got, want := warningOwner(funcsByOffset(same), source.Pos{}), linearWarningOwner(same, source.Pos{}); got != want || got.Name != "a" {
		t.Errorf("tie owner %v, want the scan's %v", got, want)
	}
}
