package compiler

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/fcache"
	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/wgen"
)

// TestDuplicateSectionRejected: sem.Check normally rejects duplicate section
// indices, but a function compile must not silently pick one if handed such
// a module (e.g. a master skipping the shared check).
func TestDuplicateSectionRejected(t *testing.T) {
	src := []byte(`
module m
section 1 { function f() { return; } }
section 1 { function g() { return; } }
`)
	var bag source.DiagBag
	m := parser.Parse("dup.w2", src, &bag)
	if bag.HasErrors() {
		t.Fatalf("parse: %s", bag.String())
	}
	fn := m.Sections[0].Funcs[0]
	_, _, err := CompileFunctionIncremental(fcache.New(0), &fcache.FrontendEntry{Module: m}, fn, Options{})
	if err == nil || !strings.Contains(err.Error(), "section 1 more than once") {
		t.Errorf("err = %v, want duplicate-section error", err)
	}
}

func TestUnknownSectionRejected(t *testing.T) {
	src := []byte(`
module m
section 1 { function f() { return; } }
`)
	var bag source.DiagBag
	m := parser.Parse("unk.w2", src, &bag)
	if bag.HasErrors() {
		t.Fatalf("parse: %s", bag.String())
	}
	fn := m.Sections[0].Funcs[0]
	fn.SectionIndex = 9
	_, _, err := CompileFunctionIncremental(fcache.New(0), &fcache.FrontendEntry{Module: m}, fn, Options{})
	if err == nil || !strings.Contains(err.Error(), "unknown section 9") {
		t.Errorf("err = %v, want unknown-section error", err)
	}
}

// TestCompileFunctionIncrementalMatchesUncached is the cache's correctness
// core: for every function of a realistic multi-section program, the
// incremental path (per-function cached IR + object entries) must emit
// word-identical code to the share-nothing oracle, on both the cold pass
// (miss, hit=false) and the warm pass (hit=true with no recompilation).
func TestCompileFunctionIncrementalMatchesUncached(t *testing.T) {
	src := wgen.UserProgram()
	h := fcache.HashSource(src)
	cache := fcache.New(0)
	fe := FrontendEntryCached(cache, h, "user.w2", src)
	if fe.Bag.HasErrors() {
		t.Fatalf("frontend: %s", fe.Bag.String())
	}
	m, info := fe.Module, fe.Info

	oracle := make(map[*ast.FuncDecl]*FuncResult)
	for pass := 0; pass < 2; pass++ {
		for _, sec := range m.Sections {
			for _, fn := range sec.Funcs {
				want := oracle[fn]
				if want == nil {
					var err error
					if want, err = prefixCompileFunction(m, info, fn, Options{}); err != nil {
						t.Fatalf("oracle(%s): %v", fn.Name, err)
					}
					oracle[fn] = want
				}
				entry, hit, err := CompileFunctionIncremental(cache, fe, fn, Options{})
				if err != nil {
					t.Fatalf("pass %d: CompileFunctionIncremental(%s): %v", pass, fn.Name, err)
				}
				if hit != (pass == 1) {
					t.Errorf("pass %d: %s: hit = %v", pass, fn.Name, hit)
				}
				obj, err := entry.Object()
				if err != nil {
					t.Fatalf("pass %d: %s: decode: %v", pass, fn.Name, err)
				}
				if len(obj.Code) != len(want.Object.Code) {
					t.Fatalf("pass %d: %s: incremental emits %d words, oracle %d",
						pass, fn.Name, len(obj.Code), len(want.Object.Code))
				}
				for i := range obj.Code {
					if obj.Code[i] != want.Object.Code[i] {
						t.Fatalf("pass %d: %s: word %d differs: incremental %v, oracle %v",
							pass, fn.Name, i, obj.Code[i], want.Object.Code[i])
					}
				}
				if entry.IsEntry != want.IsEntry || entry.Section != want.Section {
					t.Errorf("pass %d: %s: metadata differs", pass, fn.Name)
				}
			}
		}
	}

	s := cache.Stats()
	if s.ObjectHits == 0 {
		t.Error("warm pass produced no object cache hits")
	}
	if s.ObjectMisses == 0 {
		t.Error("cold pass produced no object cache misses")
	}
}

// TestIncrementalOneEditRecompilesOneFunction is the function-grain keying
// contract: after editing one function of a module, every other function's
// object entry must still hit, so phases 2+3 rerun for the edited function
// alone.
func TestIncrementalOneEditRecompilesOneFunction(t *testing.T) {
	src := wgen.SyntheticProgram(wgen.Small, 8)
	edited, names, err := wgen.MutateFunctions(src, 1, 42)
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	if len(names) != 1 {
		t.Fatalf("edited %v, want exactly one function", names)
	}

	cache := fcache.New(0)
	compileAll := func(src []byte, label string) {
		fe := FrontendEntryCached(cache, fcache.HashSource(src), label, src)
		if fe.Bag.HasErrors() {
			t.Fatalf("%s: frontend: %s", label, fe.Bag.String())
		}
		for _, sec := range fe.Module.Sections {
			for _, fn := range sec.Funcs {
				if _, _, err := CompileFunctionIncremental(cache, fe, fn, Options{}); err != nil {
					t.Fatalf("%s: %s: %v", label, fn.Name, err)
				}
			}
		}
	}

	compileAll(src, "base.w2")
	cold := cache.Stats()
	if cold.ObjectMisses != 8 {
		t.Fatalf("cold object misses = %d, want 8", cold.ObjectMisses)
	}
	compileAll(edited, "edit.w2")
	warm := cache.Stats()
	if got := warm.ObjectMisses - cold.ObjectMisses; got != 1 {
		t.Errorf("edit of %v recompiled %d functions, want 1", names, got)
	}
	if got := warm.ObjectHits - cold.ObjectHits; got != 7 {
		t.Errorf("edit pass hit %d functions, want 7", got)
	}
}

// TestCompileModuleReportsWarnings: the discarded-call-result warning must
// surface in Result.Warnings exactly once.
func TestCompileModuleReportsWarnings(t *testing.T) {
	src := []byte(`
module m
section 1 {
    function g(): int { return 1; }
    function f() { g(); return; }
}
`)
	res, err := CompileModule("warn.w2", src, Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var n int
	for _, w := range res.Warnings {
		if strings.Contains(w, "result of call is discarded") {
			n++
		}
	}
	if n != 1 {
		t.Errorf("discarded-call warning appeared %d times in %q, want exactly 1", n, res.Warnings)
	}
}
