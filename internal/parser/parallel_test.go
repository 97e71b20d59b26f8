package parser_test

import (
	"context"
	"testing"

	"repro/internal/ast"
	"repro/internal/leakcheck"
	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/wgen"
)

// parallelSources is the corpus every parity test runs over: each wgen kind
// plus hand-written edge cases.
func parallelSources(t *testing.T) map[string][]byte {
	t.Helper()
	return map[string][]byte{
		"synthetic": wgen.SyntheticProgram(wgen.Medium, 6),
		"small":     wgen.SmallFuncsProgram(12),
		"mixed":     wgen.MixedProgram(8),
		"multisec":  wgen.MultiSectionProgram(wgen.Small, 3),
		"user":      wgen.UserProgram(),
		"wide":      wgen.WideProgram(16, 2),
		"tiny": []byte(`module t
section 1 { function f(): int { return 1; } }
`),
	}
}

// TestParseModuleParallelParity checks that the span-sliced parallel parse
// produces a tree (printed form), per-function hashes, and diagnostics
// word-identical to the sequential parser across the corpus and worker
// counts.
func TestParseModuleParallelParity(t *testing.T) {
	for name, src := range parallelSources(t) {
		var seqBag source.DiagBag
		seqMod := parser.Parse("m.w2", src, &seqBag)
		if seqBag.HasErrors() {
			t.Fatalf("%s: corpus source does not parse: %s", name, seqBag.String())
		}
		outline := parser.ParseOutline("m.w2", src, &source.DiagBag{})
		if outline == nil {
			t.Fatalf("%s: no outline", name)
		}
		seqHashes := parser.FuncHashes(seqMod, src)

		for _, workers := range []int{1, 2, 4, 8} {
			var parBag source.DiagBag
			parMod, err := parser.ParseModuleParallel(context.Background(), "m.w2", src, outline, workers, &parBag)
			if err != nil {
				t.Fatalf("%s/w%d: unexpected error: %v", name, workers, err)
			}
			if got, want := parBag.String(), seqBag.String(); got != want {
				t.Errorf("%s/w%d: diagnostics differ:\n got: %q\nwant: %q", name, workers, got, want)
			}
			if got, want := ast.Format(parMod), ast.Format(seqMod); got != want {
				t.Errorf("%s/w%d: printed tree differs", name, workers)
			}
			parHashes := parser.FuncHashes(parMod, src)
			if len(parHashes) != len(seqHashes) {
				t.Fatalf("%s/w%d: hash count %d, want %d", name, workers, len(parHashes), len(seqHashes))
			}
			for k, h := range seqHashes {
				if parHashes[k] != h {
					t.Errorf("%s/w%d: hash mismatch for %v", name, workers, k)
				}
			}
			// Stitching must restore the locator indices the sequential
			// parser assigns.
			for si, sec := range parMod.Sections {
				for fi, fn := range sec.Funcs {
					want := seqMod.Sections[si].Funcs[fi]
					if fn == nil || fn.SectionIndex != want.SectionIndex || fn.FuncIndex != want.FuncIndex {
						t.Errorf("%s/w%d: section %d func %d badly stitched", name, workers, si, fi)
					}
				}
			}
		}
	}
}

// TestParseFuncBodyPositions checks that a body parsed from its span alone
// reports positions identical to the sequential parse of the whole module.
func TestParseFuncBodyPositions(t *testing.T) {
	src := wgen.MixedProgram(5)
	var bag source.DiagBag
	m := parser.Parse("m.w2", src, &bag)
	if bag.HasErrors() {
		t.Fatal(bag.String())
	}
	outline := parser.OutlineWithHashes(m, src)
	for si, so := range outline.Sections {
		for fi := range so.Functions {
			fo := &outline.Sections[si].Functions[fi]
			var fnBag source.DiagBag
			fn := parser.ParseFuncBody("m.w2", src, fo, &fnBag)
			if fn == nil || fnBag.HasErrors() {
				t.Fatalf("span parse of %s failed: %s", fo.Name, fnBag.String())
			}
			want := m.Sections[si].Funcs[fi]
			if fn.FuncPos != want.FuncPos {
				t.Errorf("%s: FuncPos %v, want %v", fo.Name, fn.FuncPos, want.FuncPos)
			}
			if fn.Body.RbracePos != want.Body.RbracePos {
				t.Errorf("%s: RbracePos %v, want %v", fo.Name, fn.Body.RbracePos, want.Body.RbracePos)
			}
		}
	}
}

// TestParseModuleParallelFallback checks that error-laden sources and
// span-less outlines take the sequential path with identical diagnostics.
func TestParseModuleParallelFallback(t *testing.T) {
	bad := []byte(`module t
section 1 {
	function f(): int { return 1 }
	function g(): int { return 2; }
}
`)
	var seqBag source.DiagBag
	seqMod := parser.Parse("m.w2", bad, &seqBag)
	if !seqBag.HasErrors() {
		t.Fatal("corpus error source unexpectedly parses")
	}
	// ParseOutline refuses error sources, so parallel parse falls back.
	if parser.ParseOutline("m.w2", bad, &source.DiagBag{}) != nil {
		t.Fatal("outline of error source should be nil")
	}
	var parBag source.DiagBag
	parMod, err := parser.ParseModuleParallel(context.Background(), "m.w2", bad, nil, 4, &parBag)
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if got, want := parBag.String(), seqBag.String(); got != want {
		t.Errorf("fallback diagnostics differ:\n got: %q\nwant: %q", got, want)
	}
	if got, want := ast.Format(parMod), ast.Format(seqMod); got != want {
		t.Errorf("fallback tree differs")
	}

	// A span-less outline (OutlineOf without source) must also fall back.
	good := wgen.SmallFuncsProgram(4)
	var gb source.DiagBag
	gm := parser.Parse("m.w2", good, &gb)
	var parBag2 source.DiagBag
	parMod2, err := parser.ParseModuleParallel(context.Background(), "m.w2", good, parser.OutlineOf(gm), 4, &parBag2)
	if err != nil || parMod2 == nil || parBag2.HasErrors() {
		t.Fatalf("span-less fallback failed: %v %s", err, parBag2.String())
	}
	if got, want := ast.Format(parMod2), ast.Format(gm); got != want {
		t.Errorf("span-less fallback tree differs")
	}
}

// TestParseModuleParallelCancel checks that a cancelled context makes
// ParseModuleParallel return promptly with ctx.Err() and without leaking
// worker goroutines.
func TestParseModuleParallelCancel(t *testing.T) {
	src := wgen.WideProgram(64, 4)
	outline := parser.ParseOutline("m.w2", src, &source.DiagBag{})
	if outline == nil {
		t.Fatal("no outline")
	}
	before := leakcheck.Take()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var bag source.DiagBag
	m, err := parser.ParseModuleParallel(ctx, "m.w2", src, outline, 4, &bag)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m != nil {
		t.Fatal("cancelled parse returned a module")
	}
	// All workers must have exited; allow the runtime a moment to reap.
	before.Check(t)
}
