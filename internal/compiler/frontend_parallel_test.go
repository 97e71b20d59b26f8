package compiler

// Parity suite for the parallel frontend: FrontendParallel must be
// observationally identical to the sequential Frontend — same diagnostics,
// same checked tree, same semantic info shape, same per-function incremental
// hashes — across clean and error-laden sources and every worker count. Plus
// cancellation (prompt, leak-free exit) and the cache integration (a
// cancelled parallel build must not poison the frontend tier).

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/fcache"
	"repro/internal/leakcheck"
	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/wgen"
)

// frontendCorpus covers the three frontend regimes: clean modules (the
// outline's tree checked concurrently), syntax errors (no outline — one
// sequential parse), and semantic errors (parallel check with deterministic
// merge).
func frontendCorpus() map[string][]byte {
	return map[string][]byte{
		"small":    wgen.SmallFuncsProgram(8),
		"mixed":    wgen.MixedProgram(6),
		"multisec": wgen.MultiSectionProgram(wgen.Small, 3),
		"wide":     wgen.WideProgram(16, 4),
		"user":     wgen.UserProgram(),
		"syntax_error": []byte(`module t
section 1 {
	function f(): int { return 1 }
	function g(): int { return f(); }
}
`),
		"semantic_errors": []byte(`module t
section 1 {
	function f(x: int): int {
		var b: bool = x;
		return z;
	}
	function f(): int { return 3; }
	function g(): int { return f(1); }
}
`),
		"redecl_missing_return": []byte(`module t
section 1 {
	function f(): int { var x: int = 1; x = 2; }
	function f(): int { return 3; }
	function g(): int { return f(); }
}
`),
	}
}

// outlines returns the outlines FrontendParallel can be handed for src: none
// (it parses src), ParseOutline's (it checks the outline's tree; nil for a
// source with syntax errors) and OutlineOf's (no tree: it parses src).
func outlines(src []byte) map[string]*parser.Outline {
	var bag source.DiagBag
	m := parser.Parse("m.w2", src, &bag)
	return map[string]*parser.Outline{
		"parse":   nil,
		"tree":    parser.ParseOutline("m.w2", src, &source.DiagBag{}),
		"no-tree": parser.OutlineOf(m),
	}
}

// TestFrontendParallelParity checks FrontendParallel ≡ Frontend across the
// corpus, worker counts 1/2/4/8 and every kind of outline it can be given:
// diagnostics, checked-tree print, semantic-info shape, and per-function
// incremental hashes. Each call checks a tree of its own — the AST is
// mutated by checking — so every outline is made afresh.
func TestFrontendParallelParity(t *testing.T) {
	for name, src := range frontendCorpus() {
		for _, workers := range []int{1, 2, 4, 8} {
			for kind, outline := range outlines(src) {
				label := fmt.Sprintf("%s/w%d/%s", name, workers, kind)
				seqMod, seqInfo, seqBag := Frontend("m.w2", src)
				var timing FrontendTiming
				parMod, parInfo, parBag, err := FrontendParallel(context.Background(), "m.w2", src,
					FrontendOptions{Parallel: true, Workers: workers, Outline: outline, Timing: &timing})
				if err != nil {
					t.Fatalf("%s: unexpected error: %v", label, err)
				}
				if outline != nil && outline.Tree != nil && parMod != outline.Tree {
					t.Errorf("%s: checked a tree other than the outline's", label)
				}
				if got, want := parBag.String(), seqBag.String(); got != want {
					t.Errorf("%s: diagnostics differ:\n got: %q\nwant: %q", label, got, want)
				}
				if got, want := parBag.ErrorCount(), seqBag.ErrorCount(); got != want {
					t.Errorf("%s: error count %d, want %d", label, got, want)
				}
				if (parInfo == nil) != (seqInfo == nil) {
					t.Fatalf("%s: info nil-ness differs: parallel %v, sequential %v",
						label, parInfo == nil, seqInfo == nil)
				}
				if parInfo != nil {
					if got, want := len(parInfo.FuncObjs), len(seqInfo.FuncObjs); got != want {
						t.Errorf("%s: %d func objects, want %d", label, got, want)
					}
					if got, want := len(parInfo.Uses), len(seqInfo.Uses); got != want {
						t.Errorf("%s: %d uses, want %d", label, got, want)
					}
				}
				if got, want := ast.Format(parMod), ast.Format(seqMod); got != want {
					t.Errorf("%s: checked trees differ", label)
				}
				if timing.Workers != workers {
					t.Errorf("%s: timing reports %d workers", label, timing.Workers)
				}
				if !seqBag.HasErrors() {
					seqHashes := parser.FuncHashes(seqMod, src)
					parHashes := parser.FuncHashes(parMod, src)
					if len(seqHashes) != len(parHashes) {
						t.Fatalf("%s: %d hashes, want %d", label, len(parHashes), len(seqHashes))
					}
					for k, want := range seqHashes {
						if got, ok := parHashes[k]; !ok || got != want {
							t.Errorf("%s: hash mismatch for s%d.f%d", label, k.Section, k.Index)
						}
					}
				}
			}
		}
	}
}

// TestFrontendParallelFallback checks the two ways FrontendParallel ends up
// parsing src itself: a source with syntax errors (ParseOutline refuses it,
// so there is no outline) and an outline without a tree (OutlineOf). Both
// must leave Frontend's diagnostics and tree.
func TestFrontendParallelFallback(t *testing.T) {
	bad := frontendCorpus()["syntax_error"]
	if parser.ParseOutline("m.w2", bad, &source.DiagBag{}) != nil {
		t.Fatal("outline of a syntax-error source should be nil")
	}
	seqMod, _, seqBag := Frontend("m.w2", bad)
	if !seqBag.HasErrors() {
		t.Fatal("syntax-error source unexpectedly parses")
	}
	parMod, parInfo, parBag, err := FrontendParallel(context.Background(), "m.w2", bad,
		FrontendOptions{Parallel: true, Workers: 4})
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if got, want := parBag.String(), seqBag.String(); got != want {
		t.Errorf("fallback diagnostics differ:\n got: %q\nwant: %q", got, want)
	}
	if parInfo != nil {
		t.Error("a source with syntax errors was checked")
	}
	if got, want := ast.Format(parMod), ast.Format(seqMod); got != want {
		t.Error("fallback tree differs")
	}

	good := wgen.SmallFuncsProgram(4)
	var gb source.DiagBag
	outline := parser.OutlineOf(parser.Parse("m.w2", good, &gb))
	if outline.Tree != nil {
		t.Fatal("OutlineOf kept a tree")
	}
	seqMod2, _, _ := Frontend("m.w2", good)
	parMod2, _, parBag2, err := FrontendParallel(context.Background(), "m.w2", good,
		FrontendOptions{Parallel: true, Workers: 4, Outline: outline})
	if err != nil || parMod2 == nil || parBag2.HasErrors() {
		t.Fatalf("tree-less outline fallback failed: %v %s", err, parBag2.String())
	}
	if got, want := ast.Format(parMod2), ast.Format(seqMod2); got != want {
		t.Error("tree-less outline fallback tree differs")
	}
}

// TestFrontendEntryCachedWithParity checks the cache integration end to end:
// an entry built by the parallel frontend — from src alone, or from the
// outline's tree with the outline's hashes and calls — must be
// interchangeable with one built sequentially (same module print,
// diagnostics, hashes and calls), and a second lookup must hit the entry the
// parallel build filled.
func TestFrontendEntryCachedWithParity(t *testing.T) {
	src := wgen.WideProgram(12, 3)
	h := fcache.HashSource(src)
	seq, _ := buildFrontendEntry("m.w2", src)

	for kind, outline := range outlines(src) {
		cache := fcache.New(1 << 20)
		par, err := ClaimFrontendEntry(context.Background(), cache, h, "m.w2", src,
			FrontendOptions{Parallel: true, Workers: 4, Outline: outline})()
		if err != nil {
			t.Fatal(err)
		}
		if outline != nil && outline.Tree != nil && par.Module != outline.Tree {
			t.Errorf("%s: the entry's module is not the outline's tree", kind)
		}
		if got, want := ast.Format(par.Module), ast.Format(seq.Module); got != want {
			t.Errorf("%s: cached modules differ", kind)
		}
		if got, want := par.Bag.String(), seq.Bag.String(); got != want {
			t.Errorf("%s: cached diagnostics differ: %q vs %q", kind, got, want)
		}
		if !reflect.DeepEqual(par.FuncHashes, seq.FuncHashes) {
			t.Errorf("%s: hashes differ from the sequential entry's", kind)
		}
		if !reflect.DeepEqual(par.Calls, seq.Calls) {
			t.Errorf("%s: calls differ from the sequential entry's", kind)
		}

		hit, err := ClaimFrontendEntry(context.Background(), cache, h, "m.w2", src,
			FrontendOptions{Parallel: true, Workers: 4})()
		if err != nil {
			t.Fatal(err)
		}
		if hit != par {
			t.Errorf("%s: second lookup rebuilt instead of hitting the cached entry", kind)
		}
	}
}

// TestFrontendParallelCancel checks a cancelled frontend exits promptly with
// ctx's error, returns nothing, leaks no goroutines — and that the
// cancellation is not cached: an immediate retry through the same cache with
// a live context succeeds.
func TestFrontendParallelCancel(t *testing.T) {
	src := wgen.WideProgram(48, 4)
	h := fcache.HashSource(src)
	cache := fcache.New(1 << 20)
	before := leakcheck.Take()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ClaimFrontendEntry(ctx, cache, h, "m.w2", src,
		FrontendOptions{Parallel: true, Workers: 4})()
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	before.Check(t)

	// The cache must not have memoized the cancellation.
	e, err := ClaimFrontendEntry(context.Background(), cache, h, "m.w2", src,
		FrontendOptions{Parallel: true, Workers: 4})()
	if err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	if e.Module == nil || e.Bag.HasErrors() || len(e.FuncHashes) == 0 {
		t.Errorf("retry produced a damaged entry: %+v", e)
	}
	seq, _, seqBag := Frontend("m.w2", src)
	if got, want := ast.Format(e.Module), ast.Format(seq); got != want {
		t.Error("retried entry differs from the sequential frontend")
	}
	if got, want := e.Bag.String(), seqBag.String(); got != want {
		t.Errorf("retried diagnostics differ: %q vs %q", got, want)
	}
}
