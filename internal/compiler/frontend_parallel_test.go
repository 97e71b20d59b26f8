package compiler

// Parity suite for the parallel frontend: FrontendParallel must be
// observationally identical to the sequential Frontend — same diagnostics,
// same checked tree, same semantic info shape, same per-function incremental
// hashes — across clean and error-laden sources and every worker count. Plus
// cancellation (prompt, leak-free exit) and the cache integration (a
// cancelled parallel build must not poison the frontend tier).

import (
	"context"
	"testing"

	"repro/internal/ast"
	"repro/internal/fcache"
	"repro/internal/leakcheck"
	"repro/internal/parser"
	"repro/internal/wgen"
)

// frontendCorpus covers the three frontend regimes: clean modules (span-
// sliced parse + concurrent check), syntax errors (no outline — sequential
// fallback), and semantic errors (parallel check with deterministic merge).
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

// TestFrontendParallelParity checks FrontendParallel ≡ Frontend across the
// corpus and worker counts 1/2/4/8: diagnostics, checked-tree print,
// semantic-info shape, and per-function incremental hashes. Each side runs
// against its own byte slice copy only of results — the AST is mutated by
// checking, so each frontend call parses its own tree already.
func TestFrontendParallelParity(t *testing.T) {
	for name, src := range frontendCorpus() {
		for _, workers := range []int{1, 2, 4, 8} {
			seqMod, seqInfo, seqBag := Frontend("m.w2", src)
			var timing FrontendTiming
			parMod, parInfo, parBag, err := FrontendParallel(context.Background(), "m.w2", src,
				FrontendOptions{Parallel: true, Workers: workers, Timing: &timing})
			if err != nil {
				t.Fatalf("%s/w%d: unexpected error: %v", name, workers, err)
			}

			if got, want := parBag.String(), seqBag.String(); got != want {
				t.Errorf("%s/w%d: diagnostics differ:\n got: %q\nwant: %q", name, workers, got, want)
			}
			if got, want := parBag.ErrorCount(), seqBag.ErrorCount(); got != want {
				t.Errorf("%s/w%d: error count %d, want %d", name, workers, got, want)
			}
			if (parInfo == nil) != (seqInfo == nil) {
				t.Fatalf("%s/w%d: info nil-ness differs: parallel %v, sequential %v",
					name, workers, parInfo == nil, seqInfo == nil)
			}
			if parInfo != nil {
				if got, want := len(parInfo.FuncObjs), len(seqInfo.FuncObjs); got != want {
					t.Errorf("%s/w%d: %d func objects, want %d", name, workers, got, want)
				}
				if got, want := len(parInfo.Uses), len(seqInfo.Uses); got != want {
					t.Errorf("%s/w%d: %d uses, want %d", name, workers, got, want)
				}
			}
			if got, want := ast.Format(parMod), ast.Format(seqMod); got != want {
				t.Errorf("%s/w%d: checked trees differ", name, workers)
			}
			if timing.Workers != workers {
				t.Errorf("%s/w%d: timing reports %d workers", name, workers, timing.Workers)
			}
			if !seqBag.HasErrors() {
				seqHashes := parser.FuncHashes(seqMod, src)
				parHashes := parser.FuncHashes(parMod, src)
				if len(seqHashes) != len(parHashes) {
					t.Fatalf("%s/w%d: %d hashes, want %d", name, workers, len(parHashes), len(seqHashes))
				}
				for k, want := range seqHashes {
					if got, ok := parHashes[k]; !ok || got != want {
						t.Errorf("%s/w%d: hash mismatch for s%d.f%d", name, workers, k.Section, k.Index)
					}
				}
			}
		}
	}
}

// TestFrontendEntryCachedWithParity checks the cache integration end to end:
// an entry built by the parallel frontend must be interchangeable with one
// built sequentially (same module print, diagnostics, and hash set), and a
// second lookup must hit the entry the parallel build filled.
func TestFrontendEntryCachedWithParity(t *testing.T) {
	src := wgen.WideProgram(12, 3)
	h := fcache.HashSource(src)

	cache := fcache.New(1 << 20)
	par, err := FrontendEntryCachedWith(context.Background(), cache, h, "m.w2", src,
		FrontendOptions{Parallel: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	seq := FrontendEntryCached(nil, h, "m.w2", src)

	if got, want := ast.Format(par.Module), ast.Format(seq.Module); got != want {
		t.Error("cached modules differ")
	}
	if got, want := par.Bag.String(), seq.Bag.String(); got != want {
		t.Errorf("cached diagnostics differ: %q vs %q", got, want)
	}
	if len(par.FuncHashes) != len(seq.FuncHashes) {
		t.Fatalf("%d hashes, want %d", len(par.FuncHashes), len(seq.FuncHashes))
	}
	for k, want := range seq.FuncHashes {
		if par.FuncHashes[k] != want {
			t.Errorf("hash mismatch for %v", k)
		}
	}

	hit, err := FrontendEntryCachedWith(context.Background(), cache, h, "m.w2", src,
		FrontendOptions{Parallel: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if hit != par {
		t.Error("second lookup rebuilt instead of hitting the cached entry")
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
	_, err := FrontendEntryCachedWith(ctx, cache, h, "m.w2", src,
		FrontendOptions{Parallel: true, Workers: 4})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	before.Check(t)

	// The cache must not have memoized the cancellation.
	e, err := FrontendEntryCachedWith(context.Background(), cache, h, "m.w2", src,
		FrontendOptions{Parallel: true, Workers: 4})
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
