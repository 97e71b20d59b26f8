package sem_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/ast"
	"repro/internal/leakcheck"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/wgen"
)

// semSources is the parity corpus: clean wgen modules plus hand-written
// error-laden sources covering every emission-order collision — signature
// vs body errors on a parameter, missing-return vs redeclaration at the
// function keyword, duplicates across sections and streams.
func semSources() map[string][]byte {
	return map[string][]byte{
		"small": wgen.SmallFuncsProgram(10),
		"mixed": wgen.MixedProgram(6),
		"wide":  wgen.WideProgram(12, 3),
		"user":  wgen.UserProgram(),
		"redecl": []byte(`module t
section 1 {
	function f(a: int): int { return a; }
	function f(a: int): int { return a + 1; }
	function g(): int { return f(2); }
}
`),
		"missing_return_and_redecl": []byte(`module t
section 1 {
	function f(): int { var x: int = 1; x = 2; }
	function f(): int { return 3; }
	function g(): int { return f(); }
}
`),
		"param_sig_and_body": []byte(`module t (out ys: float[1])
section 1 {
	function f(a: float[2], a: int): int { return a; }
	function g(): int { return 1; }
}
`),
		"type_errors": []byte(`module t
section 1 {
	function f(x: int): int {
		var b: bool = x;
		var y: float = 1.5;
		while x { y = y + true; }
		return z;
	}
	function g(): int { return f(1, 2); }
}
`),
		"call_order": []byte(`module t
section 1 {
	function a(): int { return b(); }
	function b(): int { return 1; }
	function c(): int { return a() + b(); }
}
`),
		"dup_streams_sections": []byte(`module t (out ys: float[1], out ys: float[2])
section 1 of 3 {
	function f(): int { return 1; }
}
section 1 {
	function g(): int { return 2; }
}
`),
		"func_named_like_stream": []byte(`module t (in g: float[2], out ys: float[2])
section 1 {
	function f(): float { return g[0]; }
	function g(): float { return g[1]; }
	function h(): float { return g() + g[0]; }
}
`),
		"call_second_of_dup": []byte(`module t
section 1 {
	function f(): int { return 1; }
	function f(): float { return float(f()) + 0.5; }
	function g(): int { return f(); }
	function k(): float { return f(); }
}
section 2 {
	function f(): float { return 2.5; }
	function g(): float { return f(); }
}
`),
	}
}

func parseFor(t *testing.T, src []byte) *ast.Module {
	t.Helper()
	var bag source.DiagBag
	m := parser.Parse("m.w2", src, &bag)
	if m == nil {
		t.Fatalf("no module: %s", bag.String())
	}
	return m
}

// localNames summarizes Info.Locals keyed by the function's locator so that
// infos from two different parses of the same source can be compared.
func localNames(info *sem.Info) map[string][]string {
	out := make(map[string][]string)
	for fn, objs := range info.Locals {
		key := fmt.Sprintf("s%d.f%d", fn.SectionIndex, fn.FuncIndex)
		var names []string
		for _, o := range objs {
			names = append(names, o.Name)
		}
		out[key] = names
	}
	return out
}

// TestCheckParallelParity checks that CheckParallel's diagnostics and Info
// match Check's exactly across the corpus and worker counts. Each checker
// runs on its own parse of the source: checking mutates the tree (implicit
// widening conversions, resolved types), so sharing one tree would not
// compare two independent runs.
func TestCheckParallelParity(t *testing.T) {
	for name, src := range semSources() {
		for _, workers := range []int{1, 2, 4, 8} {
			seqMod := parseFor(t, src)
			var seqBag source.DiagBag
			seqInfo := sem.Check(seqMod, &seqBag)

			parMod := parseFor(t, src)
			var parBag source.DiagBag
			parInfo, err := sem.CheckParallel(context.Background(), parMod, &parBag, workers)
			if err != nil {
				t.Fatalf("%s/w%d: unexpected error: %v", name, workers, err)
			}

			if got, want := parBag.String(), seqBag.String(); got != want {
				t.Errorf("%s/w%d: diagnostics differ:\n got: %q\nwant: %q", name, workers, got, want)
			}
			if got, want := parBag.ErrorCount(), seqBag.ErrorCount(); got != want {
				t.Errorf("%s/w%d: error count %d, want %d", name, workers, got, want)
			}
			if got, want := len(parInfo.FuncObjs), len(seqInfo.FuncObjs); got != want {
				t.Errorf("%s/w%d: %d func objects, want %d", name, workers, got, want)
			}
			if got, want := len(parInfo.Uses), len(seqInfo.Uses); got != want {
				t.Errorf("%s/w%d: %d uses, want %d", name, workers, got, want)
			}
			gotLocals, wantLocals := localNames(parInfo), localNames(seqInfo)
			if len(gotLocals) != len(wantLocals) {
				t.Errorf("%s/w%d: locals for %d functions, want %d", name, workers, len(gotLocals), len(wantLocals))
			}
			for key, want := range wantLocals {
				got := gotLocals[key]
				if len(got) != len(want) {
					t.Errorf("%s/w%d: %s has locals %v, want %v", name, workers, key, got, want)
					continue
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s/w%d: %s local %d = %s, want %s", name, workers, key, i, got[i], want[i])
					}
				}
			}
			// The checked trees must print identically (widening rewrites
			// applied the same way).
			if got, want := ast.Format(parMod), ast.Format(seqMod); got != want {
				t.Errorf("%s/w%d: checked trees differ", name, workers)
			}
		}
	}
}

// TestCheckParallelCancel checks prompt, leak-free exit on cancellation.
func TestCheckParallelCancel(t *testing.T) {
	m := parseFor(t, wgen.WideProgram(48, 3))
	before := leakcheck.Take()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var bag source.DiagBag
	info, err := sem.CheckParallel(ctx, m, &bag, 4)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if info != nil {
		t.Fatal("cancelled check returned an Info")
	}
	before.Check(t)
}

// resolved renders where every identifier use of info resolves to, keyed by
// the use's position, so that the Infos of two parses can be compared object
// for object.
func resolved(info *sem.Info) map[source.Pos]string {
	out := make(map[source.Pos]string, len(info.Uses))
	for id, obj := range info.Uses {
		out[id.Pos()] = fmt.Sprintf("%s %s at %s", obj.Kind, obj.Name, obj.Pos)
	}
	return out
}

// TestCheckParallelPrefixViewsResolveLikeCheck: body i checks against a
// prefix view of its section's one keep-first scope, and every use must
// resolve to the object Check resolves it to — a duplicated function name,
// a function named like a stream, a call to a later function and a call to
// the second of two same-named functions included — at every worker count.
func TestCheckParallelPrefixViewsResolveLikeCheck(t *testing.T) {
	for name, src := range semSources() {
		seqMod := parseFor(t, src)
		var seqBag source.DiagBag
		want := resolved(sem.Check(seqMod, &seqBag))
		for _, workers := range []int{1, 2, 4, 8} {
			parMod := parseFor(t, src)
			var parBag source.DiagBag
			info, err := sem.CheckParallel(context.Background(), parMod, &parBag, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got, wantDiags := parBag.String(), seqBag.String(); got != wantDiags {
				t.Errorf("%s/w%d: diagnostics differ:\n got: %q\nwant: %q", name, workers, got, wantDiags)
			}
			got := resolved(info)
			if len(got) != len(want) {
				t.Errorf("%s/w%d: %d resolved uses, want %d", name, workers, len(got), len(want))
			}
			for pos, w := range want {
				if got[pos] != w {
					t.Errorf("%s/w%d: use at %s resolves to %q, want %q", name, workers, pos, got[pos], w)
				}
			}
		}
	}
}

// TestCheckParallelPrefixAllocationIsLinear: pass A shares one section scope
// among all bodies instead of copying functions 0..i-1 for every function
// i, so doubling the functions of a section at most about doubles what a
// check allocates. Bytes are measured as well as allocations: per-body
// copies grow the bytes quadratically while map growth keeps their count
// near n log n.
func TestCheckParallelPrefixAllocationIsLinear(t *testing.T) {
	measure := func(n int) (allocs, bytes float64) {
		m := parseFor(t, wgen.SmallFuncsProgram(n))
		check := func() {
			if _, err := sem.CheckParallel(context.Background(), m, &source.DiagBag{}, 2); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(3, check)
		bytes = math.Inf(1)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			check()
			runtime.ReadMemStats(&after)
			bytes = math.Min(bytes, float64(after.TotalAlloc-before.TotalAlloc))
		}
		return allocs, bytes
	}
	a256, b256 := measure(256)
	a512, b512 := measure(512)
	t.Logf("CheckParallel: %.0f allocations, %.0f bytes at 256 functions; %.0f, %.0f at 512", a256, b256, a512, b512)
	if a512 > 2.2*a256 {
		t.Errorf("allocations grow faster than linearly: %.0f at 512 functions > 2.2 × %.0f at 256", a512, a256)
	}
	if b512 > 2.2*b256 {
		t.Errorf("allocated bytes grow faster than linearly: %.0f at 512 functions > 2.2 × %.0f at 256", b512, b256)
	}
}
