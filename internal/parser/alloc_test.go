package parser_test

import (
	"runtime"
	"testing"

	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/wgen"
)

// TestFuncHashesAllocationIsLinear bounds what hashing a module allocates by
// its size: a few allocations per function and a few bytes per source byte.
// The frontend hashes every function on every build, and indexing the earlier
// names once per function made the bytes quadratic in the function count (a
// 256-function module: 5800 allocations, 2.7 MB).
func TestFuncHashesAllocationIsLinear(t *testing.T) {
	const n = 256
	src := wgen.SmallFuncsProgram(n)
	var bag source.DiagBag
	m := parser.Parse("small.w2", src, &bag)
	if m == nil || bag.HasErrors() {
		t.Fatalf("parse: %s", bag.String())
	}
	if allocs := testing.AllocsPerRun(5, func() { parser.FuncHashes(m, src) }); allocs > 4*n {
		t.Errorf("FuncHashes made %.0f allocations for %d functions, want at most %d", allocs, n, 4*n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	parser.FuncHashes(m, src)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(src)); got > limit {
		t.Errorf("FuncHashes allocated %d bytes for %d bytes of source, want at most %d", got, len(src), limit)
	} else {
		t.Logf("FuncHashes: %d bytes allocated for %d bytes of source", got, len(src))
	}
}
