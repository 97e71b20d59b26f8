// Parallel frontend driver: phase 1 with span-sliced parsing
// (parser.ParseModuleParallel) and concurrent body checking
// (sem.CheckParallel). The sequential Frontend stays the oracle — both
// produce word-identical trees, semantic info, and diagnostics — and the
// fallback for anything the parallel path cannot slice (sources with syntax
// errors have no outline and take one sequential parse).
package compiler

import (
	"context"
	"runtime"
	"time"

	"repro/internal/ast"
	"repro/internal/fcache"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

// FrontendOptions selects the frontend implementation for one compilation.
type FrontendOptions struct {
	// Parallel selects the span-sliced parallel frontend; false keeps the
	// sequential path (byte-identical output either way).
	Parallel bool
	// Workers bounds the frontend's fan-out; <1 means GOMAXPROCS.
	Workers int
	// Outline, when the caller already parsed one (the master's setup parse),
	// lets the parallel parse start slicing immediately. Nil makes
	// FrontendParallel derive it from src.
	Outline *parser.Outline
	// Timing, when non-nil, receives the internal wall times of the parallel
	// path. Untouched on the sequential path and on cache hits.
	Timing *FrontendTiming
}

// FrontendTiming reports where the parallel frontend's wall time went.
type FrontendTiming struct {
	ParseWall time.Duration // span-sliced parse, including the skeleton pass
	CheckWall time.Duration // concurrent semantic checking
	Workers   int           // resolved worker bound
}

// FrontendParallel runs phase 1 with function-grain parallelism: bodies are
// parsed from their outline spans and checked concurrently on at most
// fopts.Workers goroutines. Tree, semantic info, and diagnostics are
// word-identical to Frontend's. The error is non-nil only when ctx was
// cancelled; every goroutine has exited by return.
func FrontendParallel(ctx context.Context, file string, src []byte, fopts FrontendOptions) (*ast.Module, *sem.Info, *source.DiagBag, error) {
	workers := fopts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	outline := fopts.Outline
	if outline == nil {
		// No outline given: derive one. A source with syntax errors has no
		// outline; ParseModuleParallel then falls back to one sequential
		// parse whose diagnostics are the sequential frontend's exactly.
		outline = parser.ParseOutline(file, src, &source.DiagBag{})
	}

	bag := &source.DiagBag{}
	t0 := time.Now()
	m, err := parser.ParseModuleParallel(ctx, file, src, outline, workers, bag)
	parseWall := time.Since(t0)
	if err != nil {
		return nil, nil, nil, err
	}
	if fopts.Timing != nil {
		*fopts.Timing = FrontendTiming{ParseWall: parseWall, Workers: workers}
	}
	if bag.HasErrors() {
		return m, nil, bag, nil
	}

	t1 := time.Now()
	info, err := sem.CheckParallel(ctx, m, bag, workers)
	if err != nil {
		return nil, nil, nil, err
	}
	if fopts.Timing != nil {
		fopts.Timing.CheckWall = time.Since(t1)
	}
	return m, info, bag, nil
}

// FrontendWith runs phase 1 with the implementation fopts selects: the
// sequential Frontend, or FrontendParallel. Output is identical either way.
func FrontendWith(ctx context.Context, file string, src []byte, fopts FrontendOptions) (*ast.Module, *sem.Info, *source.DiagBag, error) {
	if !fopts.Parallel {
		m, info, bag := Frontend(file, src)
		return m, info, bag, nil
	}
	return FrontendParallel(ctx, file, src, fopts)
}

// packageFrontendEntry wraps checked frontend artifacts as a cache entry,
// computing per-function incremental hashes when the frontend succeeded.
func packageFrontendEntry(m *ast.Module, info *sem.Info, bag *source.DiagBag, src []byte) (*fcache.FrontendEntry, int64) {
	e := &fcache.FrontendEntry{Module: m, Info: info, Bag: bag}
	if m != nil && !bag.HasErrors() {
		hs, calls := parser.HashFuncs(m, src)
		e.FuncHashes = make(map[fcache.FuncKey]fcache.FuncHash, len(hs))
		e.Calls = make(map[fcache.FuncKey][]int, len(calls))
		for k, v := range hs {
			fk := fcache.FuncKey{Section: k.Section, Index: k.Index}
			e.FuncHashes[fk] = fcache.FuncHash(v)
			e.Calls[fk] = calls[k]
		}
	}
	// The checked AST is a few times larger than its source text; the
	// budget only needs the right order of magnitude.
	return e, int64(len(src))*8 + 4096
}

// FrontendEntryCachedWith is FrontendEntryCached with a selectable frontend
// implementation: on a cache miss the entry is built by FrontendWith, so a
// parallel frontend fills the same tier the sequential one reads (the
// artifacts are word-identical). Cancellation of a parallel build propagates
// as an error to every waiter and caches nothing.
func FrontendEntryCachedWith(ctx context.Context, cache *fcache.Cache, h fcache.SourceHash, file string, src []byte, fopts FrontendOptions) (*fcache.FrontendEntry, error) {
	if !fopts.Parallel {
		return FrontendEntryCached(cache, h, file, src), nil
	}
	build := func() (*fcache.FrontendEntry, int64, error) {
		m, info, bag, err := FrontendParallel(ctx, file, src, fopts)
		if err != nil {
			return nil, 0, err
		}
		e, cost := packageFrontendEntry(m, info, bag, src)
		return e, cost, nil
	}
	if cache == nil {
		e, _, err := build()
		return e, err
	}
	return cache.FrontendErr(h, build)
}
