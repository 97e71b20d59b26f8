// Parallel frontend driver: phase 1 with concurrent body checking
// (sem.CheckParallel) over the tree the master's structural parse already
// built (parser.Outline.Tree), so a build parses its source once. The
// sequential Frontend stays the oracle — both produce word-identical trees,
// semantic info, and diagnostics.
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
	// Parallel selects the parallel frontend; false keeps the sequential
	// path (byte-identical output either way).
	Parallel bool
	// Workers bounds the frontend's fan-out; <1 means GOMAXPROCS.
	Workers int
	// Outline, when the caller already ran parser.ParseOutline(file, src)
	// (the master's setup parse), supplies the tree to check and the
	// per-function hashes and calls of the cache entry. The frontend takes
	// over Outline.Tree: checking annotates and rewrites it. Nil, or an
	// outline without a tree, makes FrontendParallel parse src itself.
	Outline *parser.Outline
	// Timing, when non-nil, receives the internal wall times of the parallel
	// path. Untouched on the sequential path and on cache hits.
	Timing *FrontendTiming
}

// FrontendTiming reports where the parallel frontend's wall time went.
type FrontendTiming struct {
	CheckWall time.Duration // concurrent semantic checking
	Workers   int           // resolved worker bound
}

// FrontendParallel runs phase 1 with function-grain parallelism: function
// bodies are checked concurrently on at most fopts.Workers goroutines,
// against the outline's tree when fopts.Outline has one and against one
// parse of src otherwise. Tree, semantic info, and diagnostics are
// word-identical to Frontend's. The error is non-nil only when ctx was
// cancelled; every goroutine has exited by return.
func FrontendParallel(ctx context.Context, file string, src []byte, fopts FrontendOptions) (*ast.Module, *sem.Info, *source.DiagBag, error) {
	workers := fopts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if fopts.Timing != nil {
		*fopts.Timing = FrontendTiming{Workers: workers}
	}
	bag := &source.DiagBag{}
	var m *ast.Module
	if o := fopts.Outline; o != nil && o.Tree != nil {
		// ParseOutline keeps a tree only for a source that parsed without a
		// diagnostic (the parser emits no warnings), so the bag stays what a
		// parse would have left it: empty.
		m = o.Tree
	} else {
		m = parser.Parse(file, src, bag)
		if bag.HasErrors() {
			return m, nil, bag, nil
		}
	}

	t := time.Now()
	info, err := sem.CheckParallel(ctx, m, bag, workers)
	if err != nil {
		return nil, nil, nil, err
	}
	if fopts.Timing != nil {
		fopts.Timing.CheckWall = time.Since(t)
	}
	return m, info, bag, nil
}

// packageFrontendEntry wraps checked frontend artifacts as a cache entry,
// with every function's incremental hash and direct calls when the frontend
// succeeded. When m is the tree of outline o, the outline already computed
// them from the same bytes, and they are taken from it instead of hashing
// the module again.
func packageFrontendEntry(m *ast.Module, info *sem.Info, bag *source.DiagBag, src []byte, o *parser.Outline) (*fcache.FrontendEntry, int64) {
	e := &fcache.FrontendEntry{Module: m, Info: info, Bag: bag}
	if m != nil && !bag.HasErrors() {
		n := m.NumFunctions()
		e.FuncHashes = make(map[fcache.FuncKey]fcache.FuncHash, n)
		e.Calls = make(map[fcache.FuncKey][]int, n)
		if o != nil && o.Tree == m {
			for _, so := range o.Sections {
				for _, fo := range so.Functions {
					fk := fcache.FuncKey{Section: fo.Section, Index: fo.Index}
					e.FuncHashes[fk] = fcache.FuncHash(fo.Hash)
					e.Calls[fk] = fo.Calls
				}
			}
		} else {
			hs, calls := parser.HashFuncs(m, src)
			for k, v := range hs {
				fk := fcache.FuncKey{Section: k.Section, Index: k.Index}
				e.FuncHashes[fk] = fcache.FuncHash(v)
				e.Calls[fk] = calls[k]
			}
		}
	}
	// The checked AST is a few times larger than its source text; the
	// budget only needs the right order of magnitude.
	return e, int64(len(src))*8 + 4096
}

// ClaimFrontendEntry is FrontendEntryCached claimed ahead of the work
// (fcache.Cache.ClaimFrontend; call the returned function exactly once) and
// with a selectable frontend: on a miss with fopts.Parallel the entry is
// built by FrontendParallel, which fills the same tier the sequential one
// reads (the artifacts are word-identical). A cancelled parallel build
// caches nothing, and its error reaches only its own caller.
func ClaimFrontendEntry(ctx context.Context, cache *fcache.Cache, h fcache.SourceHash, file string, src []byte, fopts FrontendOptions) func() (*fcache.FrontendEntry, error) {
	return cache.ClaimFrontend(h, func() (*fcache.FrontendEntry, int64, error) {
		if !fopts.Parallel {
			e, cost := buildFrontendEntry(file, src)
			return e, cost, nil
		}
		m, info, bag, err := FrontendParallel(ctx, file, src, fopts)
		if err != nil {
			return nil, 0, err
		}
		e, cost := packageFrontendEntry(m, info, bag, src, fopts.Outline)
		return e, cost, nil
	})
}
