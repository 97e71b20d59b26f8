package core_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/fcache"
	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/wgen"
)

// allocatedBy returns the bytes one run of f allocates: the least of three
// TotalAlloc deltas, so that an allocation elsewhere in the process during
// one run is not charged to f. The callers run nothing else and are not
// parallel tests.
func allocatedBy(f func()) uint64 {
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d < best {
			best = d
		}
	}
	return best
}

// TestOneEditBuildFrontendEntryCached: a build of a one-function edit on a
// warm LocalPool over 256 small functions parses the source once — the
// master's frontend entry holds the setup parse's tree, checked, and the
// outline's hashes and calls — and its allocation stays within budget. The
// budget is the figure measured on go1.24 when it was committed, plus 10%;
// DESIGN.md §17 has the per-site breakdown.
func TestOneEditBuildFrontendEntryCached(t *testing.T) {
	const measured = 3_037_528 // bytes per one-edit build, when the budget was committed
	const file = "small256.w2"
	ctx := context.Background()
	base := wgen.SmallFuncsProgram(256)
	pool := cluster.NewLocalPoolWith(2, fcache.New(0))
	if _, _, err := core.ParallelCompileContext(ctx, file, base, pool, compiler.Options{}, core.ParallelOptions{}); err != nil {
		t.Fatal(err)
	}
	// Every build gets its own edit, so none finds its frontend or its
	// edited function cached.
	edits := make([][]byte, 4)
	for i := range edits {
		src, _, err := wgen.MutateFunctions(base, 1, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		edits[i] = src
	}

	next := 0
	got := allocatedBy(func() {
		src := edits[next]
		next++
		if _, _, err := core.ParallelCompileContext(ctx, file, src, pool, compiler.Options{}, core.ParallelOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	budget := uint64(measured + measured/10)
	t.Logf("one-edit build: %d bytes (%.2f MB) allocated, budget %d", got, float64(got)/(1<<20), budget)
	if got > budget {
		t.Errorf("one-edit build allocated %d bytes, over its budget of %d", got, budget)
	}

	// The master's frontend leg on the last edit: its entry's module is the
	// outline's tree, and the hashes and calls it took from the outline are
	// what hashing the source afresh gives.
	src := edits[3]
	var bag source.DiagBag
	o := parser.ParseOutline(file, src, &bag)
	if o == nil {
		t.Fatal(bag.String())
	}
	fe, _, err := core.MasterFrontend(ctx, pool.Cache(), fcache.HashSource(src), file, src, o, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fe.Module != o.Tree {
		t.Error("the frontend entry's module is not the outline's tree")
	}
	hashes, calls := parser.HashFuncs(parser.Parse(file, src, &source.DiagBag{}), src)
	if len(fe.FuncHashes) != len(hashes) || len(fe.Calls) != len(calls) {
		t.Fatalf("entry has %d hashes and %d call lists, want %d", len(fe.FuncHashes), len(fe.Calls), len(hashes))
	}
	for k, h := range hashes {
		fk := fcache.FuncKey{Section: k.Section, Index: k.Index}
		if fe.FuncHashes[fk] != fcache.FuncHash(h) {
			t.Errorf("s%d.f%d: entry hash differs from HashFuncs", k.Section, k.Index)
		}
		if !reflect.DeepEqual(fe.Calls[fk], calls[k]) {
			t.Errorf("s%d.f%d: entry calls %v, HashFuncs %v", k.Section, k.Index, fe.Calls[fk], calls[k])
		}
	}

	// The build of that edit answers its frontend from the entry the leg
	// filled and matches the sequential compiler.
	res, _, err := core.ParallelCompileContext(ctx, file, src, pool, compiler.Options{}, core.ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := compiler.CompileModule(file, src, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifySameOutput(seq.Module, res.Module); err != nil {
		t.Error(err)
	}
	if again := compiler.FrontendEntryCached(pool.Cache(), fcache.HashSource(src), file, src); again != fe {
		t.Error("the build replaced the frontend entry the leg filled")
	}
}
