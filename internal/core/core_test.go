package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/fcache"
	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/warpsim"
	"repro/internal/wgen"
)

// localBackend is a minimal in-package backend (the real pools live in
// internal/cluster; this avoids an import cycle in tests). Like
// cluster.LocalPool its workers share the master's cache — a fresh one per
// backend, so a backend's first build compiles every function for real. It
// counts the calls it serves.
type localBackend struct {
	sem   chan struct{}
	cache *fcache.Cache
	mu    sync.Mutex
	calls int
}

func newLocalBackend(n int) *localBackend {
	return &localBackend{sem: make(chan struct{}, n), cache: fcache.New(0)}
}

func (b *localBackend) Workers() int { return cap(b.sem) }

func (b *localBackend) Cache() *fcache.Cache { return b.cache }

func (b *localBackend) CompileBatch(ctx context.Context, req BatchRequest) ([]*CompileReply, error) {
	select {
	case b.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-b.sem }()
	b.mu.Lock()
	b.calls++
	b.mu.Unlock()
	return RunBatchWith(ctx, req, b.cache)
}

// batchlessBackend does not batch: it serves each function of a unit as its
// own one-function call on the inner backend, so the functions of one unit
// take a slot each instead of sharing one. Output must not depend on it.
type batchlessBackend struct{ *localBackend }

func (b batchlessBackend) CompileBatch(ctx context.Context, req BatchRequest) ([]*CompileReply, error) {
	replies := make([]*CompileReply, len(req.Items))
	for i, it := range req.Items {
		r, err := CompileOne(ctx, b.localBackend, CompileRequest{
			File:       req.File,
			Source:     req.Source,
			SourceHash: req.SourceHash,
			Section:    it.Section,
			Index:      it.Index,
			FuncHash:   it.FuncHash,
			Opts:       req.Opts,
		})
		if err != nil {
			return nil, err
		}
		replies[i] = r
	}
	return replies, nil
}

// backendRows are the backends every parity table runs on.
var backendRows = []struct {
	name string
	mk   func(workers int) Backend
}{
	{"batch-capable", func(w int) Backend { return newLocalBackend(w) }},
	{"batch-less", func(w int) Backend { return batchlessBackend{newLocalBackend(w)} }},
}

// checkMatchesSequential is the one parity bar: the download module and the
// merged warnings must be word-identical to the sequential compiler's.
func checkMatchesSequential(t *testing.T, seq, par *compiler.Result) {
	t.Helper()
	if err := VerifySameOutput(seq.Module, par.Module); err != nil {
		t.Errorf("output differs from sequential: %v", err)
	}
	if len(par.Warnings) != len(seq.Warnings) {
		t.Fatalf("warnings: got %d, want %d", len(par.Warnings), len(seq.Warnings))
	}
	for i := range seq.Warnings {
		if par.Warnings[i] != seq.Warnings[i] {
			t.Errorf("warning %d differs: %q vs %q", i, par.Warnings[i], seq.Warnings[i])
		}
	}
}

// TestParallelMatchesSequential compiles representative workloads through
// the pipelined master: the streaming link and speculative dispatch must be
// invisible in the output.
func TestParallelMatchesSequential(t *testing.T) {
	for _, src := range [][]byte{
		wgen.SyntheticProgram(wgen.Small, 4),
		wgen.MultiSectionProgram(wgen.Small, 3),
		wgen.MixedProgram(8),
		wgen.UserProgram(),
	} {
		seq, err := compiler.CompileModule("m.w2", src, compiler.Options{})
		if err != nil {
			t.Fatalf("sequential: %v", err)
		}
		par, stats, err := ParallelCompile("m.w2", src, newLocalBackend(4), compiler.Options{})
		if err != nil {
			t.Fatalf("parallel: %v", err)
		}
		checkMatchesSequential(t, seq, par)
		if stats.Elapsed <= 0 || stats.Workers != 4 || stats.Pipeline.CriticalPath <= 0 {
			t.Errorf("stats not populated: %+v", stats)
		}
		if len(stats.FuncCPU) != len(seq.Funcs) {
			t.Errorf("per-function CPU times: got %d, want %d", len(stats.FuncCPU), len(seq.Funcs))
		}
	}
}

func TestParallelResultRunsOnSimulator(t *testing.T) {
	src := wgen.SyntheticProgram(wgen.Small, 2)
	par, _, err := ParallelCompile("m.w2", src, newLocalBackend(2), compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	arr := warpsim.NewArray(par.Module, warpsim.Config{MaxCycles: 5_000_000})
	out, _, err := arr.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Errorf("expected one output from the entry, got %d", len(out))
	}
}

func TestMasterAbortsOnErrors(t *testing.T) {
	// Syntax error: the master's structure parse must abort before forking.
	_, _, err := ParallelCompile("bad.w2", []byte("module m section {"), newLocalBackend(2), compiler.Options{})
	if err == nil || !strings.Contains(err.Error(), "master: syntax errors") {
		t.Errorf("expected master syntax abort, got %v", err)
	}
	// Semantic error: discovered in the master's phase 1.
	bad := []byte(`
module m
section 1 {
    function f() { undeclared = 1; }
}
`)
	_, _, err = ParallelCompile("bad2.w2", bad, newLocalBackend(2), compiler.Options{})
	if err == nil || !strings.Contains(err.Error(), "front-end errors") {
		t.Errorf("expected master semantic abort, got %v", err)
	}
}

func TestRunFunctionMaster(t *testing.T) {
	src := wgen.SyntheticProgram(wgen.Small, 2)
	cache := fcache.New(0)
	reply, err := RunFunctionMasterWith(CompileRequest{
		File: "m.w2", Source: src, Section: 1, Index: 0,
	}, cache)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Name != "small_1" || reply.IsEntry {
		t.Errorf("unexpected reply: %+v", reply)
	}
	if len(reply.ObjectBytes) == 0 || reply.CPUTime <= 0 {
		t.Error("reply must carry object bytes and a CPU time")
	}
	// Entry function.
	reply2, err := RunFunctionMasterWith(CompileRequest{
		File: "m.w2", Source: src, Section: 1, Index: 1,
	}, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !reply2.IsEntry {
		t.Error("last function of the section must be the entry")
	}
	// Out-of-range index.
	if _, err := RunFunctionMasterWith(CompileRequest{File: "m.w2", Source: src, Section: 1, Index: 9}, cache); err == nil {
		t.Error("bad index must error")
	}
	if _, err := RunFunctionMasterWith(CompileRequest{File: "m.w2", Source: src, Section: 7, Index: 0}, cache); err == nil {
		t.Error("bad section must error")
	}
}

func TestTasksFromOutline(t *testing.T) {
	var bag source.DiagBag
	o := parser.ParseOutline("u.w2", wgen.UserProgram(), &bag)
	if o == nil || bag.HasErrors() {
		t.Fatal(bag.String())
	}
	tasks := Tasks(o)
	if len(tasks) != 9 {
		t.Fatalf("tasks = %d, want 9", len(tasks))
	}
	large := 0
	for _, task := range tasks {
		if task.Lines > 200 {
			large++
		}
	}
	if large != 3 {
		t.Errorf("large tasks = %d, want 3", large)
	}
}

func TestVerifySameOutputDetectsDifferences(t *testing.T) {
	src := wgen.SyntheticProgram(wgen.Tiny, 1)
	a, err := compiler.CompileModule("m.w2", src, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := compiler.CompileModule("m.w2", src, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySameOutput(a.Module, b.Module); err != nil {
		t.Fatalf("identical compiles should verify: %v", err)
	}
	// Corrupt one word.
	b.Module.Cells[0].Code[0][0].Imm++
	if err := VerifySameOutput(a.Module, b.Module); err == nil {
		t.Error("corruption not detected")
	}
}

// TestParallelPoliciesMatchSequential is the dispatch parity table: every
// dispatch policy over a module of many small functions — the paper's worst
// case — on a backend that runs each unit in one slot and on one that serves
// it a function at a time, at every worker count, checking word-identical
// output, the planned scheduling counters, and that every unit is one
// backend call. FCFS is the paper's policy (singleton units, declaration
// order) expressed as plan data on the one dispatch path.
//
// The cost estimator is static, so the plan is a function of the source and
// the options alone: the "history" row runs the default policy over a disk
// tier that has already compiled other programs, and must plan exactly the
// units the same build plans over a fresh cache.
func TestParallelPoliciesMatchSequential(t *testing.T) {
	src := wgen.SmallFuncsProgram(16)
	seq, err := compiler.CompileModule("small.w2", src, compiler.Options{})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	history := compiledHistory(t, wgen.SkewedProgram(2, 5), wgen.UserProgram())
	cases := []struct {
		name        string
		popts       ParallelOptions
		wantBatches bool // at least one multi-function unit planned
		wantUnits   int  // exact unit count; 0 = don't check
		history     bool // the cache's disk tier starts as a copy of history
	}{
		{"default", ParallelOptions{}, true, 0, false},
		{"fcfs", ParallelOptions{Sched: SchedFCFS}, false, 16, false},
		{"lpt-no-batch", ParallelOptions{BatchThreshold: -1}, false, 16, false},
		{"lpt-huge-threshold", ParallelOptions{BatchThreshold: 1e9}, true, 0, false},
		{"history", ParallelOptions{}, true, 0, true},
	}
	for _, be := range backendRows {
		for _, tc := range cases {
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/w%d", be.name, tc.name, workers), func(t *testing.T) {
					backend := be.mk(workers)
					if tc.history {
						dir := t.TempDir()
						copyDir(t, history, dir)
						if err := backend.Cache().AttachDisk(dir, 64<<20); err != nil {
							t.Fatal(err)
						}
					}
					par, stats, err := ParallelCompileWith("small.w2", src, backend, compiler.Options{}, tc.popts)
					if err != nil {
						t.Fatalf("parallel: %v", err)
					}
					checkMatchesSequential(t, seq, par)
					d := stats.Dispatch
					if tc.history {
						_, fresh, err := ParallelCompileWith("small.w2", src, be.mk(workers), compiler.Options{}, tc.popts)
						if err != nil {
							t.Fatalf("parallel over a fresh cache: %v", err)
						}
						f := fresh.Dispatch
						if d.Units != f.Units || d.Batches != f.Batches || d.BatchedFuncs != f.BatchedFuncs {
							t.Errorf("plan over a cache with history %d/%d/%d (units/batches/batched), over a fresh cache %d/%d/%d",
								d.Units, d.Batches, d.BatchedFuncs, f.Units, f.Batches, f.BatchedFuncs)
						}
					}
					if tc.wantBatches != (d.Batches > 0) {
						t.Errorf("want batches=%v, got %+v", tc.wantBatches, d)
					}
					if tc.wantUnits != 0 && d.Units != tc.wantUnits {
						t.Errorf("units = %d, want %d", d.Units, tc.wantUnits)
					}
					if d.Batches > 0 && d.BatchedFuncs < 2*d.Batches {
						t.Errorf("batched funcs %d inconsistent with %d batches", d.BatchedFuncs, d.Batches)
					}
					// Planned units map 1:1 onto backend calls; the
					// batch-less backend makes one inner call per function.
					switch b := backend.(type) {
					case *localBackend:
						if b.calls != d.Units {
							t.Errorf("backend served %d calls for %d units", b.calls, d.Units)
						}
					case batchlessBackend:
						if b.calls != len(seq.Funcs) {
							t.Errorf("batch-less backend served %d calls for %d functions", b.calls, len(seq.Funcs))
						}
					}
					if stats.CompileWallTime <= 0 {
						t.Errorf("CompileWallTime not populated: %+v", stats)
					}
				})
			}
		}
	}
}

// compiledHistory returns a disk-tier directory in which the given programs
// have been compiled, so it holds everything such builds leave behind.
func compiledHistory(t *testing.T, programs ...[]byte) string {
	t.Helper()
	dir := t.TempDir()
	b := newLocalBackend(2)
	if err := b.cache.AttachDisk(dir, 64<<20); err != nil {
		t.Fatal(err)
	}
	for i, src := range programs {
		if _, _, err := ParallelCompile(fmt.Sprintf("history%d.w2", i), src, b, compiler.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// copyDir copies the regular files of directory src into directory dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), data, 0o666)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// skewBackend drops the last reply of every batch — simulating a worker
// answering with the wrong number of objects.
type skewBackend struct{ *localBackend }

func (b *skewBackend) CompileBatch(ctx context.Context, req BatchRequest) ([]*CompileReply, error) {
	rs, err := RunBatchWith(ctx, req, b.cache)
	if err != nil {
		return nil, err
	}
	return rs[:len(rs)-1], nil
}

// TestBatchReplySkewIsError checks the streaming combine treats a
// request/reply mismatch as a hard error, never a silently dropped or
// zeroed function (the old `if k < len(r.Lines)` smell).
func TestBatchReplySkewIsError(t *testing.T) {
	src := wgen.SmallFuncsProgram(8)
	_, _, err := ParallelCompileWith("small.w2", src, &skewBackend{newLocalBackend(2)}, compiler.Options{},
		ParallelOptions{Sched: SchedLPT, BatchThreshold: 1e9})
	if err == nil || !strings.Contains(err.Error(), "skew") {
		t.Fatalf("expected dispatch-skew error, got %v", err)
	}
}

// TestEstimatorAccuracyOverWgen checks the lines×loop-nesting estimator
// orders the mixed user program usefully: the 300-line mains must rank above
// the 5–45-line helpers in measured CPU, which pins the rank correlation
// well above zero.
func TestEstimatorAccuracyOverWgen(t *testing.T) {
	_, stats, err := ParallelCompile("user.w2", wgen.UserProgram(), newLocalBackend(4), compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rc := stats.Dispatch.RankCorr; rc <= 0 {
		t.Errorf("estimator rank correlation = %.2f, want > 0 (predicted vs actual CPU)", rc)
	}
	if stats.DispatchTime < 0 || stats.CompileWallTime <= 0 {
		t.Errorf("timing split not populated: dispatch=%v compile-wall=%v", stats.DispatchTime, stats.CompileWallTime)
	}
}
