package core

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/compiler"
	"repro/internal/fcache"
	"repro/internal/wgen"
)

// TestStealParityMatchesSequential is the stealer's parity suite on the
// workloads that provoke steals and splits (skewed sections, batches of
// small functions): output and warnings must be word-identical to the
// sequential compiler at every worker count, on a backend that runs each
// unit in one slot and on one that serves it a function at a time — steals
// and splits reorder execution, never emission.
func TestStealParityMatchesSequential(t *testing.T) {
	programs := []struct {
		name string
		src  []byte
	}{
		{"skewed", wgen.SkewedProgram(3, 6)},
		{"small-funcs", wgen.SmallFuncsProgram(12)},
	}
	for _, p := range programs {
		seq, err := compiler.CompileModule("m.w2", p.src, compiler.Options{})
		if err != nil {
			t.Fatalf("%s sequential: %v", p.name, err)
		}
		for _, be := range backendRows {
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(p.name+"/"+be.name+"/w"+string(rune('0'+workers)), func(t *testing.T) {
					par, stats, err := ParallelCompileWith("m.w2", p.src, be.mk(workers),
						compiler.Options{}, ParallelOptions{})
					if err != nil {
						t.Fatalf("parallel: %v", err)
					}
					checkMatchesSequential(t, seq, par)
					if len(stats.Steal.IdleTime) != workers {
						t.Errorf("idle decomposition has %d slots, want %d", len(stats.Steal.IdleTime), workers)
					}
				})
			}
		}
	}
}

// newCachingBackend returns a localBackend whose cache has a disk tier,
// which switches on sample persistence.
func newCachingBackend(t *testing.T, workers int) *localBackend {
	t.Helper()
	b := newLocalBackend(workers)
	b.cache = fcache.New(16 << 20)
	if err := b.cache.AttachDisk(t.TempDir(), 16<<20); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEstimatorSamplesPersistAcrossBuilds drives the closed loop end to end:
// build 1 records observed samples into the disk tier, build 2 (a different
// module, so nothing object-caches) fits the model from them and reports the
// rank-correlation comparison. The fit guard guarantees the fitted model
// never ranks the persisted window worse than static, so ModelFitted may be
// legitimately false on noisy boxes — what must hold is that samples
// accumulate and the comparison is reported.
func TestEstimatorSamplesPersistAcrossBuilds(t *testing.T) {
	backend := newCachingBackend(t, 2)

	_, stats1, err := ParallelCompileWith("a.w2", wgen.UserProgram(), backend, compiler.Options{}, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats1.Steal.SampleCount != 0 {
		t.Errorf("cold cache must start with 0 persisted samples, got %d", stats1.Steal.SampleCount)
	}
	persisted := backend.cache.CostSamples()
	if len(persisted) == 0 {
		t.Fatal("build 1 must persist observed cost samples")
	}

	_, stats2, err := ParallelCompileWith("b.w2", wgen.SkewedProgram(2, 5), backend, compiler.Options{}, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Steal.SampleCount != len(persisted) {
		t.Errorf("build 2 saw %d persisted samples, want %d", stats2.Steal.SampleCount, len(persisted))
	}
	if n := len(backend.cache.CostSamples()); n <= len(persisted) {
		t.Errorf("build 2 must append its own samples: window %d after %d", n, len(persisted))
	}
	f, s := stats2.Steal.FittedRankCorr, stats2.Steal.StaticRankCorr
	if !math.IsNaN(f) && !math.IsNaN(s) && stats2.Steal.ModelFitted && f < s-0.25 {
		// The guard holds exactly on the persisted window; against the *new*
		// build's measured CPU both models face fresh noise, so allow slack —
		// but a fitted model far below static means the loop is broken.
		t.Errorf("fitted model ranks much worse than static on fresh build: fitted=%.2f static=%.2f", f, s)
	}

	// Cache hits must not contaminate the window: rebuilding a.w2 verbatim
	// compiles nothing and therefore records nothing new.
	before := len(backend.cache.CostSamples())
	_, _, err = ParallelCompileWith("a.w2", wgen.UserProgram(), backend, compiler.Options{}, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if after := len(backend.cache.CostSamples()); after != before {
		t.Errorf("all-hit rebuild changed the sample window: %d -> %d", before, after)
	}
}

// TestCorruptSampleRecordFallsBackStatic: scribbling over the persisted
// record must never fail a compile — the build runs on the static model and
// rewrites a clean window.
func TestCorruptSampleRecordFallsBackStatic(t *testing.T) {
	backend := newCachingBackend(t, 2)
	if _, _, err := ParallelCompileWith("a.w2", wgen.UserProgram(), backend, compiler.Options{}, ParallelOptions{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(backend.cache.DiskDir(), "cost-samples.wfc")
	if err := os.WriteFile(path, []byte("scribble"), 0o666); err != nil {
		t.Fatal(err)
	}
	_, stats, err := ParallelCompileWith("b.w2", wgen.SmallFuncsProgram(6), backend, compiler.Options{}, ParallelOptions{})
	if err != nil {
		t.Fatalf("corrupt sample record must not fail the build: %v", err)
	}
	if stats.Steal.ModelFitted || stats.Steal.SampleCount != 0 {
		t.Errorf("corrupt record must mean static model and an empty window: %+v", stats.Steal)
	}
	if n := len(backend.cache.CostSamples()); n == 0 {
		t.Error("the build after corruption must persist a fresh window")
	}
}
