package cluster_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/wgen"
)

// BenchmarkSharedDirColdStart measures a cold process starting next to a
// shared cache directory: the paper's diskless workstations over one file
// server. One warm pool fills the directory; every iteration then builds
// the wgen mixed workload (one huge function plus a tail of tiny ones) in a
// fresh LocalPool(4) over it, and must recompile nothing.
func BenchmarkSharedDirColdStart(b *testing.B) {
	dir := b.TempDir()
	b.Setenv("WARP_CACHE_DIR", dir)
	src := wgen.MixedProgram(12)
	if _, _, err := core.ParallelCompile("mixed.w2", src, cluster.NewLocalPool(4), compiler.Options{}); err != nil {
		b.Fatalf("warming the directory: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := cluster.NewLocalPool(4)
		_, st, err := core.ParallelCompile("mixed.w2", src, pool, compiler.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if st.Dispatch.RecompiledFuncs != 0 {
			b.Fatalf("cold start over a warm directory recompiled %d functions", st.Dispatch.RecompiledFuncs)
		}
	}
}
