package core

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/wgen"
)

// TestStealParityMatchesSequential is the fleet's parity suite on the
// workloads whose units finish furthest out of order (skewed sections,
// batches of small functions): output and warnings must be word-identical
// to the sequential compiler at every worker count, on a backend that runs
// each unit in one slot and on one that serves it a function at a time —
// the queue reorders execution, never emission.
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
