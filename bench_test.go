// Package repro's benchmark harness: one benchmark per reproduced figure of
// "Parallel Compilation for a Parallel Machine" (PLDI 1989), plus the
// ablations called out in DESIGN.md. The real compiler is measured by
// cmd/warpbench (BENCHMARK.json), not here.
//
// The figure benches run the calibrated host simulation and report the
// headline metric of their figure as a custom unit (speedups, overhead
// percentages), so `go test -bench .` regenerates the paper's evaluation.
// Use `go run ./cmd/benchfig` to print the full series of every figure.
package repro

import (
	"testing"

	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/warpsim"
	"repro/internal/wgen"
)

func pm() costmodel.Params { return costmodel.Default1989() }

// reportFigure runs the generator b.N times and attaches headline metrics.
func reportFigure(b *testing.B, gen func(costmodel.Params) *stats.Table, metrics func(*stats.Table, *testing.B)) {
	b.Helper()
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		tbl = gen(pm())
	}
	if tbl != nil {
		metrics(tbl, b)
		if testing.Verbose() {
			b.Log("\n" + tbl.String())
		}
	}
}

func metric(b *testing.B, tbl *stats.Table, series string, x float64, unit string) {
	if v, ok := tbl.Get(series, x); ok {
		b.ReportMetric(v, unit)
	} else {
		b.Fatalf("missing %s at %g in %s", series, x, tbl.Title)
	}
}

func BenchmarkFig03Tiny(b *testing.B) {
	reportFigure(b, experiments.Fig03Tiny, func(t *stats.Table, b *testing.B) {
		metric(b, t, "par elapsed", 8, "par_s8_sec")
		metric(b, t, "seq elapsed", 8, "seq_s8_sec")
	})
}

func BenchmarkFig04Large(b *testing.B) {
	reportFigure(b, experiments.Fig04Large, func(t *stats.Table, b *testing.B) {
		metric(b, t, "par elapsed", 8, "par_s8_sec")
		metric(b, t, "seq elapsed", 8, "seq_s8_sec")
	})
}

func BenchmarkFig05Huge(b *testing.B) {
	reportFigure(b, experiments.Fig05Huge, func(t *stats.Table, b *testing.B) {
		metric(b, t, "par elapsed", 8, "par_s8_sec")
		metric(b, t, "seq elapsed", 8, "seq_s8_sec")
	})
}

func BenchmarkFig06Speedup(b *testing.B) {
	reportFigure(b, experiments.Fig06Speedup, func(t *stats.Table, b *testing.B) {
		metric(b, t, "f_large", 8, "large_speedup")
		metric(b, t, "f_huge", 8, "huge_speedup")
		metric(b, t, "f_tiny", 8, "tiny_speedup")
	})
}

func BenchmarkFig07SpeedupVsSize(b *testing.B) {
	reportFigure(b, experiments.Fig07SpeedupVsSize, func(t *stats.Table, b *testing.B) {
		metric(b, t, "8 function(s)", 280, "large_speedup")
		metric(b, t, "8 function(s)", 4, "tiny_speedup")
	})
}

func BenchmarkFig08OverheadSmall(b *testing.B) {
	reportFigure(b, experiments.Fig08OverheadSmall, func(t *stats.Table, b *testing.B) {
		metric(b, t, "rel total ovh f_tiny", 8, "tiny_ovh_pct")
	})
}

func BenchmarkFig09OverheadMedium(b *testing.B) {
	reportFigure(b, experiments.Fig09OverheadMedium, func(t *stats.Table, b *testing.B) {
		metric(b, t, "rel system ovh f_medium", 2, "medium_sysovh_n2_pct")
		metric(b, t, "rel total ovh f_large", 8, "large_ovh_n8_pct")
	})
}

func BenchmarkFig10OverheadHuge(b *testing.B) {
	reportFigure(b, experiments.Fig10OverheadHuge, func(t *stats.Table, b *testing.B) {
		metric(b, t, "rel total ovh f_huge", 8, "huge_ovh_n8_pct")
	})
}

func BenchmarkFig11UserProgram(b *testing.B) {
	reportFigure(b, experiments.Fig11UserProgram, func(t *stats.Table, b *testing.B) {
		metric(b, t, "grouped (heuristic)", 2, "speedup_p2")
		metric(b, t, "grouped (heuristic)", 9, "speedup_p9")
	})
}

func BenchmarkFig12Small(b *testing.B) {
	reportFigure(b, experiments.Fig12Small, func(t *stats.Table, b *testing.B) {
		metric(b, t, "par elapsed", 8, "par_s8_sec")
	})
}

func BenchmarkFig13Medium(b *testing.B) {
	reportFigure(b, experiments.Fig13Medium, func(t *stats.Table, b *testing.B) {
		metric(b, t, "par elapsed", 8, "par_s8_sec")
	})
}

func BenchmarkFig14AbsOverheadSmall(b *testing.B) {
	reportFigure(b, experiments.Fig14AbsOverheadSmall, func(t *stats.Table, b *testing.B) {
		metric(b, t, "total ovh f_tiny", 8, "tiny_ovh_sec")
	})
}

func BenchmarkFig15AbsOverheadMedium(b *testing.B) {
	reportFigure(b, experiments.Fig15AbsOverheadMedium, func(t *stats.Table, b *testing.B) {
		metric(b, t, "total ovh f_medium", 8, "medium_ovh_sec")
	})
}

func BenchmarkFig16AbsOverheadHuge(b *testing.B) {
	reportFigure(b, experiments.Fig16AbsOverheadHuge, func(t *stats.Table, b *testing.B) {
		metric(b, t, "total ovh f_huge", 8, "huge_ovh_sec")
	})
}

func BenchmarkKatseffProcessorSweep(b *testing.B) {
	reportFigure(b, experiments.KatseffSweep, func(t *stats.Table, b *testing.B) {
		metric(b, t, "large program (8 x f_large)", 8, "large_speedup_p8")
		metric(b, t, "small program (8 x f_small)", 5, "small_speedup_p5")
	})
}

func BenchmarkHeadlineSpeedup(b *testing.B) {
	reportFigure(b, experiments.HeadlineSpeedup, func(t *stats.Table, b *testing.B) {
		metric(b, t, "user program", 9, "user_speedup")
	})
}

func BenchmarkPmakeBaseline(b *testing.B) {
	reportFigure(b, experiments.PmakeComparison, func(t *stats.Table, b *testing.B) {
		metric(b, t, "pmake + sequential compiler", 2, "pmake_seq_sec")
		metric(b, t, "pmake + parallel compiler", 4, "coexist_sec")
	})
}

// Ablations (DESIGN.md): what each phase-3 strategy buys, measured as
// simulated cell cycles on the same program.
func BenchmarkAblationCodegen(b *testing.B) {
	src := []byte(`
module dotp (in xs: float[256], out ys: float[1])
section 1 {
    function cell() {
        var i: int;
        var a: float;
        var bb: float;
        var acc: float = 0.0;
        for i = 0 to 127 {
            receive(X, a);
            receive(X, bb);
            acc = acc + a * bb;
        }
        send(Y, acc);
    }
}
`)
	in := make([]float64, 256)
	for i := range in {
		in[i] = float64(i%13) * 0.25
	}
	cases := []struct {
		name string
		opts codegen.Options
	}{
		{"full", codegen.Options{}},
		{"no-pipelining", codegen.Options{DisablePipelining: true}},
		{"no-scheduling", codegen.Options{DisablePipelining: true, DisableScheduling: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			res, err := compiler.CompileModule("abl.w2", src, compiler.Options{Codegen: c.opts})
			if err != nil {
				b.Fatal(err)
			}
			var cycles int64
			for i := 0; i < b.N; i++ {
				arr := warpsim.NewArray(res.Module, warpsim.Config{})
				_, st, err := arr.Run(res.Driver.EncodeInput(in))
				if err != nil {
					b.Fatal(err)
				}
				cycles = st.Cycles
			}
			b.ReportMetric(float64(cycles), "cell_cycles")
		})
	}
}

// Ablation: the scheduling heuristic (§4.3) versus FCFS on scarce
// processors, in simulated seconds.
func BenchmarkAblationScheduling(b *testing.B) {
	o := mustOutline(b, wgen.UserProgram())
	for i := 0; i < b.N; i++ {
		fcfs := experimentsSimulateFCFS(o, 3)
		grouped := experimentsSimulateGrouped(o, 3)
		b.ReportMetric(fcfs, "fcfs_sec")
		b.ReportMetric(grouped, "grouped_sec")
	}
}

// Ablation: phase-2 optimization on vs off, measured in emitted words.
// Software pipelining is disabled on both sides so that prologue/epilogue
// replication (which deliberately trades words for cycles) does not mask
// the optimizer's code-size effect.
func BenchmarkAblationOptimizer(b *testing.B) {
	src := wgen.SyntheticProgram(wgen.Medium, 1)
	noPipe := codegen.Options{DisablePipelining: true}
	for i := 0; i < b.N; i++ {
		on, err := compiler.CompileModule("opt.w2", src, compiler.Options{Codegen: noPipe})
		if err != nil {
			b.Fatal(err)
		}
		off, err := compiler.CompileModule("opt.w2", src, compiler.Options{DisableOpt: true, Codegen: noPipe})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(on.Module.TotalWords()), "words_opt")
		b.ReportMetric(float64(off.Module.TotalWords()), "words_noopt")
	}
}
