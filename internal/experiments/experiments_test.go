package experiments

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/simhost"
	"repro/internal/stats"
	"repro/internal/wgen"
)

// These tests pin the reproduced shapes of the paper's evaluation: who
// wins, by roughly what factor, where the crossovers fall. They are the
// scientific regression suite — if a compiler or cost-model change breaks a
// claim of the paper, one of these fails.

func pm() costmodel.Params { return costmodel.Default1989() }

func get(t *testing.T, tbl *stats.Table, series string, x float64) float64 {
	t.Helper()
	v, ok := tbl.Get(series, x)
	if !ok {
		t.Fatalf("series %q has no point at x=%g in table %q", series, x, tbl.Title)
	}
	return v
}

// §4.2.1 / Figure 3: "for small functions, parallel compilation is of no
// use" — parallel elapsed exceeds sequential elapsed for f_tiny at small
// counts and never beats it meaningfully.
func TestFig03TinyParallelUseless(t *testing.T) {
	tbl := Fig03Tiny(pm())
	for _, n := range []float64{1, 2, 4} {
		seq := get(t, tbl, "seq elapsed", n)
		par := get(t, tbl, "par elapsed", n)
		if par <= seq {
			t.Errorf("n=%g: parallel (%.0fs) should be slower than sequential (%.0fs) for f_tiny", n, par, seq)
		}
	}
	if sp := get(t, tbl, "seq elapsed", 8) / get(t, tbl, "par elapsed", 8); sp > 1.3 {
		t.Errorf("f_tiny speedup at n=8 is %.2f; the paper finds essentially none", sp)
	}
}

// Figure 4: "adding more tasks does not increase execution time - a
// parallel programmer's dream": parallel elapsed grows only marginally
// with the number of f_large functions while sequential grows ~linearly.
func TestFig04LargeMarginalGrowth(t *testing.T) {
	tbl := Fig04Large(pm())
	par1 := get(t, tbl, "par elapsed", 1)
	par8 := get(t, tbl, "par elapsed", 8)
	seq1 := get(t, tbl, "seq elapsed", 1)
	seq8 := get(t, tbl, "seq elapsed", 8)
	if par8/par1 > 2.0 {
		t.Errorf("parallel f_large grew %.2fx from 1 to 8 functions; should be marginal", par8/par1)
	}
	if seq8/seq1 < 6 {
		t.Errorf("sequential f_large grew only %.2fx from 1 to 8 functions; should be ~linear", seq8/seq1)
	}
	if par8 >= seq8 {
		t.Error("parallel must be far faster than sequential for 8 large functions")
	}
}

// Figure 6 / abstract: speedup 3–6 for typical sizes at n=8, always > 1
// except f_tiny, increasing with the number of functions.
func TestFig06SpeedupBandAndMonotonicity(t *testing.T) {
	tbl := Fig06Speedup(pm())
	for _, size := range wgen.Sizes {
		prev := 0.0
		for _, n := range Counts {
			sp := get(t, tbl, size.String(), float64(n))
			if sp < prev {
				t.Errorf("%s: speedup not increasing with functions (%.2f after %.2f at n=%d)", size, sp, prev, n)
			}
			prev = sp
			if n >= 2 && size != wgen.Tiny && sp <= 1 {
				t.Errorf("%s at n=%d: speedup %.2f should exceed 1", size, n, sp)
			}
		}
	}
	for _, size := range []wgen.Size{wgen.Small, wgen.Medium, wgen.Large, wgen.Huge} {
		sp := get(t, tbl, size.String(), 8)
		if sp < 3.0 || sp > 8.0 {
			t.Errorf("%s at n=8: speedup %.2f outside the paper's 3-6 band (with slack)", size, sp)
		}
	}
}

// Figure 6/7: performance increases with size up to f_large and decreases
// again for f_huge ("for functions about the size of f_large, the behavior
// of the parallel compiler is optimal").
func TestFig07LargeOptimalHugeDips(t *testing.T) {
	tbl := Fig06Speedup(pm())
	for _, n := range []float64{4, 8} {
		small := get(t, tbl, "f_small", n)
		medium := get(t, tbl, "f_medium", n)
		large := get(t, tbl, "f_large", n)
		huge := get(t, tbl, "f_huge", n)
		if !(small < medium && medium < large) {
			t.Errorf("n=%g: speedup should increase with size up to f_large: %.2f %.2f %.2f", n, small, medium, large)
		}
		if huge >= large {
			t.Errorf("n=%g: f_huge speedup (%.2f) should dip below f_large (%.2f)", n, huge, large)
		}
	}
}

// Figure 8: for f_tiny the overhead reaches the majority of parallel
// elapsed time (paper: up to 70%), with system overhead the dominant part.
func TestFig08TinyOverheadDominates(t *testing.T) {
	tbl := Fig08OverheadSmall(pm())
	total := get(t, tbl, "rel total ovh f_tiny", 8)
	system := get(t, tbl, "rel system ovh f_tiny", 8)
	if total < 60 {
		t.Errorf("f_tiny total overhead at n=8 is %.0f%%, paper reports ~70%%", total)
	}
	if system < total/2 {
		t.Errorf("f_tiny system overhead (%.0f%%) should be a large share of total (%.0f%%)", system, total)
	}
	// Overhead grows with the number of functions.
	if get(t, tbl, "rel total ovh f_tiny", 1) >= total {
		t.Error("relative overhead must increase with the number of functions")
	}
}

// Figure 9: the paper's headline anomaly — the system overhead for
// f_medium is NEGATIVE when the number of functions is small (the
// sequential compiler pages against one workstation's memory), and turns
// positive as the parallel task count grows.
func TestFig09NegativeSystemOverheadMedium(t *testing.T) {
	tbl := Fig09OverheadMedium(pm())
	neg := false
	for _, n := range []float64{2, 4} {
		if get(t, tbl, "rel system ovh f_medium", n) < 0 {
			neg = true
		}
	}
	if !neg {
		t.Error("f_medium system overhead should be negative at small function counts")
	}
	if get(t, tbl, "rel system ovh f_medium", 8) <= 0 {
		t.Error("f_medium system overhead should turn positive at n=8")
	}
	// f_large has the lowest overhead (paper: <= 25%).
	for _, n := range Counts {
		if v := get(t, tbl, "rel total ovh f_large", float64(n)); v > 25 {
			t.Errorf("f_large total overhead at n=%d is %.0f%%, paper reports <=25%%", n, v)
		}
	}
}

// Figure 10: f_huge overhead grows with the number of functions and is
// substantial at n=8 (the paper reports ~50%; the shape matters).
func TestFig10HugeOverheadGrows(t *testing.T) {
	tbl := Fig10OverheadHuge(pm())
	o4 := get(t, tbl, "rel total ovh f_huge", 4)
	o8 := get(t, tbl, "rel total ovh f_huge", 8)
	if o8 <= o4 {
		t.Errorf("f_huge overhead should grow from n=4 (%.0f%%) to n=8 (%.0f%%)", o4, o8)
	}
	if o8 < 10 {
		t.Errorf("f_huge overhead at n=8 is only %.0f%%; paper reports a large share", o8)
	}
}

// Figure 11 / §4.3: user program speedups — ~2.16 on 2 processors
// (superlinear per-processor because the sequential compiler swaps), ~4.5
// on 9, and 5 processors nearly matching 9.
func TestFig11UserProgram(t *testing.T) {
	tbl := Fig11UserProgram(pm())
	s2 := get(t, tbl, "grouped (heuristic)", 2)
	s5 := get(t, tbl, "grouped (heuristic)", 5)
	s9 := get(t, tbl, "grouped (heuristic)", 9)
	naive9 := get(t, tbl, "one function per processor", 9)
	if s2 < 1.7 || s2 > 2.6 {
		t.Errorf("2-processor speedup %.2f; paper reports 2.16", s2)
	}
	if s9 < 3.0 || s9 > 5.5 {
		t.Errorf("9-processor speedup %.2f; paper reports ~4.5", s9)
	}
	if s5 < 0.85*s9 {
		t.Errorf("5-processor speedup (%.2f) should be almost as good as 9 (%.2f)", s5, s9)
	}
	if naive9 > s9*1.1 {
		t.Errorf("grouping on 9 (%.2f) should achieve what one-per-processor does (%.2f)", s9, naive9)
	}
	// More processors must help up to 5; beyond that the curve flattens
	// ("the speedup for 5 processors is almost as good as for 9"), so 9 may
	// tie with 5 within a small tolerance but must not collapse.
	if s2 >= s5 {
		t.Errorf("5 processors (%.2f) must beat 2 (%.2f)", s5, s2)
	}
	if s9 < 0.95*s5 {
		t.Errorf("9 processors (%.2f) collapsed below 5 (%.2f)", s9, s5)
	}
}

// §4.2.2: the Katseff-style processor sweep plateaus — adding processors
// past ~8 for the large program (5 for the small one) yields little.
func TestKatseffPlateau(t *testing.T) {
	tbl := KatseffSweep(pm())
	l8 := get(t, tbl, "large program (8 x f_large)", 8)
	l12 := get(t, tbl, "large program (8 x f_large)", 12)
	s5 := get(t, tbl, "small program (8 x f_small)", 5)
	s12 := get(t, tbl, "small program (8 x f_small)", 12)
	if l12 > l8*1.12 {
		t.Errorf("large program keeps speeding up past 8 processors: %.2f -> %.2f", l8, l12)
	}
	if s12 > s5*1.35 {
		t.Errorf("small program keeps speeding up past 5 processors: %.2f -> %.2f", s5, s12)
	}
	if l8 < s12 {
		t.Errorf("the large program should out-speed the small one (%.2f vs %.2f)", l8, s12)
	}
}

// Abstract/§6 headline: "speedup ranging from 3 to 6 using not more than 9
// processors" for typical programs.
func TestHeadlineBand(t *testing.T) {
	tbl := HeadlineSpeedup(pm())
	for _, s := range tbl.Series {
		for _, p := range s.Points {
			if p.Y < 2.5 || p.Y > 8 {
				t.Errorf("%s at x=%g: speedup %.2f outside the headline band", s.Name, p.X, p.Y)
			}
		}
	}
}

// Figures 14-16: absolute overheads increase with the number of functions
// for every size.
func TestAbsoluteOverheadsGrow(t *testing.T) {
	for _, tbl := range []*stats.Table{
		Fig14AbsOverheadSmall(pm()),
		Fig16AbsOverheadHuge(pm()),
	} {
		for _, s := range tbl.Series {
			if len(s.Points) < 2 {
				t.Fatalf("series %s too short", s.Name)
			}
			first, last := s.Points[0].Y, s.Points[len(s.Points)-1].Y
			if last <= first {
				t.Errorf("%s / %s: absolute overhead should grow with functions (%.0f -> %.0f)",
					tbl.Title, s.Name, first, last)
			}
		}
	}
}

// TestFigurePointsPresent: the points cmd/benchfig's headline readers and
// the paper's text quote exist in every figure the shape tests above do not
// already read them from — one row per (figure, series, x).
func TestFigurePointsPresent(t *testing.T) {
	for _, c := range []struct {
		fig    func(costmodel.Params) *stats.Table
		series string
		x      float64
	}{
		{Fig05Huge, "par elapsed", 8},
		{Fig05Huge, "seq elapsed", 8},
		{Fig07SpeedupVsSize, "8 function(s)", 280},
		{Fig07SpeedupVsSize, "8 function(s)", 4},
		{Fig12Small, "par elapsed", 8},
		{Fig13Medium, "par elapsed", 8},
		{Fig14AbsOverheadSmall, "total ovh f_tiny", 8},
		{Fig15AbsOverheadMedium, "total ovh f_medium", 8},
		{Fig16AbsOverheadHuge, "total ovh f_huge", 8},
		{HeadlineSpeedup, "user program", 9},
	} {
		get(t, c.fig(pm()), c.series, c.x)
	}
}

// Determinism: the DES produces identical timings on repeated runs.
func TestMeasurementsDeterministic(t *testing.T) {
	a := MeasureSn(wgen.Medium, 4, pm())
	b := MeasureSn(wgen.Medium, 4, pm())
	if a.Seq.Elapsed != b.Seq.Elapsed || a.Par.Elapsed != b.Par.Elapsed {
		t.Errorf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

// The grouped strategy must never lose to FCFS on the user program when
// processors are scarce.
func TestGroupedBeatsFCFSWhenScarce(t *testing.T) {
	o := outlineOf(wgen.UserProgram())
	for _, p := range []int{2, 3, 5} {
		fcfs := simhost.SimulateParallel(o, pm(), p, simhost.FCFS)
		grouped := simhost.SimulateParallel(o, pm(), p, simhost.Grouped)
		if grouped.Elapsed > fcfs.Elapsed*1.05 {
			t.Errorf("P=%d: grouped (%.0fs) should not lose to FCFS (%.0fs)", p, grouped.Elapsed, fcfs.Elapsed)
		}
	}
}

// AllFigures returns every figure exactly once with non-empty series.
func TestAllFiguresComplete(t *testing.T) {
	figs := AllFigures(pm())
	if len(figs) != 17 {
		t.Fatalf("AllFigures returned %d tables, want 17", len(figs))
	}
	seen := map[string]bool{}
	for _, tbl := range figs {
		if seen[tbl.Title] {
			t.Errorf("duplicate figure %q", tbl.Title)
		}
		seen[tbl.Title] = true
		if len(tbl.Series) == 0 {
			t.Errorf("figure %q has no series", tbl.Title)
		}
		for _, s := range tbl.Series {
			if len(s.Points) == 0 {
				t.Errorf("figure %q series %q empty", tbl.Title, s.Name)
			}
		}
	}
}

// §3.4: parallel make beats serial builds; the coexistence of parallel
// make and the parallel compiler beats either alone.
func TestPmakeComparison(t *testing.T) {
	tbl := PmakeComparison(pm())
	serial := get(t, tbl, "sequential everything", 1)
	pmakeSeq := get(t, tbl, "pmake + sequential compiler", 2)
	parSerial := get(t, tbl, "parallel compiler, serial modules", 3)
	coexist := get(t, tbl, "pmake + parallel compiler", 4)
	if pmakeSeq >= serial {
		t.Errorf("pmake (%.0fs) must beat fully sequential builds (%.0fs)", pmakeSeq, serial)
	}
	if parSerial >= serial {
		t.Errorf("the parallel compiler (%.0fs) must beat sequential builds (%.0fs)", parSerial, serial)
	}
	if coexist >= pmakeSeq || coexist >= parSerial {
		t.Errorf("coexistence (%.0fs) should beat pmake alone (%.0fs) and the parallel compiler alone (%.0fs)",
			coexist, pmakeSeq, parSerial)
	}
}
