package sched

import (
	"testing"
	"testing/quick"
)

func mkTask(name string, lines, depth int) Task {
	return Task{Name: name, Lines: lines, LoopDepth: depth}
}

func TestEstimateCostOrdering(t *testing.T) {
	small := mkTask("s", 35, 2)
	large := mkTask("l", 280, 2)
	if EstimateCost(small) >= EstimateCost(large) {
		t.Error("more lines must cost more")
	}
	shallow := mkTask("a", 100, 1)
	deep := mkTask("b", 100, 3)
	if EstimateCost(shallow) >= EstimateCost(deep) {
		t.Error("deeper nesting must cost more")
	}
	if EstimateCost(mkTask("z", 100, 0)) != EstimateCost(mkTask("z", 100, 1)) {
		t.Error("depth 0 and 1 should cost the same (no nesting either way)")
	}
}

func TestGroupBalances(t *testing.T) {
	// One large and several small tasks on 2 processors: the large task
	// must sit alone (or nearly so).
	tasks := []Task{
		mkTask("big", 300, 3),
		mkTask("s1", 20, 1), mkTask("s2", 25, 1), mkTask("s3", 30, 1), mkTask("s4", 15, 1),
	}
	groups := Group(tasks, 2)
	if len(groups) != 2 {
		t.Fatalf("got %d groups", len(groups))
	}
	var bigGroup, smallGroup []Task
	for _, g := range groups {
		for _, task := range g {
			if task.Name == "big" {
				bigGroup = g
			}
		}
	}
	for _, g := range groups {
		if len(bigGroup) > 0 && &g[0] != &bigGroup[0] {
			smallGroup = g
		}
	}
	if len(bigGroup) == 0 {
		t.Fatal("big task lost")
	}
	if len(smallGroup) != 4 {
		t.Errorf("all four small tasks should share the other processor, got %d", len(smallGroup))
	}
}

func TestGroupDegenerateCases(t *testing.T) {
	if g := Group(nil, 3); len(g) != 3 {
		t.Errorf("empty task list should still give 3 (empty) groups")
	}
	tasks := []Task{mkTask("a", 10, 1)}
	g := Group(tasks, 0)
	if len(g) != 1 || len(g[0]) != 1 {
		t.Errorf("nproc<1 must clamp to 1: %v", g)
	}
}

func TestGroupMakespanNotWorseThanSingleProcessor(t *testing.T) {
	f := func(seeds []uint8, nproc uint8) bool {
		if len(seeds) == 0 {
			return true
		}
		p := int(nproc%8) + 1
		var tasks []Task
		total := 0.0
		for i, s := range seeds {
			task := mkTask(string(rune('a'+i%26)), int(s)+1, int(s)%4)
			tasks = append(tasks, task)
			total += EstimateCost(task)
		}
		groups := Group(tasks, p)
		ms := Makespan(groups)
		// Makespan can never beat total/p nor exceed the serial total; and
		// every task must appear exactly once.
		if ms > total+1e-9 || ms < total/float64(p)-1e-9 {
			return false
		}
		n := 0
		for _, g := range groups {
			n += len(g)
		}
		return n == len(tasks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupLPTBeatsNaiveSplitOnSkewedLoad(t *testing.T) {
	// §4.3's observation: grouping small functions achieves with fewer
	// processors what one-function-per-processor achieves with nine.
	tasks := []Task{
		mkTask("m1", 300, 3), mkTask("m2", 300, 3), mkTask("m3", 300, 3),
		mkTask("a1", 10, 1), mkTask("a2", 40, 1), mkTask("a3", 15, 1),
		mkTask("a4", 35, 1), mkTask("a5", 5, 1), mkTask("a6", 38, 1),
	}
	five := Makespan(Group(tasks, 5))
	nine := Makespan(Group(tasks, 9))
	if five > nine*1.15 {
		t.Errorf("5-processor grouped makespan %.0f should be close to 9-processor %.0f", five, nine)
	}
}

// ---------------------------------------------------------------------------
// Plan: the size-aware batched dispatch schedule.

func TestPlanThresholdZeroIsFCFS(t *testing.T) {
	// threshold 0 must reproduce the measured system exactly: one unit per
	// task in submission order, regardless of cost.
	tasks := []Task{mkTask("a", 10, 1), mkTask("b", 300, 3), mkTask("c", 50, 2)}
	units := Plan(tasks, 0, 4)
	if len(units) != len(tasks) {
		t.Fatalf("units = %d, want %d", len(units), len(tasks))
	}
	for i, u := range units {
		if len(u.Tasks) != 1 || u.Tasks[0].Name != tasks[i].Name {
			t.Errorf("unit %d = %+v, want singleton %q in submission order", i, u, tasks[i].Name)
		}
		if u.IsBatch() {
			t.Errorf("unit %d reported as batch", i)
		}
	}
}

func TestPlanNegativeThresholdIsLPTSingletons(t *testing.T) {
	tasks := []Task{mkTask("a", 10, 1), mkTask("b", 300, 3), mkTask("c", 50, 2)}
	units := Plan(tasks, -1, 4)
	if len(units) != 3 {
		t.Fatalf("units = %d, want 3", len(units))
	}
	want := []string{"b", "c", "a"} // cost-descending
	for i, u := range units {
		if len(u.Tasks) != 1 || u.Tasks[0].Name != want[i] {
			t.Errorf("unit %d = %v, want singleton %q", i, u.Tasks, want[i])
		}
	}
}

func TestPlanAllSmallOneBatchPerWorker(t *testing.T) {
	// The paper's worst case: a module of only small functions. With a
	// threshold above the total cost, the plan must still spread the work as
	// one batch per processor, not starve workers with a single huge batch.
	var tasks []Task
	for i := 0; i < 32; i++ {
		tasks = append(tasks, mkTask(string(rune('a'+i%26))+"x", 4+i%7, 1))
	}
	const nproc = 4
	units := Plan(tasks, 1e9, nproc)
	if len(units) != nproc {
		t.Fatalf("units = %d, want one batch per worker (%d)", len(units), nproc)
	}
	n := 0
	for _, u := range units {
		if !u.IsBatch() {
			t.Errorf("expected every unit to be a batch, got %v", u.Tasks)
		}
		n += len(u.Tasks)
	}
	if n != len(tasks) {
		t.Errorf("plan covers %d tasks, want %d", n, len(tasks))
	}
}

func TestPlanLargeSingletonsDispatchFirst(t *testing.T) {
	tasks := []Task{
		mkTask("s1", 10, 1), mkTask("s2", 12, 1), mkTask("s3", 8, 1),
		mkTask("big", 300, 3),
	}
	units := Plan(tasks, 100, 2)
	if len(units) < 2 {
		t.Fatalf("units = %d, want >= 2", len(units))
	}
	if len(units[0].Tasks) != 1 || units[0].Tasks[0].Name != "big" {
		t.Fatalf("largest function must dispatch first, got %v", units[0].Tasks)
	}
	for i := 1; i < len(units); i++ {
		if units[i].Cost > units[i-1].Cost {
			t.Errorf("units not cost-descending at %d: %g > %g", i, units[i].Cost, units[i-1].Cost)
		}
	}
}

func TestPlanBatchCostsRespectThreshold(t *testing.T) {
	// With enough small tasks the bin count follows total/threshold, so
	// batch totals land near the threshold rather than one giant batch.
	var tasks []Task
	for i := 0; i < 40; i++ {
		tasks = append(tasks, mkTask("t", 10, 1)) // cost 10 each, total 400
	}
	units := Plan(tasks, 100, 2)
	if len(units) != 4 {
		t.Fatalf("units = %d, want ceil(400/100) = 4", len(units))
	}
	for _, u := range units {
		if u.Cost > 150 {
			t.Errorf("batch cost %g far exceeds threshold", u.Cost)
		}
	}
}

func TestPlanCoversEveryTaskExactlyOnce(t *testing.T) {
	f := func(seeds []uint8, nproc uint8, threshold uint8) bool {
		var tasks []Task
		for i, s := range seeds {
			tasks = append(tasks, Task{
				Name: string(rune('a' + i%26)), Section: 1, Index: i,
				Lines: int(s) + 1, LoopDepth: int(s) % 4,
			})
		}
		units := Plan(tasks, float64(threshold), int(nproc%8)+1)
		seen := make(map[int]int)
		for _, u := range units {
			for _, task := range u.Tasks {
				seen[task.Index]++
			}
		}
		if len(seen) != len(tasks) {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRankCorrelation(t *testing.T) {
	cases := []struct {
		name string
		p, a []float64
		want float64
	}{
		{"perfect", []float64{1, 2, 3, 4}, []float64{10, 20, 30, 40}, 1},
		{"inverted", []float64{1, 2, 3, 4}, []float64{40, 30, 20, 10}, -1},
		{"constant", []float64{1, 1, 1}, []float64{1, 2, 3}, 0},
		{"short", []float64{1}, []float64{2}, 0},
		{"mismatched", []float64{1, 2}, []float64{1}, 0},
	}
	for _, c := range cases {
		if got := RankCorrelation(c.p, c.a); mathAbs(got-c.want) > 1e-9 {
			t.Errorf("%s: RankCorrelation = %g, want %g", c.name, got, c.want)
		}
	}
	// Ties share average ranks: still positively correlated.
	if got := RankCorrelation([]float64{1, 1, 2, 3}, []float64{5, 6, 7, 8}); got <= 0.5 {
		t.Errorf("tied predictions should stay strongly correlated, got %g", got)
	}
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
