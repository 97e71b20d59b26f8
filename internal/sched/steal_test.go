package sched

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

func costedUnit(cost float64, names ...string) Unit {
	u := Unit{Cost: cost * float64(len(names))}
	for _, n := range names {
		u.Tasks = append(u.Tasks, Task{Name: n, Lines: int(cost)})
		u.Costs = append(u.Costs, cost)
	}
	return u
}

func TestSplitUnitCoversTasksExactly(t *testing.T) {
	u := costedUnit(10, "a", "b", "c", "d", "e")
	keep, stolen, ok := SplitUnit(u)
	if !ok {
		t.Fatal("5-task unit must split")
	}
	if len(keep.Tasks) == 0 || len(stolen.Tasks) == 0 {
		t.Fatalf("both halves must be non-empty: %d/%d", len(keep.Tasks), len(stolen.Tasks))
	}
	if len(keep.Tasks)+len(stolen.Tasks) != len(u.Tasks) {
		t.Fatalf("split lost tasks: %d + %d != %d", len(keep.Tasks), len(stolen.Tasks), len(u.Tasks))
	}
	got := map[string]bool{}
	for _, task := range append(append([]Task{}, keep.Tasks...), stolen.Tasks...) {
		if got[task.Name] {
			t.Fatalf("task %s duplicated by split", task.Name)
		}
		got[task.Name] = true
	}
	if diff := keep.Cost + stolen.Cost - u.Cost; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("split costs %g + %g != %g", keep.Cost, stolen.Cost, u.Cost)
	}
	if len(keep.Costs) != len(keep.Tasks) || len(stolen.Costs) != len(stolen.Tasks) {
		t.Error("per-task costs must stay parallel to tasks")
	}
}

func TestSplitUnitSingletonRefuses(t *testing.T) {
	u := costedUnit(10, "only")
	keep, _, ok := SplitUnit(u)
	if ok {
		t.Fatal("singleton must not split")
	}
	if len(keep.Tasks) != 1 || keep.Tasks[0].Name != "only" {
		t.Fatalf("refusing split must return the unit unchanged: %+v", keep)
	}
}

func TestSplitUnitWithoutCostsFallsBack(t *testing.T) {
	// Hand-built units may lack per-task costs; the split estimates them.
	u := Unit{Tasks: []Task{{Name: "a", Lines: 100}, {Name: "b", Lines: 10}}}
	keep, stolen, ok := SplitUnit(u)
	if !ok || len(keep.Tasks) != 1 || len(stolen.Tasks) != 1 {
		t.Fatalf("2-task unit must split 1/1, got %d/%d ok=%v", len(keep.Tasks), len(stolen.Tasks), ok)
	}
}

// TestStealerRunsEveryTaskExactlyOnce floods a small fleet from several
// concurrent submitters (as section masters do) and checks every task of
// every unit executes exactly once, regardless of how steals rearrange them.
func TestStealerRunsEveryTaskExactlyOnce(t *testing.T) {
	f := NewFleet(4)
	defer f.Close()
	b := f.Open("")
	defer b.Close()

	var mu sync.Mutex
	seen := map[string]int{}
	total := 0
	// Deliveries may exceed the number of submitted units when steals split
	// batches, so completion is tracked per task, not per run call.
	for sec := 0; sec < 3; sec++ {
		var units []Unit
		for i := 0; i < 5; i++ {
			names := []string{}
			for k := 0; k <= i; k++ {
				names = append(names, string(rune('a'+sec))+string(rune('0'+i))+string(rune('a'+k)))
			}
			units = append(units, costedUnit(float64(10+i), names...))
			total += len(names)
		}
		b.Submit(units, func(u Unit) {
			mu.Lock()
			for _, task := range u.Tasks {
				seen[task.Name]++
			}
			mu.Unlock()
		})
	}

	b.Drain() // waits for exactly this build's tasks
	mu.Lock()
	defer mu.Unlock()
	n := 0
	for _, c := range seen {
		n += c
	}
	if n != total || len(seen) != total {
		t.Fatalf("executed %d runs over %d distinct tasks, want %d of %d", n, len(seen), total, total)
	}
	for name, c := range seen {
		if c != 1 {
			t.Errorf("task %s executed %d times", name, c)
		}
	}
}

// TestStealerCracksQueuedBatchOpen pins the mid-flight split. One Submit
// carries two long blockers and a 4-function batch; LPT seeding (cost-desc
// onto the least-loaded slot) deterministically lands blocker A on slot 0
// and blocker B plus the queued batch on slot 1. Releasing A frees slot 0,
// whose own deque is empty — it must steal slot 1's lone queued batch by
// cracking it open rather than idling behind the victim.
func TestStealerCracksQueuedBatchOpen(t *testing.T) {
	f := NewFleet(2)
	defer f.Close()
	b := f.Open("")
	defer b.Close()

	release := map[string]chan struct{}{
		"blockA": make(chan struct{}),
		"blockB": make(chan struct{}),
	}
	started := make(chan string, 2)
	var mu sync.Mutex
	var runs [][]string
	ran := make(chan struct{}, 8)
	units := []Unit{
		costedUnit(100, "blockA"),              // slot 0
		costedUnit(90, "blockB"),               // slot 1
		costedUnit(10, "b1", "b2", "b3", "b4"), // queued on slot 1 (load 90 < 100)
	}
	b.Submit(units, func(u Unit) {
		if ch, blocking := release[u.Tasks[0].Name]; blocking {
			started <- u.Tasks[0].Name
			<-ch
			return
		}
		mu.Lock()
		names := []string{}
		for _, task := range u.Tasks {
			names = append(names, task.Name)
		}
		runs = append(runs, names)
		mu.Unlock()
		ran <- struct{}{}
	})
	<-started
	<-started // both slots now parked inside their blockers

	close(release["blockA"]) // free slot 0: it must steal-split the queued batch
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("freed slot never ran any part of the queued batch")
	}
	st := f.Stats()
	if st.Steals < 1 || st.BatchSplits < 1 {
		t.Fatalf("expected the steal to crack the batch open: %+v", st)
	}
	if st.CrossBuildSteals != 0 {
		t.Fatalf("single build must never count cross-build steals: %+v", st)
	}

	close(release["blockB"]) // free the victim: it runs the kept fragment
	b.Drain()
	mu.Lock()
	defer mu.Unlock()
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	if n != 4 {
		t.Fatalf("batch tasks executed = %d, want 4 (runs: %v)", n, runs)
	}
	if len(runs) < 2 {
		t.Errorf("split batch should arrive as >= 2 fragments, got %v", runs)
	}
	bs := b.Stats()
	if bs.Steals < 1 || bs.BatchSplits < 1 {
		t.Errorf("build-scoped stats must carry the steal/split: %+v", bs)
	}
}

// TestStealerParallelismOnSleepingUnits checks the fleet genuinely overlaps
// units: 8 sleeping units on 4 slots must finish in roughly two rounds, not
// eight (sleeps overlap even on one CPU).
func TestStealerParallelismOnSleepingUnits(t *testing.T) {
	f := NewFleet(4)
	defer f.Close()
	b := f.Open("")
	const d = 30 * time.Millisecond
	var units []Unit
	for i := 0; i < 8; i++ {
		units = append(units, costedUnit(10, string(rune('a'+i))))
	}
	start := time.Now()
	b.Submit(units, func(u Unit) { time.Sleep(d) })
	b.Drain()
	if elapsed := time.Since(start); elapsed > 6*d {
		t.Errorf("8 sleeping units on 4 slots took %v, want ~2 rounds of %v", elapsed, d)
	}
}

// TestStealerSubmitAfterCloseRunsSynchronously: late work is never dropped,
// whether the fleet or just this build's handle is closed.
func TestStealerSubmitAfterCloseRunsSynchronously(t *testing.T) {
	f := NewFleet(2)
	b := f.Open("")
	f.Close()
	f.Wait()
	ran := 0
	b.Submit([]Unit{costedUnit(1, "x"), costedUnit(1, "y")}, func(u Unit) { ran += len(u.Tasks) })
	if ran != 2 {
		t.Fatalf("submit after fleet close ran %d tasks synchronously, want 2", ran)
	}

	f2 := NewFleet(2)
	defer f2.Close()
	b2 := f2.Open("")
	b2.Close()
	ran = 0
	b2.Submit([]Unit{costedUnit(1, "z")}, func(u Unit) { ran += len(u.Tasks) })
	if ran != 1 {
		t.Fatalf("submit after build close ran %d tasks synchronously, want 1", ran)
	}
}

// TestStealerIdleTimeAccounting: a fleet that waits records idle time on the
// starved slots.
func TestStealerIdleTimeAccounting(t *testing.T) {
	f := NewFleet(2)
	time.Sleep(20 * time.Millisecond) // both slots parked with nothing to do
	f.Close()
	f.Wait()
	st := f.Stats()
	if len(st.IdleTime) != 2 {
		t.Fatalf("idle decomposition must be per-slot: %v", st.IdleTime)
	}
	for i, d := range st.IdleTime {
		if d <= 0 {
			t.Errorf("slot %d recorded no idle time", i)
		}
	}
}

// TestFleetMultiBuildExactlyOnce overlaps three builds from three tenants on
// one fleet and checks every task of every build executes exactly once, and
// that each build's Close returns independently of its siblings.
func TestFleetMultiBuildExactlyOnce(t *testing.T) {
	f := NewFleet(4)
	defer f.Close()

	var mu sync.Mutex
	seen := map[string]int{}
	var wg sync.WaitGroup
	totals := make([]int, 3)
	for bi := 0; bi < 3; bi++ {
		wg.Add(1)
		go func(bi int) {
			defer wg.Done()
			b := f.Open(fmt.Sprintf("tenant-%d", bi))
			var units []Unit
			for i := 0; i < 6; i++ {
				names := []string{}
				for k := 0; k <= i%3; k++ {
					names = append(names, fmt.Sprintf("b%d-u%d-t%d", bi, i, k))
				}
				units = append(units, costedUnit(float64(5+i), names...))
				totals[bi] += len(names)
			}
			b.Submit(units, func(u Unit) {
				mu.Lock()
				for _, task := range u.Tasks {
					seen[task.Name]++
				}
				mu.Unlock()
			})
			b.Drain()
			// After Drain, every one of this build's tasks must have run.
			mu.Lock()
			defer mu.Unlock()
			n := 0
			for name, c := range seen {
				if len(name) > 1 && name[1] == byte('0'+bi) {
					n += c
				}
			}
			if n != totals[bi] {
				t.Errorf("build %d: Close returned with %d of %d tasks executed", bi, n, totals[bi])
			}
		}(bi)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for name, c := range seen {
		if c != 1 {
			t.Errorf("task %s executed %d times", name, c)
		}
	}
}

// TestFleetCrossBuildStealCounted constructs a deterministic cross-build
// steal: build A blocks both slots, build B's lone unit queues behind one of
// them, and the first slot to come free — whose last executed unit was A's —
// must steal B's unit and count it as cross-build, attributed to B.
func TestFleetCrossBuildStealCounted(t *testing.T) {
	f := NewFleet(2)
	defer f.Close()
	a := f.Open("tenant-a")
	b := f.Open("tenant-b")

	releaseA := make(chan struct{})
	startedA := make(chan struct{}, 2)
	a.Submit([]Unit{costedUnit(100, "a1"), costedUnit(90, "a2")}, func(u Unit) {
		startedA <- struct{}{}
		<-releaseA
	})
	<-startedA
	<-startedA // both slots are executing build A

	ranB := make(chan struct{})
	b.Submit([]Unit{costedUnit(10, "b1")}, func(u Unit) { close(ranB) })

	close(releaseA) // freed slots' own deques may hold b1; either way B runs
	select {
	case <-ranB:
	case <-time.After(5 * time.Second):
		t.Fatal("build B's unit never ran")
	}
	a.Drain()
	b.Drain()

	bs := b.Stats()
	fs := f.Stats()
	// b1 was seeded onto the least-loaded slot's deque while both slots were
	// busy with A; whichever slot ran it, if it arrived by steal it must be
	// cross-build (the thief's previous unit was A's). It can also arrive by
	// an owner pop (seeded on the freed slot's own deque) — then no steal is
	// counted at all. Both counters must agree between build and fleet scope.
	if bs.Steals != fs.Steals-as(a).Steals || bs.CrossBuildSteals > bs.Steals {
		t.Errorf("inconsistent steal attribution: build=%+v fleet=%+v", bs, fs)
	}
	if bs.Steals == 1 && bs.CrossBuildSteals != 1 {
		t.Errorf("a steal of B's unit by an A-warmed slot must count cross-build: %+v", bs)
	}
	if fs.CrossBuildSteals != bs.CrossBuildSteals+as(a).CrossBuildSteals {
		t.Errorf("fleet cross-build tally must equal the builds' sum: fleet=%+v a=%+v b=%+v", fs, as(a), bs)
	}
}

func as(b *Build) StealStats { return b.Stats() }

// TestFleetDeficitPopPrefersStarvedTenant pins the fairness policy without
// timing: on a single-slot fleet a huge tenant's queue is draining when a
// tiny tenant submits two units. The huge tenant's served cost is already
// far ahead, so the slot must run both tiny units before touching another
// huge one — the deficit-weighted pop, deterministically observable.
func TestFleetDeficitPopPrefersStarvedTenant(t *testing.T) {
	f := NewFleet(1)
	defer f.Close()
	huge := f.Open("huge")
	tiny := f.Open("tiny")

	release := make(chan struct{})
	started := make(chan struct{}, 1)
	var mu sync.Mutex
	var order []string
	record := func(u Unit) {
		mu.Lock()
		order = append(order, u.Tasks[0].Name)
		mu.Unlock()
	}
	// First huge unit blocks the lone slot; ten more queue behind it.
	huge.Submit([]Unit{costedUnit(50, "huge-block")}, func(u Unit) {
		started <- struct{}{}
		<-release
		record(u)
	})
	<-started
	var rest []Unit
	for i := 0; i < 10; i++ {
		rest = append(rest, costedUnit(10, fmt.Sprintf("huge-%d", i)))
	}
	huge.Submit(rest, record)
	tiny.Submit([]Unit{costedUnit(1, "tiny-0"), costedUnit(1, "tiny-1")}, record)

	close(release)
	tiny.Drain() // waits for both tiny units
	mu.Lock()
	hugeDone, tinySeen := 0, 0
	for _, name := range order {
		if tinySeen == 2 {
			break // huge units resuming after tiny drained are fine
		}
		if name == "tiny-0" || name == "tiny-1" {
			tinySeen++
		} else {
			hugeDone++
		}
	}
	mu.Unlock()
	// The blocker finishes first (it was in flight); after it, served[huge]
	// is 50 vs served[tiny] 0, so both tiny units must precede every queued
	// huge unit.
	if hugeDone > 1 {
		t.Fatalf("tiny tenant starved: %d huge units ran before tiny finished (order %v)", hugeDone, order)
	}
	huge.Drain()
	huge.Close()
	tiny.Close()
}

// TestFleetBuildCloseDropsQueuedOrphans: closing a build mid-flight drops its
// queued units without ever invoking their run closures, waits only for its
// own in-flight unit, and leaves a sibling build's work untouched.
func TestFleetBuildCloseDropsQueuedOrphans(t *testing.T) {
	f := NewFleet(1)
	defer f.Close()
	a := f.Open("tenant-a")
	b := f.Open("tenant-b")

	release := make(chan struct{})
	started := make(chan struct{}, 1)
	var mu sync.Mutex
	ran := map[string]int{}
	record := func(u Unit) {
		mu.Lock()
		for _, task := range u.Tasks {
			ran[task.Name]++
		}
		mu.Unlock()
	}
	a.Submit([]Unit{costedUnit(50, "a-block")}, func(u Unit) {
		started <- struct{}{}
		<-release
		record(u)
	})
	<-started
	a.Submit([]Unit{
		costedUnit(10, "a-orphan-0"), costedUnit(10, "a-orphan-1"),
		costedUnit(10, "a-orphan-2", "a-orphan-3"),
	}, record)
	b.Submit([]Unit{costedUnit(5, "b-0"), costedUnit(5, "b-1")}, record)

	closed := make(chan struct{})
	go func() { a.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while the build's unit was still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release) // the in-flight blocker finishes; Close must now return
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the in-flight unit finished")
	}
	b.Close() // sibling must still complete normally

	mu.Lock()
	defer mu.Unlock()
	for name, c := range ran {
		if c != 1 {
			t.Errorf("task %s executed %d times", name, c)
		}
	}
	if ran["a-block"] != 1 || ran["b-0"] != 1 || ran["b-1"] != 1 {
		t.Errorf("in-flight and sibling work must run: %v", ran)
	}
	for i := 0; i < 4; i++ {
		if name := fmt.Sprintf("a-orphan-%d", i); ran[name] != 0 {
			t.Errorf("queued orphan %s ran after its build closed", name)
		}
	}
}

// TestSubmitSeedsInPlanOrder pins Submit's contract that the plan, not the
// fleet, decides seeding order: (a) an LPT plan is seeded exactly as a
// sort-by-cost-then-seed submit would seed it, and (b) an FCFS plan on a
// one-slot fleet runs in declaration order.
func TestSubmitSeedsInPlanOrder(t *testing.T) {
	var tasks []Task
	for i, lines := range []int{10, 400, 30, 250, 20, 300, 40, 15, 120, 35} {
		tasks = append(tasks, Task{Name: fmt.Sprintf("f%d", i), Index: i, Lines: lines})
	}

	t.Run("lpt", func(t *testing.T) {
		const slots = 3
		plan := PlanCosted(Costs(tasks), 100, slots)
		sorted := append([]Unit(nil), plan...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Cost > sorted[j].Cost })
		want := make([][]string, slots)
		loads := make([]float64, slots)
		for _, u := range sorted {
			least := 0
			for j := range loads {
				if loads[j] < loads[least] {
					least = j
				}
			}
			want[least] = append(want[least], u.Tasks[0].Name)
			loads[least] += u.Cost
		}

		// Pin every slot inside a blocker so the seeded deques sit still.
		f := NewFleet(slots)
		defer f.Close()
		b := f.Open("")
		defer b.Close()
		started, release := make(chan struct{}, slots), make(chan struct{})
		var blockers []Unit
		for i := 0; i < slots; i++ {
			blockers = append(blockers, costedUnit(1, fmt.Sprintf("block%d", i)))
		}
		b.Submit(blockers, func(Unit) { started <- struct{}{}; <-release })
		for i := 0; i < slots; i++ {
			<-started
		}
		b.Submit(plan, func(Unit) {})
		f.mu.Lock()
		got := make([][]string, slots)
		for i, q := range f.deques {
			for _, it := range q {
				got[i] = append(got[i], it.unit.Tasks[0].Name)
			}
		}
		f.mu.Unlock()
		close(release)
		b.Drain()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("LPT seeding changed:\n got %v\nwant %v", got, want)
		}
	})

	t.Run("fcfs", func(t *testing.T) {
		f := NewFleet(1)
		defer f.Close()
		b := f.Open("")
		defer b.Close()
		var got []string
		b.Submit(PlanCosted(Costs(tasks), 0, 1), func(u Unit) { got = append(got, u.Tasks[0].Name) })
		b.Drain()
		var want []string
		for _, task := range tasks {
			want = append(want, task.Name)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("FCFS plan ran out of declaration order:\n got %v\nwant %v", got, want)
		}
	})
}
