package sched

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func costedUnit(cost float64, names ...string) Unit {
	u := Unit{Cost: cost * float64(len(names))}
	for _, n := range names {
		u.Tasks = append(u.Tasks, Task{Name: n, Lines: int(cost)})
	}
	return u
}

// counted wraps run so that wg.Done is called once per invocation, after
// run returns; the caller has added the number of units it submits.
func counted(wg *sync.WaitGroup, run func(Unit)) func(Unit) {
	return func(u Unit) {
		defer wg.Done()
		run(u)
	}
}

// waitOrFail waits for wg, failing the test if it takes longer than 5 s.
func waitOrFail(t *testing.T, wg *sync.WaitGroup, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestStealerRunsEveryTaskExactlyOnce floods a small fleet from several
// concurrent submitters (as section masters do) and checks every task of
// every unit executes exactly once.
func TestStealerRunsEveryTaskExactlyOnce(t *testing.T) {
	f := NewFleet(4)
	defer f.Close()
	b := f.Open("")
	defer b.Close()

	var mu sync.Mutex
	var wg sync.WaitGroup
	seen := map[string]int{}
	total := 0
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
		wg.Add(len(units))
		b.Submit(units, counted(&wg, func(u Unit) {
			mu.Lock()
			for _, task := range u.Tasks {
				seen[task.Name]++
			}
			mu.Unlock()
		}))
	}

	waitOrFail(t, &wg, "every unit")
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

// TestFleetQueuedWorkRunsOnFreeSlot pins work conservation: on a two-slot
// fleet one slot is held inside a blocker, and every unit queued behind it
// — singletons and a batch alike — must run on the other slot while the
// blocker is still held. Nothing queued waits for a particular slot.
func TestFleetQueuedWorkRunsOnFreeSlot(t *testing.T) {
	f := NewFleet(2)
	defer f.Close()
	b := f.Open("") // closed only on success: Close would wait on a held blocker

	started, release := make(chan struct{}), make(chan struct{})
	var blockerDone sync.WaitGroup
	blockerDone.Add(1)
	b.Submit([]Unit{costedUnit(100, "block")}, counted(&blockerDone, func(Unit) {
		close(started)
		<-release
	}))
	<-started // one slot is now held

	var mu sync.Mutex
	var ran []string
	var wg sync.WaitGroup
	units := []Unit{
		costedUnit(90, "big"),
		costedUnit(10, "b1", "b2", "b3", "b4"),
		costedUnit(5, "s1"),
		costedUnit(5, "s2"),
	}
	wg.Add(len(units))
	b.Submit(units, counted(&wg, func(u Unit) {
		mu.Lock()
		for _, task := range u.Tasks {
			ran = append(ran, task.Name)
		}
		mu.Unlock()
	}))
	waitOrFail(t, &wg, "the queued units while one slot is held")
	close(release)
	waitOrFail(t, &blockerDone, "the blocker")
	b.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 7 {
		t.Fatalf("queued tasks executed = %v, want all 7", ran)
	}
}

// TestStealerParallelismOnSleepingUnits checks the fleet genuinely overlaps
// units: 8 sleeping units on 4 slots must finish in roughly two rounds, not
// eight (sleeps overlap even on one CPU).
func TestStealerParallelismOnSleepingUnits(t *testing.T) {
	f := NewFleet(4)
	defer f.Close()
	b := f.Open("")
	defer b.Close()
	const d = 30 * time.Millisecond
	var units []Unit
	for i := 0; i < 8; i++ {
		units = append(units, costedUnit(10, string(rune('a'+i))))
	}
	var wg sync.WaitGroup
	wg.Add(len(units))
	start := time.Now()
	b.Submit(units, counted(&wg, func(u Unit) { time.Sleep(d) }))
	wg.Wait()
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
// starved slots, and a snapshot taken while they are still parked already
// counts the park so far — a build's idle delta covers its own window, not
// the time the slots were parked before it opened.
func TestStealerIdleTimeAccounting(t *testing.T) {
	f := NewFleet(2)
	for parked := false; !parked; time.Sleep(time.Millisecond) {
		f.mu.Lock()
		parked = !f.parked[0].IsZero() && !f.parked[1].IsZero()
		f.mu.Unlock()
	}
	before := f.IdleTime() // both slots parked with nothing to do
	time.Sleep(5 * time.Millisecond)
	for i, d := range f.IdleTime() {
		if d <= before[i] {
			t.Errorf("slot %d stayed parked, but its idle time did not grow: %v then %v", i, before[i], d)
		}
	}
	f.Close()
	f.Wait()
	idle := f.IdleTime()
	if len(idle) != 2 {
		t.Fatalf("idle decomposition must be per-slot: %v", idle)
	}
	for i, d := range idle {
		if d <= 0 {
			t.Errorf("slot %d recorded no idle time", i)
		}
	}
}

// TestFleetMultiBuildExactlyOnce overlaps three builds from three tenants on
// one fleet and checks every task of every build executes exactly once, and
// that each build's units all complete independently of its siblings.
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
			defer b.Close()
			var units []Unit
			for i := 0; i < 6; i++ {
				names := []string{}
				for k := 0; k <= i%3; k++ {
					names = append(names, fmt.Sprintf("b%d-u%d-t%d", bi, i, k))
				}
				units = append(units, costedUnit(float64(5+i), names...))
				totals[bi] += len(names)
			}
			var own sync.WaitGroup
			own.Add(len(units))
			b.Submit(units, counted(&own, func(u Unit) {
				mu.Lock()
				for _, task := range u.Tasks {
					seen[task.Name]++
				}
				mu.Unlock()
			}))
			own.Wait()
			// Once its own units are done, every one of this build's tasks
			// must have run.
			mu.Lock()
			defer mu.Unlock()
			n := 0
			for name, c := range seen {
				if len(name) > 1 && name[1] == byte('0'+bi) {
					n += c
				}
			}
			if n != totals[bi] {
				t.Errorf("build %d: %d of %d tasks executed", bi, n, totals[bi])
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

// TestFleetFreedSlotServesOtherBuild: build A holds both slots of a
// two-slot fleet, each in its own blocker, and build B's lone unit queues
// behind them. Releasing one of A's blockers must let B's unit run while
// A's other blocker is still held: a slot is not tied to the build it last
// served.
func TestFleetFreedSlotServesOtherBuild(t *testing.T) {
	f := NewFleet(2)
	defer f.Close()
	// The builds are closed only on success: Close would wait on a held
	// blocker.
	a := f.Open("tenant-a")
	b := f.Open("tenant-b")

	release := map[string]chan struct{}{"a1": make(chan struct{}), "a2": make(chan struct{})}
	var aStarted, aDone sync.WaitGroup
	aStarted.Add(2)
	aDone.Add(2)
	a.Submit([]Unit{costedUnit(100, "a1"), costedUnit(90, "a2")}, counted(&aDone, func(u Unit) {
		aStarted.Done()
		<-release[u.Tasks[0].Name]
	}))
	waitOrFail(t, &aStarted, "both slots to run build A")

	var bDone sync.WaitGroup
	bDone.Add(1)
	b.Submit([]Unit{costedUnit(10, "b1")}, counted(&bDone, func(Unit) {}))

	close(release["a1"])
	waitOrFail(t, &bDone, "build B's unit while a2 is still held")
	close(release["a2"])
	waitOrFail(t, &aDone, "build A's units")
	a.Close()
	b.Close()
}

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
	var hugeRan, tinyRan sync.WaitGroup
	hugeRan.Add(11)
	huge.Submit([]Unit{costedUnit(50, "huge-block")}, counted(&hugeRan, func(u Unit) {
		started <- struct{}{}
		<-release
		record(u)
	}))
	<-started
	var rest []Unit
	for i := 0; i < 10; i++ {
		rest = append(rest, costedUnit(10, fmt.Sprintf("huge-%d", i)))
	}
	huge.Submit(rest, counted(&hugeRan, record))
	tinyRan.Add(2)
	tiny.Submit([]Unit{costedUnit(1, "tiny-0"), costedUnit(1, "tiny-1")}, counted(&tinyRan, record))

	close(release)
	waitOrFail(t, &tinyRan, "both tiny units")
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
	waitOrFail(t, &hugeRan, "every huge unit")
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
	var bDone sync.WaitGroup
	bDone.Add(2)
	b.Submit([]Unit{costedUnit(5, "b-0"), costedUnit(5, "b-1")}, counted(&bDone, record))

	closed := make(chan struct{})
	go func() { a.Close(); close(closed) }()
	for dropped := false; !dropped; time.Sleep(time.Millisecond) {
		f.mu.Lock()
		dropped = len(f.queue) == 2 // only b's units are left
		f.mu.Unlock()
	}
	select {
	case <-closed:
		t.Fatal("Close returned while the build's unit was still in flight")
	default:
	}
	close(release) // the in-flight blocker finishes; Close must now return
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the in-flight unit finished")
	}
	waitOrFail(t, &bDone, "the sibling build's units") // sibling must still complete normally
	b.Close()

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
// fleet, decides execution order: on a one-slot fleet both an LPT plan
// (cost-descending, with batches) and an FCFS plan (declaration order) run
// unit for unit in the order the plan gives.
func TestSubmitSeedsInPlanOrder(t *testing.T) {
	var tasks []Task
	for i, lines := range []int{10, 400, 30, 250, 20, 300, 40, 15, 120, 35} {
		tasks = append(tasks, Task{Name: fmt.Sprintf("f%d", i), Index: i, Lines: lines})
	}
	for _, tc := range []struct {
		name      string
		threshold float64
	}{{"lpt", 100}, {"fcfs", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			plan := PlanCosted(Costs(tasks), tc.threshold, 3)
			var want []string
			for _, u := range plan {
				want = append(want, fmt.Sprint(u.Tasks))
			}
			f := NewFleet(1)
			defer f.Close()
			b := f.Open("")
			defer b.Close()
			var got []string
			var wg sync.WaitGroup
			wg.Add(len(plan))
			b.Submit(plan, counted(&wg, func(u Unit) { got = append(got, fmt.Sprint(u.Tasks)) }))
			waitOrFail(t, &wg, "the plan")
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s plan ran out of plan order:\n got %v\nwant %v", tc.name, got, want)
			}
		})
	}
}
