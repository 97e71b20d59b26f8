// Work-stealing dispatch fleet: one set of slot goroutines shared by every
// section master — and, under warpd, by every concurrent build. Each slot
// owns a deque seeded in plan order (least-loaded slot first);
// owners pop queued units from their own deque, preferring the most
// service-deficient tenant when several builds' work is co-located, and a
// dry slot steals from the victim holding the most queued work of the
// fleet-wide most-deficient tenant — so one tenant's thousand-function
// build cannot starve a co-tenant's ten-function edit loop. When the
// chosen victim is down to one queued multi-function batch, the thief
// cracks it open with SplitUnit — mid-flight rebalancing a static plan
// cannot do. Stealing only reorders *execution*; result emission stays
// keyed by declaration index upstream, so output is word-identical to
// sequential at every worker count, shared fleet or not.
//
// Lifecycle: a Fleet can outlive builds (warpd owns one for the daemon's
// lifetime). Each build Opens a tagged handle, Submits its units through
// it, and Closes the handle when its combine loops are done. Close waits
// only on that build's own in-flight fragments and drops its still-queued
// units as orphans (their run closures are never invoked), so one build's
// completion — or cancellation — never waits on, or perturbs, a
// co-tenant's. With a single open build the fleet behaves exactly like the
// per-build stealer it replaced.
package sched

import (
	"sync"
	"time"
)

// StealStats counts rebalancing activity — fleet-lifetime totals from
// Fleet.Stats (with per-slot IdleTime), or scoped to one build from
// Build.Stats (IdleTime nil: slots are shared, idle belongs to the fleet).
type StealStats struct {
	// Steals counts steal operations (a dry slot taking work from a
	// victim's deque); BatchSplits the subset that cracked a queued
	// multi-function unit open because the victim had nothing else of the
	// chosen tenant's.
	Steals      int
	BatchSplits int
	// CrossBuildSteals is the subset of Steals where the thieving slot took
	// work from a different build than the one it last executed — nonzero
	// only when concurrent builds overlap on a shared fleet.
	CrossBuildSteals int
	// StealLatency totals the time thieves spent between running dry and
	// acquiring stolen work.
	StealLatency time.Duration
	// IdleTime is each slot's total time parked with no work anywhere in
	// the system — the straggler regime the stealer exists to shrink.
	IdleTime []time.Duration
}

// stealItem pairs a queued unit with its submitter's dispatch closure and
// the build it belongs to, so one fleet can serve many section masters of
// many concurrent builds at once.
type stealItem struct {
	unit Unit
	run  func(Unit)
	b    *buildState
}

// buildState is the fleet-side record of one open build: its fair-share
// identity, its live unit countdown, and its build-scoped counters.
type buildState struct {
	id     int
	tenant string
	closed bool
	// pending counts tasks (not units: splits conserve tasks) submitted and
	// not yet finished or orphaned. Build.Close waits for it to hit zero.
	pending int
	stats   StealStats
}

// Fleet is the shared work-stealing scheduler. Builds open tagged handles
// (Open), submit units through them, and close them independently; a fixed
// set of slot goroutines executes everything. Every submitted unit's run
// closure is invoked exactly once per resulting fragment (splits cover the
// unit's tasks exactly) — unless the unit is still queued when its build
// closes, in which case it is dropped without ever invoking run.
//
// The deques share one mutex: dispatch units are whole compile RPCs
// (milliseconds at minimum), so queue operations are never the bottleneck
// and the flat locking keeps split/steal/close atomicity trivial.
type Fleet struct {
	mu     sync.Mutex
	cond   *sync.Cond
	deques [][]stealItem
	loads  []float64 // summed queued cost per slot
	// last is the build each slot most recently executed a unit of — the
	// reference point for counting a steal as cross-build.
	last []*buildState
	// served accumulates executed estimated cost per tenant while that
	// tenant has open builds — the deficit bookkeeping behind pop order and
	// steal victim selection. Keyed on the same client identity the
	// daemon's Admitter uses for fair-share admission.
	served map[string]float64
	// open counts open builds per tenant; a tenant's served entry is
	// dropped when its last build closes so a returning tenant starts from
	// zero deficit rather than its lifetime total.
	open   map[string]int
	closed bool
	nextID int
	stats  StealStats
	wg     sync.WaitGroup
}

// NewFleet starts a fleet of nslots slot goroutines (clamped to ≥1).
func NewFleet(nslots int) *Fleet {
	if nslots < 1 {
		nslots = 1
	}
	f := &Fleet{
		deques: make([][]stealItem, nslots),
		loads:  make([]float64, nslots),
		last:   make([]*buildState, nslots),
		served: make(map[string]float64),
		open:   make(map[string]int),
	}
	f.stats.IdleTime = make([]time.Duration, nslots)
	f.cond = sync.NewCond(&f.mu)
	f.wg.Add(nslots)
	for i := 0; i < nslots; i++ {
		go f.slot(i)
	}
	return f
}

// Slots reports the fleet's slot count.
func (f *Fleet) Slots() int { return len(f.deques) }

// Build is one build's handle on a shared fleet: submissions are tagged
// with the build, and Close settles exactly this build's units.
type Build struct {
	f  *Fleet
	st *buildState
}

// Open registers a build under the given fair-share tenant identity
// (clients of the daemon pass the same identity the Admitter queues them
// by; standalone builds pass ""). The handle must be Closed.
func (f *Fleet) Open(tenant string) *Build {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nextID++
	st := &buildState{id: f.nextID, tenant: tenant}
	f.open[tenant]++
	return &Build{f: f, st: st}
}

// Submit seeds the units onto the fleet's deques in the order the plan gives
// them, each to the currently least-loaded slot. An LPT plan arrives
// cost-descending, so the initial placement matches the static plan's
// balance and stealing only has to fix what the estimator got wrong; an FCFS
// plan arrives in declaration order and is served in it. run is invoked
// once per unit (or per split fragment); closures from different sections —
// and different builds — interleave freely on the shared fleet.
//
// Submitting to a closed fleet or through a closed build runs the units
// synchronously in the caller's goroutine — late work is never dropped and
// never hangs.
func (b *Build) Submit(units []Unit, run func(Unit)) {
	f := b.f
	f.mu.Lock()
	if f.closed || b.st.closed {
		f.mu.Unlock()
		for _, u := range units {
			run(u)
		}
		return
	}
	for _, u := range units {
		least := 0
		for j := 1; j < len(f.loads); j++ {
			if f.loads[j] < f.loads[least] {
				least = j
			}
		}
		f.deques[least] = append(f.deques[least], stealItem{unit: u, run: run, b: b.st})
		f.loads[least] += u.Cost
		b.st.pending += len(u.Tasks)
	}
	f.mu.Unlock()
	f.cond.Broadcast()
}

// Stats snapshots this build's own counters: steals that took its units,
// splits of its batches, latency those thieves accrued. IdleTime is nil —
// slots are fleet property; use Fleet.Stats deltas for idle decomposition.
func (b *Build) Stats() StealStats {
	b.f.mu.Lock()
	defer b.f.mu.Unlock()
	return b.st.stats
}

// Drain blocks until every unit submitted so far through this handle has
// finished executing — a completion barrier that, unlike Close, never drops
// queued work. Section masters normally wait on their own result channels
// instead; Drain exists for callers that want a settled build before
// deciding to close it.
func (b *Build) Drain() {
	f := b.f
	f.mu.Lock()
	for b.st.pending > 0 {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// Close settles the build: still-queued units are dropped as orphans (run
// is never invoked for them — under cancellation their section masters
// have already unwound), then Close blocks until the build's in-flight
// fragments finish. Other builds on the fleet are untouched. Idempotent;
// after Close, Submit through this handle runs synchronously.
func (b *Build) Close() {
	f := b.f
	f.mu.Lock()
	if !b.st.closed {
		b.st.closed = true
		for i, q := range f.deques {
			kept := q[:0]
			for _, it := range q {
				if it.b == b.st {
					b.st.pending -= len(it.unit.Tasks)
					f.loads[i] -= it.unit.Cost
					continue
				}
				kept = append(kept, it)
			}
			f.deques[i] = kept
		}
		if f.open[b.st.tenant]--; f.open[b.st.tenant] <= 0 {
			delete(f.open, b.st.tenant)
			delete(f.served, b.st.tenant)
		}
	}
	for b.st.pending > 0 {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// Stats snapshots the fleet's cumulative counters across all builds it has
// served, including per-slot idle time.
func (f *Fleet) Stats() StealStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.stats
	out.IdleTime = append([]time.Duration(nil), f.stats.IdleTime...)
	return out
}

// Close retires the fleet without blocking: slots finish their in-flight
// units, drain whatever is still queued (under a cancelled context those
// runs return immediately), and exit. Wait blocks until they have.
func (f *Fleet) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.cond.Broadcast()
}

// Wait blocks until every slot goroutine has exited (Close must have been
// called, or Wait never returns).
func (f *Fleet) Wait() {
	f.wg.Wait()
}

// slot is one fleet goroutine: pop own work from the front, steal when dry,
// park when the whole system is dry.
func (f *Fleet) slot(id int) {
	defer f.wg.Done()
	for {
		it, ok := f.next(id)
		if !ok {
			return
		}
		it.run(it.unit)
		f.finish(it)
	}
}

// finish retires one executed fragment: credits its cost to the tenant's
// service tally (while the tenant still has open builds) and wakes a
// Build.Close waiting on the last fragment.
func (f *Fleet) finish(it stealItem) {
	f.mu.Lock()
	it.b.pending -= len(it.unit.Tasks)
	if _, live := f.open[it.b.tenant]; live {
		f.served[it.b.tenant] += it.unit.Cost
	}
	done := it.b.pending <= 0
	f.mu.Unlock()
	if done {
		f.cond.Broadcast()
	}
}

// next returns the slot's next unit: the front-most item of the most
// service-deficient tenant in its own deque, else stolen work from the
// victim holding the most queued cost of the fleet-wide most-deficient
// tenant, else it parks until Submit or Close wakes it.
func (f *Fleet) next(id int) (stealItem, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var drySince time.Time // set the first time this call finds its own deque empty
	for {
		if it, ok := f.popOwn(id); ok {
			f.last[id] = it.b
			return it, true
		}
		if victim, tenant := f.pickVictim(id); victim >= 0 {
			if drySince.IsZero() {
				drySince = time.Now()
			}
			it := f.steal(id, victim, tenant)
			lat := time.Since(drySince)
			f.stats.StealLatency += lat
			it.b.stats.StealLatency += lat
			f.last[id] = it.b
			return it, true
		}
		if f.closed {
			return stealItem{}, false
		}
		t := time.Now()
		f.cond.Wait()
		f.stats.IdleTime[id] += time.Since(t)
		if drySince.IsZero() {
			drySince = t
		}
	}
}

// popOwn takes the slot's next owned item: among the tenants present in
// its deque it serves the one with the least executed cost so far (ties
// broken by queue order), and of that tenant's items takes the front-most
// — preserving the LPT expensive-first order within a build. With a single
// open build this is exactly "pop the front". Caller holds mu.
func (f *Fleet) popOwn(id int) (stealItem, bool) {
	q := f.deques[id]
	if len(q) == 0 {
		return stealItem{}, false
	}
	pick := 0
	var seen map[string]bool // lazily allocated: nil while the deque is single-tenant
	for i := 1; i < len(q); i++ {
		t := q[i].b.tenant
		if t == q[pick].b.tenant {
			continue
		}
		if seen == nil {
			seen = map[string]bool{q[pick].b.tenant: true}
		}
		if seen[t] {
			continue // not t's first occurrence; its front-most item was already compared
		}
		seen[t] = true
		if f.served[t] < f.served[q[pick].b.tenant] {
			pick = i
		}
	}
	it := q[pick]
	f.deques[id] = append(q[:pick], q[pick+1:]...)
	f.loads[id] -= it.unit.Cost
	return it, true
}

// pickVictim chooses what a dry slot should steal: first the most
// service-deficient tenant with queued work anywhere else, then the slot
// holding the most queued cost of that tenant's items. Returns (-1, "")
// when the system is dry. Caller holds mu.
func (f *Fleet) pickVictim(id int) (int, string) {
	tenant, found := "", false
	for j := range f.deques {
		if j == id {
			continue
		}
		for _, it := range f.deques[j] {
			t := it.b.tenant
			if !found || f.served[t] < f.served[tenant] {
				tenant, found = t, true
			}
		}
	}
	if !found {
		return -1, ""
	}
	v, vcost := -1, 0.0
	for j := range f.deques {
		if j == id {
			continue
		}
		c, any := 0.0, false
		for _, it := range f.deques[j] {
			if it.b.tenant == tenant {
				c += it.unit.Cost
				any = true
			}
		}
		if any && (v < 0 || c > vcost) {
			v, vcost = j, c
		}
	}
	return v, tenant
}

// steal takes the chosen tenant's work from the victim for slot id and
// returns the item to run now. With two or more of the tenant's items
// queued there, the thief takes their back half (the cheap end — the
// victim keeps the expensive front it was about to serve). With exactly
// one queued multi-function unit, the thief cracks it open: the victim's
// queued unit shrinks to the front half and the thief runs the rest. A
// lone singleton just moves. The steal is attributed to the build of the
// item the thief runs now; it counts as cross-build when that build
// differs from the last build this slot executed. Caller holds mu.
func (f *Fleet) steal(id, victim int, tenant string) stealItem {
	q := f.deques[victim]
	var idxs []int
	for i, it := range q {
		if it.b.tenant == tenant {
			idxs = append(idxs, i)
		}
	}
	f.stats.Steals++
	if len(idxs) == 1 {
		it := q[idxs[0]]
		f.countSteal(id, it.b)
		if keep, stolen, ok := SplitUnit(it.unit); ok {
			q[idxs[0]] = stealItem{unit: keep, run: it.run, b: it.b}
			f.loads[victim] -= stolen.Cost
			f.stats.BatchSplits++
			it.b.stats.BatchSplits++
			return stealItem{unit: stolen, run: it.run, b: it.b}
		}
		f.deques[victim] = append(q[:idxs[0]], q[idxs[0]+1:]...)
		f.loads[victim] -= it.unit.Cost
		return it
	}
	half := len(idxs) / 2
	take := idxs[len(idxs)-half:]
	taken := make([]stealItem, 0, half)
	for _, i := range take {
		taken = append(taken, q[i])
		f.loads[victim] -= q[i].unit.Cost
	}
	kept := q[:0]
	stolen := make(map[int]bool, half)
	for _, i := range take {
		stolen[i] = true
	}
	for i, it := range q {
		if !stolen[i] {
			kept = append(kept, it)
		}
	}
	f.deques[victim] = kept
	f.countSteal(id, taken[0].b)
	// Run the first stolen item now; queue the rest on our own deque.
	for _, it := range taken[1:] {
		f.deques[id] = append(f.deques[id], it)
		f.loads[id] += it.unit.Cost
	}
	return taken[0]
}

// countSteal attributes one steal operation to the stolen build and, when
// the thief's previous unit came from a different build, to the cross-build
// tally. Caller holds mu.
func (f *Fleet) countSteal(thief int, b *buildState) {
	b.stats.Steals++
	if f.last[thief] != nil && f.last[thief] != b {
		f.stats.CrossBuildSteals++
		b.stats.CrossBuildSteals++
	}
}
