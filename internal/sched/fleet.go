// Dispatch fleet: one set of slot goroutines shared by every section master
// — and, under warpd, by every concurrent build — popping units from one
// FIFO queue. This is the paper's master: each unit goes to the next free
// slot, in the order the plan gives. Units arrive in plan order (an LPT plan
// cost-descending, an FCFS plan in declaration order), so the plan alone
// decides what runs first. When several builds share the fleet, a free slot
// takes the front-most unit of the tenant with the least executed cost, so
// one tenant's thousand-function build cannot starve a co-tenant's
// ten-function edit loop. The queue only orders *execution*; result
// emission stays keyed by declaration index upstream, so output is
// word-identical to sequential at every worker count, shared fleet or not.
//
// Lifecycle: a Fleet can outlive builds (warpd owns one for the daemon's
// lifetime). Each build Opens a tagged handle, Submits its units through
// it, and Closes the handle when its combine loops are done. Close waits
// only on that build's own in-flight units and drops its still-queued units
// as orphans (their run closures are never invoked), so one build's
// completion — or cancellation — never waits on, or perturbs, a
// co-tenant's.
package sched

import (
	"sync"
	"time"
)

// item pairs a queued unit with its submitter's dispatch closure and the
// build it belongs to, so one fleet can serve many section masters of many
// concurrent builds at once.
type item struct {
	unit Unit
	run  func(Unit)
	b    *buildState
}

// buildState is the fleet-side record of one open build: its fair-share
// identity and its live unit countdown.
type buildState struct {
	tenant string
	closed bool
	// pending counts units submitted and not yet finished or orphaned.
	// Build.Close waits for it to hit zero.
	pending int
}

// Fleet is the shared dispatch queue. Builds open tagged handles (Open),
// submit units through them, and close them independently; a fixed set of
// slot goroutines executes everything. Every submitted unit's run closure is
// invoked exactly once — unless the unit is still queued when its build
// closes, in which case it is dropped without ever invoking run.
//
// One mutex guards the queue: dispatch units are whole compile RPCs
// (milliseconds at minimum), so queue operations are never the bottleneck.
type Fleet struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []item
	// idle is each slot's total time parked with nothing queued, not
	// counting a park still in progress; parked is when that park began
	// (zero while the slot runs).
	idle   []time.Duration
	parked []time.Time
	// served accumulates executed estimated cost per tenant while that
	// tenant has open builds — the deficit bookkeeping behind pop order.
	// Keyed on the same client identity the daemon's Admitter uses for
	// fair-share admission.
	served map[string]float64
	// open counts open builds per tenant; a tenant's served entry is
	// dropped when its last build closes so a returning tenant starts from
	// zero deficit rather than its lifetime total.
	open   map[string]int
	closed bool
	wg     sync.WaitGroup
}

// NewFleet starts a fleet of nslots slot goroutines (clamped to ≥1).
func NewFleet(nslots int) *Fleet {
	if nslots < 1 {
		nslots = 1
	}
	f := &Fleet{
		idle:   make([]time.Duration, nslots),
		parked: make([]time.Time, nslots),
		served: make(map[string]float64),
		open:   make(map[string]int),
	}
	f.cond = sync.NewCond(&f.mu)
	f.wg.Add(nslots)
	for i := 0; i < nslots; i++ {
		go f.slot(i)
	}
	return f
}

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
	f.open[tenant]++
	return &Build{f: f, st: &buildState{tenant: tenant}}
}

// Submit appends the units to the fleet's queue in the order the plan gives
// them. run is invoked once per unit; closures from different sections —
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
		f.queue = append(f.queue, item{unit: u, run: run, b: b.st})
	}
	b.st.pending += len(units)
	f.mu.Unlock()
	f.cond.Broadcast()
}

// Close settles the build: still-queued units are dropped as orphans (run
// is never invoked for them — under cancellation their section masters
// have already unwound), then Close blocks until the build's in-flight
// units finish. Other builds on the fleet are untouched. Idempotent; after
// Close, Submit through this handle runs synchronously.
func (b *Build) Close() {
	f := b.f
	f.mu.Lock()
	if !b.st.closed {
		b.st.closed = true
		kept := f.queue[:0]
		for _, it := range f.queue {
			if it.b == b.st {
				b.st.pending--
				continue
			}
			kept = append(kept, it)
		}
		clear(f.queue[len(kept):])
		f.queue = kept
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

// IdleTime snapshots each slot's cumulative time parked with nothing
// queued, across every build the fleet has served, up to now: a slot
// parked at the snapshot counts its park so far, so the difference of two
// snapshots is the idle time between them.
func (f *Fleet) IdleTime() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := append([]time.Duration(nil), f.idle...)
	for i, t := range f.parked {
		if !t.IsZero() {
			out[i] += time.Since(t)
		}
	}
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

// slot is one fleet goroutine: take the next queued unit, run it, repeat;
// park while the queue is empty.
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

// finish retires one executed unit: credits its cost to the tenant's
// service tally (while the tenant still has open builds) and wakes a
// Build.Close waiting on the last unit.
func (f *Fleet) finish(it item) {
	f.mu.Lock()
	it.b.pending--
	if _, live := f.open[it.b.tenant]; live {
		f.served[it.b.tenant] += it.unit.Cost
	}
	done := it.b.pending <= 0
	f.mu.Unlock()
	if done {
		f.cond.Broadcast()
	}
}

// next returns the slot's next unit, parking until Submit or Close wakes it
// while the queue is empty. It reports false once the fleet is closed and
// drained.
func (f *Fleet) next(id int) (item, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.queue) == 0 {
		if f.closed {
			return item{}, false
		}
		f.parked[id] = time.Now()
		f.cond.Wait()
		f.idle[id] += time.Since(f.parked[id])
		f.parked[id] = time.Time{}
	}
	return f.pop(), true
}

// pop removes and returns the queue's next unit: among the tenants present
// it serves the one with the least executed cost so far (ties broken by
// queue order), and of that tenant's units takes the front-most —
// preserving plan order within a build. With a single tenant this is
// exactly "pop the front". Caller holds mu and the queue is non-empty.
func (f *Fleet) pop() item {
	q := f.queue
	pick := 0
	var seen map[string]bool // lazily allocated: nil while the queue is single-tenant
	for i := 1; i < len(q); i++ {
		t := q[i].b.tenant
		if t == q[pick].b.tenant {
			continue
		}
		if seen == nil {
			seen = map[string]bool{q[pick].b.tenant: true}
		}
		if seen[t] {
			continue // not t's first occurrence; its front-most unit was already compared
		}
		seen[t] = true
		if f.served[t] < f.served[q[pick].b.tenant] {
			pick = i
		}
	}
	it := q[pick]
	copy(q[pick:], q[pick+1:])
	q[len(q)-1] = item{}
	f.queue = q[:len(q)-1]
	return it
}
