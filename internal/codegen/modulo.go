package codegen

import (
	"fmt"
	"sort"

	"repro/internal/machine"
)

// Software pipelining by iterative modulo scheduling (phase 3's headline
// optimization, after Lam's work for the actual Warp compiler).
//
// Scope: self-loop blocks (produced by loop inversion + merging) that are
// counted loops with a compile-time-constant trip count and no spill code.
// The scheduler finds an initiation interval II, assigns every body op a
// cycle t in [0, S*II), and materializes an explicit prologue (filling the
// pipeline), a kernel of exactly II words executed trip-(S-1) times, and an
// epilogue (draining). Loops that do not fit the scope fall back to list
// scheduling; the generated code is correct either way, pipelining only
// changes performance.

// PipelineResult reports what the pipeliner did with one loop.
type PipelineResult struct {
	Applied bool
	Reason  string // why not applied, when Applied is false
	II      int
	Stages  int
	// SeqLen is the list-scheduled body length for comparison (the paper's
	// compiler reports similar statistics).
	SeqLen int
}

// modEdge is a dependence with an iteration distance.
type modEdge struct {
	from, to int
	delay    int
	dist     int
}

// TryPipeline attempts to software-pipeline the loop in b (a block of pf).
// On success it returns replacement blocks (prologue+kernel+epilogue, all
// pre-scheduled) and a result; on failure it returns nil blocks and the
// reason.
func TryPipeline(pf *PFunc, b *PBlock, exitLabel string) ([]*PBlock, PipelineResult) {
	res := PipelineResult{}
	if !b.SelfLoop || b.Loop == nil {
		res.Reason = "not a constant-trip counted loop"
		return nil, res
	}
	if b.HasSpills {
		res.Reason = "loop contains spill code"
		return nil, res
	}
	n := len(b.Ops)
	if n < 4 {
		res.Reason = "loop too small"
		return nil, res
	}
	li := b.Loop

	// Body ops: everything except the comparison, the loop-back BT and the
	// exit JMP.
	body := make([]POp, 0, n)
	for i := 0; i < n; i++ {
		if i == li.CmpIdx || i == li.BranchIdx || i == n-1 {
			continue
		}
		if machine.IsBranch(b.Ops[i].Op) {
			res.Reason = "internal control flow"
			return nil, res
		}
		body = append(body, b.Ops[i])
	}
	if len(body) == 0 {
		res.Reason = "empty body"
		return nil, res
	}
	// The branch condition register must not be used by the body (it is
	// replaced by the new kernel counter).
	condReg := b.Ops[li.BranchIdx].A
	var ub [2]machine.Reg
	for i := range body {
		for _, u := range physUses(&body[i], &ub) {
			if u == condReg {
				res.Reason = "condition register used by body"
				return nil, res
			}
		}
		if machine.Info(body[i].Op).HasDst && body[i].Dst == condReg {
			res.Reason = "condition register defined by body"
			return nil, res
		}
		// The kernel counter, its comparison, and the -1 constant live in
		// the reserved scratch registers, which must be untouched here.
		if touches(&body[i], scratch1) || touches(&body[i], scratch2) || touches(&body[i], scratch3) {
			res.Reason = "body touches reserved scratch registers"
			return nil, res
		}
	}

	// Modulo renaming: register allocation ran before scheduling, so
	// distinct loop temporaries may share a physical register, creating
	// false cross-iteration recurrences that inflate II. Rename each purely
	// local temporary chain to its own free register.
	renameLoopTemps(pf, b, body)

	edges := moduloDeps(body)
	g := newModGraph(body, edges)
	mii := resMII(body)
	if rec := recMIILower(g); rec > mii {
		mii = rec
	}
	if mii < 1 {
		mii = 1
	}

	maxII := 0
	for i := range body {
		maxII += machine.Info(body[i].Op).Latency
	}
	maxII += 4

	// Exact recurrence bound: raise mii to the smallest II with no positive
	// cycle in the dependence graph under weights delay - II*dist. Searching
	// below it would only burn scheduling budget on infeasible IIs.
	mii = recMIIExact(len(body), edges, mii, maxII)

	// An II at or beyond the critical path of one iteration cannot overlap
	// iterations; the pipeliner would degenerate to list scheduling.
	critical := g.criticalPathLen()
	if mii >= critical {
		res.Reason = "recurrence spans the whole iteration (no overlap possible)"
		return nil, res
	}

	attempts := 0
	budgetFails := 0
	const maxAttempts = 8
	g.mrt = make([][machine.NumUnits]int, min(maxII, critical-1, mii+maxAttempts-1))
	for ii := mii; ii <= maxII && ii < critical && attempts < maxAttempts && budgetFails < 2; ii++ {
		attempts++
		sched, ok, exhausted := g.schedule(ii)
		if exhausted {
			// The eviction search is thrashing; the same structure will
			// thrash at nearby IIs too, so give up quickly and fall back
			// to list scheduling (correctness is unaffected).
			budgetFails++
		}
		if !ok {
			continue
		}
		if !lifetimesFit(body, edges, sched, ii) {
			continue
		}
		maxT := 0
		for _, t := range sched {
			if t > maxT {
				maxT = t
			}
		}
		stages := maxT/ii + 1
		if stages < 2 {
			res.Reason = "no overlap achievable (single stage)"
			return nil, res
		}
		if li.Trip < stages {
			res.Reason = fmt.Sprintf("trip count %d below pipeline depth %d", li.Trip, stages)
			return nil, res
		}
		// Place the kernel counter control chain: isub at slot s1, cmp at
		// slot s2 with s1+1 <= s2 <= ii-2, in free ALU modulo slots.
		s1, s2, ok := placeControl(body, sched, ii)
		if !ok {
			continue // try a larger II for control slack
		}
		blocks := emitPipelined(b, body, sched, ii, stages, li.Trip, s1, s2, exitLabel)
		res.Applied = true
		res.II = ii
		res.Stages = stages
		return blocks, res
	}
	res.Reason = "no feasible initiation interval"
	return nil, res
}

func touches(op *POp, r machine.Reg) bool {
	info := machine.Info(op.Op)
	if info.HasDst && op.Dst == r {
		return true
	}
	var ub [2]machine.Reg
	for _, u := range physUses(op, &ub) {
		if u == r {
			return true
		}
	}
	return false
}

// resMII computes the resource-constrained lower bound on II: each unit
// issues one op per cycle, and blocking ops hold their unit for their whole
// latency.
func resMII(body []POp) int {
	var load [machine.NumUnits]int
	for i := range body {
		info := machine.Info(body[i].Op)
		if info.Blocking {
			load[info.Unit] += info.Latency
		} else {
			load[info.Unit]++
		}
	}
	m := 1
	for _, l := range load {
		if l > m {
			m = l
		}
	}
	return m
}

// recMIIExact finds the smallest II in [lo, hi] for which the dependence
// graph has no positive cycle under edge weights delay - II*dist, by binary
// search with Bellman-Ford positive-cycle detection. If even hi fails it
// returns hi+1 (the caller's search range is then empty).
func recMIIExact(n int, edges []modEdge, lo, hi int) int {
	dist := make([]int64, n)
	feasible := func(ii int) bool {
		clear(dist)
		for pass := 0; pass <= n; pass++ {
			changed := false
			for _, e := range edges {
				w := int64(e.delay - e.dist*ii)
				if dist[e.from]+w > dist[e.to] {
					dist[e.to] = dist[e.from] + w
					changed = true
				}
			}
			if !changed {
				return true
			}
		}
		return false // still relaxing after n passes: positive cycle
	}
	if feasible(lo) {
		return lo
	}
	if !feasible(hi) {
		return hi + 1
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// criticalPathLen returns the longest dist-0 dependence chain of one
// iteration (including the final latency), i.e. the single-iteration span:
// the greatest height.
func (g *modGraph) criticalPathLen() int {
	longest := 0
	for _, h := range g.height {
		if h > longest {
			longest = h
		}
	}
	return longest
}

// recMIILower computes a cheap lower bound from self-edges and simple
// two-cycles (the dominant recurrences in practice: accumulators and
// induction variables).
func recMIILower(g *modGraph) int {
	m := 1
	// delay/distance over each edge with dist>0 whose endpoints coincide.
	for _, e := range g.edges {
		if e.dist > 0 && e.from == e.to && e.delay > m {
			m = e.delay
		}
	}
	// Two-op cycles a->b (dist 0), b->a (dist 1).
	for _, e := range g.edges {
		if e.dist != 1 {
			continue
		}
		for _, f := range g.succsOf(e.to) {
			// Only positive forward delays count, as they always have; a
			// tighter bound would change nothing, recMIIExact dominates it.
			if f.dist == 0 && f.to == e.from && f.delay > 0 {
				if c := f.delay + e.delay; c > m {
					m = c
				}
			}
		}
	}
	return m
}

// moduloDeps builds dependence edges with iteration distances for the loop
// body, treating the op list as one iteration that repeats.
func moduloDeps(body []POp) []modEdge {
	var edges []modEdge
	add := func(from, to, delay, dist int) {
		if dist == 0 && from == to {
			return
		}
		edges = append(edges, modEdge{from, to, delay, dist})
	}

	// Register dependences.
	type regInfo struct {
		defs []int
		uses []int
	}
	regs := make(map[machine.Reg]*regInfo)
	get := func(r machine.Reg) *regInfo {
		ri := regs[r]
		if ri == nil {
			ri = &regInfo{}
			regs[r] = ri
		}
		return ri
	}
	var ub [2]machine.Reg
	for i := range body {
		info := machine.Info(body[i].Op)
		for _, u := range physUses(&body[i], &ub) {
			if u != machine.RZero {
				get(u).uses = append(get(u).uses, i)
			}
		}
		if info.HasDst && body[i].Dst != machine.RZero {
			get(body[i].Dst).defs = append(get(body[i].Dst).defs, i)
		}
	}
	lat := func(i int) int { return machine.Info(body[i].Op).Latency }

	for _, ri := range regs {
		if len(ri.defs) == 0 {
			continue // loop-invariant input
		}
		dFirst, dLast := ri.defs[0], ri.defs[len(ri.defs)-1]
		// Same-iteration RAW: each use reads the nearest preceding def.
		// Cross-iteration RAW: uses before the first def read the previous
		// iteration's last def.
		for _, u := range ri.uses {
			prev := -1
			for _, d := range ri.defs {
				if d < u {
					prev = d
				}
			}
			if prev >= 0 {
				add(prev, u, lat(prev), 0)
			} else {
				add(dLast, u, lat(dLast), 1)
			}
			// WAR: the next def (this or next iteration) must not commit
			// before this use issues.
			next := -1
			for _, d := range ri.defs {
				if d > u {
					next = d
					break
				}
			}
			if next >= 0 {
				add(u, next, 1-lat(next), 0)
			} else {
				add(u, dFirst, 1-lat(dFirst), 1)
			}
		}
		// WAW chains.
		for k := 0; k+1 < len(ri.defs); k++ {
			a, b2 := ri.defs[k], ri.defs[k+1]
			add(a, b2, lat(a)-lat(b2)+1, 0)
		}
		add(dLast, dFirst, lat(dLast)-lat(dFirst)+1, 1)
	}

	// Memory dependences, conservatively per symbol.
	type memInfo struct{ loads, stores []int }
	mems := make(map[string]*memInfo)
	for i := range body {
		switch body[i].Op {
		case machine.LOAD:
			mi := mems[body[i].Sym]
			if mi == nil {
				mi = &memInfo{}
				mems[body[i].Sym] = mi
			}
			mi.loads = append(mi.loads, i)
		case machine.STORE:
			mi := mems[body[i].Sym]
			if mi == nil {
				mi = &memInfo{}
				mems[body[i].Sym] = mi
			}
			mi.stores = append(mi.stores, i)
		}
	}
	for _, mi := range mems {
		for _, s := range mi.stores {
			for _, l := range mi.loads {
				if l > s {
					add(s, l, 1, 0)
				} else {
					add(s, l, 1, 1)
				}
			}
			for _, s2 := range mi.stores {
				if s2 > s {
					add(s, s2, 1, 0)
				} else if s2 < s {
					add(s, s2, 1, 1)
				}
			}
			if len(mi.stores) > 1 {
				// Cross-iteration WAW between last and first store is
				// covered by the pairwise loop above.
				_ = s
			}
		}
		for _, l := range mi.loads {
			for _, s := range mi.stores {
				if s > l {
					add(l, s, 0, 0)
				} else {
					add(l, s, 0, 1)
				}
			}
		}
	}

	// Queue ops: total order within the iteration, and the chain wraps to
	// the next iteration.
	var ioOps []int
	for i := range body {
		switch body[i].Op {
		case machine.RECVX, machine.RECVY, machine.SENDX, machine.SENDY:
			ioOps = append(ioOps, i)
		}
	}
	for k := 0; k+1 < len(ioOps); k++ {
		add(ioOps[k], ioOps[k+1], 1, 0)
	}
	if len(ioOps) > 0 {
		add(ioOps[len(ioOps)-1], ioOps[0], 1, 1)
	}
	return edges
}

// modGraph is one loop body's modulo-scheduling problem: the II-independent
// dependence graph and priorities, built once per TryPipeline, and the tables
// an attempt at one II fills, which every attempt reuses. It belongs to the
// goroutine running that TryPipeline.
type modGraph struct {
	body  []POp
	edges []modEdge
	// preds[predOff[i]:predOff[i+1]] are the edges into op i and
	// succs[succOff[i]:succOff[i+1]] the edges out of it, both in edges'
	// order.
	preds, succs     []modEdge
	predOff, succOff []int
	// height is each op's priority, its height in the dist-0 DAG; order lists
	// the ops by descending height, ties by index.
	height, order []int

	// Per-attempt state, reset by schedule. mrt is the modulo reservation
	// table at the largest II that will be tried, re-sliced per attempt; it
	// holds op+1, 0 meaning free.
	mrt                        [][machine.NumUnits]int
	sched, lastTime, worklist  []int
	placed, everPlaced, inList []bool
}

func newModGraph(body []POp, edges []modEdge) *modGraph {
	n := len(body)
	ints := make([]int, 7*n+2)
	takeInts := func(k int) []int {
		s := ints[:k:k]
		ints = ints[k:]
		return s
	}
	bools := make([]bool, 3*n)
	g := &modGraph{
		body:    body,
		edges:   edges,
		preds:   make([]modEdge, len(edges)),
		succs:   make([]modEdge, len(edges)),
		predOff: takeInts(n + 1),
		succOff: takeInts(n + 1),
		height:  takeInts(n),
		order:   takeInts(n),

		sched:      takeInts(n),
		lastTime:   takeInts(n),
		worklist:   takeInts(n)[:0],
		placed:     bools[0:n:n],
		everPlaced: bools[n : 2*n : 2*n],
		inList:     bools[2*n:],
	}

	// Counting sort of the edges by endpoint keeps each op's edges in the
	// order moduloDeps emitted them.
	for _, e := range edges {
		g.predOff[e.to+1]++
		g.succOff[e.from+1]++
	}
	for i := 0; i < n; i++ {
		g.predOff[i+1] += g.predOff[i]
		g.succOff[i+1] += g.succOff[i]
	}
	// sched and lastTime are free until the first attempt: they serve as the
	// fill cursors.
	pfill, sfill := g.sched, g.lastTime
	copy(pfill, g.predOff[:n])
	copy(sfill, g.succOff[:n])
	for _, e := range edges {
		g.preds[pfill[e.to]] = e
		pfill[e.to]++
		g.succs[sfill[e.from]] = e
		sfill[e.from]++
	}

	// Priority: height in the dist-0 DAG (those edges go forward in program
	// order).
	for i := n - 1; i >= 0; i-- {
		h := machine.Info(body[i].Op).Latency
		for _, e := range g.succsOf(i) {
			if e.dist == 0 {
				if v := g.height[e.to] + e.delay; v > h {
					h = v
				}
			}
		}
		g.height[i] = h
	}
	for i := range g.order {
		g.order[i] = i
	}
	sort.Slice(g.order, func(a, b int) bool {
		if g.height[g.order[a]] != g.height[g.order[b]] {
			return g.height[g.order[a]] > g.height[g.order[b]]
		}
		return g.order[a] < g.order[b]
	})
	return g
}

func (g *modGraph) predsOf(i int) []modEdge { return g.preds[g.predOff[i]:g.predOff[i+1]] }
func (g *modGraph) succsOf(i int) []modEdge { return g.succs[g.succOff[i]:g.succOff[i+1]] }

// schedule implements Rau-style iterative modulo scheduling for a fixed II.
// It returns per-op issue cycles within [0, S*II), ok=false on failure, and
// exhausted=true when the eviction budget ran out (a thrash signal distinct
// from a provable edge violation). The returned slice is g's own and is
// overwritten by the next attempt.
func (g *modGraph) schedule(ii int) ([]int, bool, bool) {
	body, edges, height := g.body, g.edges, g.height
	n := len(body)

	sched, placed := g.sched, g.placed
	lastTime, everPlaced, inList := g.lastTime, g.everPlaced, g.inList
	clear(sched)
	clear(placed)
	clear(lastTime)
	clear(everPlaced)
	clear(inList)
	mrt := g.mrt[:ii]
	clear(mrt)

	reserve := func(i, t int, set bool) bool {
		info := machine.Info(body[i].Op)
		span := 1
		if info.Blocking {
			span = info.Latency
			if span > ii {
				return false
			}
		}
		for k := 0; k < span; k++ {
			c := (t + k) % ii
			occ := mrt[c][info.Unit]
			if set {
				mrt[c][info.Unit] = i + 1
			} else if occ != 0 && occ != i+1 {
				return false
			}
		}
		return true
	}
	unreserve := func(i int) {
		for c := 0; c < ii; c++ {
			for u := 0; u < int(machine.NumUnits); u++ {
				if mrt[c][u] == i+1 {
					mrt[c][u] = 0
				}
			}
		}
	}

	budget := n * ii * 8
	worklist := g.worklist[:0]
	push := func(i int) {
		if !inList[i] {
			inList[i] = true
			worklist = append(worklist, i)
		}
	}
	pop := func() int {
		// Highest priority (height) first, as in Rau's IMS.
		best := 0
		for k := 1; k < len(worklist); k++ {
			if height[worklist[k]] > height[worklist[best]] {
				best = k
			}
		}
		i := worklist[best]
		worklist = append(worklist[:best], worklist[best+1:]...)
		inList[i] = false
		return i
	}
	for _, i := range g.order {
		push(i)
	}

	for len(worklist) > 0 {
		if budget == 0 {
			return nil, false, true
		}
		budget--
		i := pop()

		// Earliest start from scheduled predecessors.
		e := 0
		for _, pe := range g.predsOf(i) {
			if placed[pe.from] {
				if v := sched[pe.from] + pe.delay - pe.dist*ii; v > e {
					e = v
				}
			}
		}
		// Try II consecutive start cycles.
		done := false
		for t := e; t < e+ii; t++ {
			if reserve(i, t, false) {
				reserve(i, t, true)
				sched[i] = t
				placed[i] = true
				done = true
				break
			}
		}
		if !done {
			// Force placement; avoid oscillation by never re-placing at the
			// same time as before (Rau's rule).
			t := e
			if everPlaced[i] && t <= lastTime[i] {
				t = lastTime[i] + 1
			}
			info := machine.Info(body[i].Op)
			span := 1
			if info.Blocking {
				span = info.Latency
				if span > ii {
					return nil, false, false
				}
			}
			for k := 0; k < span; k++ {
				c := (t + k) % ii
				if occ := mrt[c][info.Unit]; occ != 0 && occ != i+1 {
					victim := occ - 1
					unreserve(victim)
					placed[victim] = false
					push(victim)
				}
			}
			reserve(i, t, true)
			sched[i] = t
			placed[i] = true
		}
		everPlaced[i] = true
		lastTime[i] = sched[i]
		// Scheduling i may violate successors already placed; evict them.
		for _, se := range g.succsOf(i) {
			if placed[se.to] && se.to != i {
				if sched[se.to] < sched[i]+se.delay-se.dist*ii {
					unreserve(se.to)
					placed[se.to] = false
					push(se.to)
				}
			}
		}
		// It may also violate PREDECESSOR constraints of already-placed ops
		// through cross-iteration edges ending at i... those are edges into
		// i and were honoured by e; but edges from i backwards in time with
		// distance>0 into earlier-placed ops are succ edges handled above.
	}

	// Normalize to non-negative times.
	minT := 0
	for i := range sched {
		if sched[i] < minT {
			minT = sched[i]
		}
	}
	if minT < 0 {
		shift := ((-minT + ii - 1) / ii) * ii
		for i := range sched {
			sched[i] += shift
		}
	}
	// Final verification of every edge.
	for _, e := range edges {
		if sched[e.to] < sched[e.from]+e.delay-e.dist*ii {
			return nil, false, false
		}
	}
	return sched, true, false
}

// lifetimesFit checks that no register value is overwritten by the next
// iteration's definition before its last consumer has read it.
func lifetimesFit(body []POp, edges []modEdge, sched []int, ii int) bool {
	for _, e := range edges {
		from := &body[e.from]
		info := machine.Info(from.Op)
		if !info.HasDst {
			continue
		}
		// Only RAW edges matter: delay equals the producer latency.
		if e.delay != info.Latency {
			continue
		}
		// Read at t_use + dist*II must precede the next iteration's commit
		// at t_def + II + latency.
		if sched[e.to]+e.dist*ii >= sched[e.from]+ii+info.Latency {
			return false
		}
	}
	return true
}

// placeControl finds ALU modulo slots for the kernel counter decrement (s1)
// and its comparison (s2), with s1+1 <= s2 <= ii-2 so the comparison commits
// before the branch word at slot ii-1.
func placeControl(body []POp, sched []int, ii int) (int, int, bool) {
	if ii < 3 {
		return 0, 0, false
	}
	var aluBusy = make([]bool, ii)
	for i := range body {
		info := machine.Info(body[i].Op)
		if info.Unit != machine.ALU {
			continue
		}
		span := 1
		if info.Blocking {
			span = info.Latency
		}
		for k := 0; k < span; k++ {
			aluBusy[(sched[i]+k)%ii] = true
		}
	}
	for s1 := 0; s1 <= ii-3; s1++ {
		if aluBusy[s1] {
			continue
		}
		for s2 := s1 + 1; s2 <= ii-2; s2++ {
			if !aluBusy[s2] {
				return s1, s2, true
			}
		}
	}
	return 0, 0, false
}

// emitPipelined builds the prologue, kernel and epilogue blocks.
func emitPipelined(b *PBlock, body []POp, sched []int, ii, stages, trip, s1, s2 int, exitLabel string) []*PBlock {
	rounds := trip - (stages - 1)

	// Prologue: two leading words initialize the kernel-round counter and
	// the -1 decrement constant, then (stages-1)*II pipeline-fill words.
	const lead = 2
	pro := &PBlock{Label: b.Label, Scheduled: make([]machine.Word, (stages-1)*ii+lead)}
	pro.place(0, &POp{Op: machine.LDI, Dst: scratch1, Imm: int32(rounds)})
	pro.place(1, &POp{Op: machine.LDI, Dst: scratchM1Reg, Imm: -1})
	for i := range body {
		t := sched[i]
		for p := t; p < (stages-1)*ii; p += ii {
			pro.place(p+lead, &body[i])
		}
	}

	// Kernel: II words; op i at slot sched[i] mod II; counter chain and the
	// loop-back branch overlaid on the reserved slots.
	kern := &PBlock{Label: b.Label + ".kern", Scheduled: make([]machine.Word, ii)}
	for i := range body {
		kern.place(sched[i]%ii, &body[i])
	}
	fixupCounter(kern, s1, s2, ii)

	// Epilogue: (stages-1)*II drain words; the exit jump waits until every
	// in-flight result (from the epilogue itself and from the final kernel
	// round) has committed before control leaves.
	drainWords := (stages - 1) * ii
	jmpWord := drainWords - 1
	if jmpWord < 0 {
		jmpWord = 0
	}
	for i := range body {
		t := sched[i]
		lat := machine.Info(body[i].Op).Latency
		// Final kernel-round instance: commits at slot (t mod II) + lat
		// cycles into the epilogue region minus II.
		if w := (t % ii) + lat - ii - 1; w > jmpWord {
			jmpWord = w
		}
		for e := t - ii; e >= 0; e -= ii {
			if w := e + lat - 1; w > jmpWord {
				jmpWord = w
			}
		}
	}
	epi := &PBlock{Label: b.Label + ".epi", Scheduled: make([]machine.Word, jmpWord+1)}
	for i := range body {
		t := sched[i]
		for e := t - ii; e >= 0; e -= ii {
			// Epilogue word e holds ops with sched ≡ e (mod II), sched ≥ e+II.
			epi.place(e, &body[i])
		}
	}
	epi.place(jmpWord, &POp{Op: machine.JMP, Sym: exitLabel})
	return []*PBlock{pro, kern, epi}
}

// fixupCounter writes the real counter chain into the kernel:
//
//	slot s1 (ALU):   scratch1 = scratch1 + scratch3 (scratch3 holds -1)
//	slot s2 (ALU):   scratch2 = scratch1 > 0
//	slot II-1(CTRL): bt scratch2, kernel
//
// The machine has no subtract-immediate, so the prologue loads -1 into
// scratch3 once; TryPipeline rejects loops whose body touches any scratch
// register, so all three survive across kernel rounds.
func fixupCounter(kern *PBlock, s1, s2, ii int) {
	kern.place(s1, &POp{Op: machine.IADD, Dst: scratch1, A: scratch1, B: scratchM1Reg})
	kern.place(s2, &POp{Op: machine.ICMPGT, Dst: scratch2, A: scratch1, B: machine.RZero})
	kern.place(ii-1, &POp{Op: machine.BT, A: scratch2, Sym: kern.Label})
}

// scratchM1Reg holds the constant -1 for the kernel counter decrement. It
// reuses scratch3, which is only ever written as a dead-value park outside
// pipelined loops and never read.
const scratchM1Reg = scratch3

// renameLoopTemps gives each def-use chain of a loop-local temporary its own
// physical register, provided the register is not referenced anywhere
// outside the loop body and is not read before its first definition inside
// it (those are genuine loop-carried values). body must be a private copy
// of the loop's non-control ops.
func renameLoopTemps(pf *PFunc, b *PBlock, body []POp) {
	if pf == nil {
		return
	}
	// Registers referenced anywhere outside this block are off limits, and
	// so are registers free nowhere.
	usedElsewhere := make(map[machine.Reg]bool)
	usedAnywhere := make(map[machine.Reg]bool)
	scan := func(ops []POp, outside bool) {
		var ub [2]machine.Reg
		mark := func(r machine.Reg) {
			usedAnywhere[r] = true
			if outside {
				usedElsewhere[r] = true
			}
		}
		for i := range ops {
			for _, r := range physUses(&ops[i], &ub) {
				mark(r)
			}
			if machine.Info(ops[i].Op).HasDst {
				mark(ops[i].Dst)
			}
		}
	}
	for _, blk := range pf.Blocks {
		scan(blk.Ops, blk != b)
	}
	// A fresh-register pool.
	var pool []machine.Reg
	for r := machine.Reg(firstAllocReg); r <= machine.Reg(lastAllocReg); r++ {
		if !usedAnywhere[r] {
			pool = append(pool, r)
		}
	}

	for _, r := range candidateTemps(body) {
		if usedElsewhere[r.reg] {
			continue
		}
		// Rename every chain except none — all chains are local; each def
		// gets a fresh register, and its uses up to the next def follow.
		for ci := range r.chains {
			if len(pool) == 0 {
				return
			}
			fresh := pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			ch := r.chains[ci]
			body[ch.def].Dst = fresh
			for _, u := range ch.uses {
				info := machine.Info(body[u].Op)
				if info.NumSrc >= 1 && body[u].A == r.reg {
					body[u].A = fresh
				}
				if info.NumSrc >= 2 && body[u].B == r.reg {
					body[u].B = fresh
				}
			}
		}
	}
}

type tempChain struct {
	def  int
	uses []int
}

type tempReg struct {
	reg    machine.Reg
	chains []tempChain
}

// candidateTemps finds registers in the body that are defined before any
// use (pure temporaries) and splits their occurrences into def-use chains.
func candidateTemps(body []POp) []tempReg {
	type occ struct {
		defs []int
		uses []int
	}
	occs := make(map[machine.Reg]*occ)
	order := []machine.Reg{}
	var ub [2]machine.Reg
	for i := range body {
		info := machine.Info(body[i].Op)
		for _, u := range physUses(&body[i], &ub) {
			if u == machine.RZero {
				continue
			}
			if occs[u] == nil {
				occs[u] = &occ{}
				order = append(order, u)
			}
			occs[u].uses = append(occs[u].uses, i)
		}
		if info.HasDst && body[i].Dst != machine.RZero {
			d := body[i].Dst
			if occs[d] == nil {
				occs[d] = &occ{}
				order = append(order, d)
			}
			occs[d].defs = append(occs[d].defs, i)
		}
	}
	var out []tempReg
	for _, r := range order {
		o := occs[r]
		if len(o.defs) == 0 {
			continue
		}
		// Any use at or before the first def reads the previous iteration:
		// a genuine loop-carried value, not a temporary.
		carried := false
		for _, u := range o.uses {
			if u <= o.defs[0] {
				carried = true
				break
			}
		}
		if carried {
			continue
		}
		tr := tempReg{reg: r}
		for k, d := range o.defs {
			end := len(body)
			if k+1 < len(o.defs) {
				end = o.defs[k+1]
			}
			ch := tempChain{def: d}
			for _, u := range o.uses {
				// A use at the same index as the next def still reads this
				// chain's value (reads happen at issue, writes at commit).
				if u > d && u <= end {
					ch.uses = append(ch.uses, u)
				}
			}
			tr.chains = append(tr.chains, ch)
		}
		out = append(out, tr)
	}
	return out
}
