package codegen

import (
	"fmt"
	"sort"

	"repro/internal/machine"
)

// List scheduling packs a block's operations into wide instruction words,
// one op per functional unit per cycle, respecting data dependences, unit
// latencies, and the blocking (unpipelined) behaviour of divide/sqrt.
//
// Timing model (shared with the array simulator): an operation issued in
// cycle t reads its source registers at issue and commits its result at the
// start of cycle t+latency. A branch issued in cycle t transfers control to
// the word executing in cycle t+1. All of a block's results are committed
// before its terminator issues+1, so cross-block dependences need no
// tracking.

// depEdge is a scheduling constraint: to must issue no earlier than
// issue(from) + delay.
type depEdge struct {
	from  int
	delay int
}

// buildDeps constructs the dependence edges among ops[0:n] (which must not
// contain control ops). It returns edges indexed by consumer op.
func buildDeps(ops []POp) [][]depEdge {
	n := len(ops)
	edges := make([][]depEdge, n)
	add := func(from, to, delay int) {
		if from < 0 || from == to {
			return
		}
		if delay < 0 {
			delay = 0
		}
		edges[to] = append(edges[to], depEdge{from, delay})
	}

	lastDef := make(map[machine.Reg]int)
	usesSince := make(map[machine.Reg][]int)
	lastStore := make(map[string]int)
	loadsSince := make(map[string][]int)
	lastIO := -1
	var ub [2]machine.Reg
	for i := range ops {
		op := &ops[i]
		info := machine.Info(op.Op)

		uses := physUses(op, &ub)
		for _, r := range uses {
			if r == machine.RZero {
				continue
			}
			if d, ok := lastDef[r]; ok {
				add(d, i, machine.Info(ops[d].Op).Latency) // RAW
			}
			usesSince[r] = append(usesSince[r], i)
		}
		if info.HasDst && op.Dst != machine.RZero {
			r := op.Dst
			if d, ok := lastDef[r]; ok {
				add(d, i, machine.Info(ops[d].Op).Latency-info.Latency+1) // WAW
			}
			for _, u := range usesSince[r] {
				add(u, i, 1-info.Latency) // WAR (clamped to 0)
			}
			lastDef[r] = i
			usesSince[r] = nil
		}

		switch op.Op {
		case machine.LOAD:
			if s, ok := lastStore[op.Sym]; ok {
				add(s, i, 1)
			}
			loadsSince[op.Sym] = append(loadsSince[op.Sym], i)
		case machine.STORE:
			if s, ok := lastStore[op.Sym]; ok {
				add(s, i, 1)
			}
			for _, l := range loadsSince[op.Sym] {
				add(l, i, 0)
			}
			lastStore[op.Sym] = i
			loadsSince[op.Sym] = nil
		case machine.RECVX, machine.RECVY, machine.SENDX, machine.SENDY:
			add(lastIO, i, 1)
			lastIO = i
		}
	}
	return edges
}

// physUses returns the source registers of a physical op, in buf: a loop
// over many ops lends one array to every call and so allocates nothing.
func physUses(op *POp, buf *[2]machine.Reg) []machine.Reg {
	info := machine.Info(op.Op)
	out := buf[:0]
	if info.NumSrc >= 1 {
		out = append(out, op.A)
	}
	if info.NumSrc >= 2 {
		out = append(out, op.B)
	}
	return out
}

// resTable tracks functional-unit occupancy cycle by cycle.
type resTable struct {
	taken map[int][machine.NumUnits]bool
}

func newResTable() *resTable {
	return &resTable{taken: make(map[int][machine.NumUnits]bool)}
}

// fits reports whether op can issue at cycle t.
func (rt *resTable) fits(op *POp, t int) bool {
	info := machine.Info(op.Op)
	span := 1
	if info.Blocking {
		span = info.Latency
	}
	for c := t; c < t+span; c++ {
		if rt.taken[c][info.Unit] {
			return false
		}
	}
	return true
}

// place reserves op's unit at cycle t (and t..t+lat-1 for blocking ops).
func (rt *resTable) place(op *POp, t int) {
	info := machine.Info(op.Op)
	span := 1
	if info.Blocking {
		span = info.Latency
	}
	for c := t; c < t+span; c++ {
		row := rt.taken[c]
		row[info.Unit] = true
		rt.taken[c] = row
	}
}

// ScheduleBlock performs list scheduling of one block and fills
// b.Scheduled. It returns the schedule length in cycles.
func ScheduleBlock(b *PBlock) (int, error) {
	// Split trailing control ops from the body.
	body := b.Ops
	var ctrl []POp
	for len(body) > 0 && machine.IsBranch(body[len(body)-1].Op) {
		ctrl = append([]POp{body[len(body)-1]}, ctrl...)
		body = body[:len(body)-1]
	}
	for i := range body {
		if machine.IsBranch(body[i].Op) {
			return 0, fmt.Errorf("block %s: control op %s not at block end", b.Label, body[i])
		}
	}
	if len(ctrl) > 2 {
		return 0, fmt.Errorf("block %s: %d control ops", b.Label, len(ctrl))
	}

	edges := buildDeps(body)
	n := len(body)

	// Priority: critical-path height (longest path to any sink).
	height := make([]int, n)
	succs := make([][]depEdge, n)
	for to, es := range edges {
		for _, e := range es {
			succs[e.from] = append(succs[e.from], depEdge{to, e.delay})
		}
	}
	// Reverse topological order = reverse program order works because all
	// edges go forward in program order.
	for i := n - 1; i >= 0; i-- {
		h := machine.Info(body[i].Op).Latency
		for _, s := range succs[i] {
			if v := height[s.from] + s.delay; v > h {
				h = v
			}
		}
		height[i] = h
	}

	sched := make([]int, n) // issue cycle per op
	done := make([]bool, n)
	rt := newResTable()
	remaining := n

	// earliest[i] = max over preds of sched+delay, updated as preds land.
	earliest := make([]int, n)
	predsLeft := make([]int, n)
	for i, es := range edges {
		predsLeft[i] = len(es)
	}

	var ready []int
	for i := 0; i < n; i++ {
		if predsLeft[i] == 0 {
			ready = append(ready, i)
		}
	}

	cycle := 0
	guard := 0
	for remaining > 0 {
		guard++
		if guard > 1000000 {
			return 0, fmt.Errorf("block %s: scheduler did not converge", b.Label)
		}
		// Candidates ready at this cycle, highest priority first.
		sort.Slice(ready, func(a, c int) bool {
			ia, ic := ready[a], ready[c]
			if height[ia] != height[ic] {
				return height[ia] > height[ic]
			}
			return ia < ic
		})
		placedAny := false
		for k := 0; k < len(ready); {
			i := ready[k]
			if earliest[i] > cycle || !rt.fits(&body[i], cycle) {
				k++
				continue
			}
			rt.place(&body[i], cycle)
			sched[i] = cycle
			done[i] = true
			remaining--
			placedAny = true
			ready = append(ready[:k], ready[k+1:]...)
			for _, s := range succs[i] {
				if v := cycle + s.delay; v > earliest[s.from] {
					earliest[s.from] = v
				}
				predsLeft[s.from]--
				if predsLeft[s.from] == 0 {
					ready = append(ready, s.from)
				}
			}
		}
		if !placedAny || remaining > 0 {
			cycle++
		}
		_ = placedAny
	}

	// Determine the terminator cycle: every result must commit before the
	// successor block starts (issue + lat - 1 <= branch cycle), and a
	// conditional branch must see its condition committed.
	branchCycle := 0
	if n > 0 {
		branchCycle = 0
		for i := 0; i < n; i++ {
			need := sched[i] + machine.Info(body[i].Op).Latency - 1
			if need > branchCycle {
				branchCycle = need
			}
		}
	}
	if len(ctrl) > 0 {
		first := ctrl[0]
		info := machine.Info(first.Op)
		if info.NumSrc >= 1 {
			// Condition RAW: committed before the branch issues.
			for i := 0; i < n; i++ {
				if machine.Info(body[i].Op).HasDst && body[i].Dst == first.A {
					if need := sched[i] + machine.Info(body[i].Op).Latency; need > branchCycle {
						branchCycle = need
					}
				}
			}
		}
	}

	// Build the words.
	length := branchCycle + 1
	if len(ctrl) == 2 {
		length = branchCycle + 2
	}
	if n == 0 && len(ctrl) == 0 {
		length = 0
	}
	b.Scheduled = make([]machine.Word, length)
	b.Syms = nil
	for i := 0; i < n; i++ {
		b.place(sched[i], &body[i])
	}
	for k := range ctrl {
		b.place(branchCycle+k, &ctrl[k])
	}
	return length, nil
}

// SequentialBlock emits one op per word in program order — the unscheduled
// baseline used by the compile-speed/quality ablation benchmarks.
func SequentialBlock(b *PBlock) int {
	body := b.Ops
	b.Scheduled = make([]machine.Word, 0, len(body))
	b.Syms = nil
	cycle := 0
	lastCommit := 0
	for i := range body {
		op := &body[i]
		info := machine.Info(op.Op)
		// Naive code: wait until everything before has committed.
		for cycle < lastCommit {
			b.Scheduled = append(b.Scheduled, machine.Word{})
			cycle++
		}
		b.Scheduled = append(b.Scheduled, machine.Word{})
		b.place(cycle, op)
		if c := cycle + info.Latency; c > lastCommit {
			lastCommit = c
		}
		cycle++
	}
	return len(b.Scheduled)
}
