// Package sched implements the task-placement strategies of the parallel
// compiler. The paper uses plain first-come-first-served distribution of
// function masters over free workstations (§3.3) and, for the user-program
// experiment (§4.3), an improved heuristic that estimates compile time from
// "a combination of lines of code and loop nesting" and groups small
// functions onto shared processors.
//
// On top of the paper's grouping (Group), Plan builds the production
// dispatch schedule: size-aware units where every large function is its own
// request, dispatched longest-first, and small functions are packed into
// multi-function batches so per-request overhead is amortized — the fix for
// the paper's headline negative result that small functions see no speedup
// (per-function fork/RPC overhead up to 70% of elapsed time).
//
// Fleet runs a plan: one FIFO queue that every dispatch slot pops from, so
// each unit goes to the next free slot in plan order. Plan(tasks, 0, n) fed
// to it is the paper's FCFS master exactly; the default LPT plan differs
// only in the order and grouping of the units it queues.
package sched

import (
	"container/heap"
	"math"
	"sort"
)

// Task is one unit of schedulable work: the compilation of one function.
type Task struct {
	Name    string
	Section int
	Index   int // position within the section
	// Lines and LoopDepth feed the cost estimate.
	Lines     int
	LoopDepth int
}

// EstimateCost approximates a task's compile time from its size metrics,
// exactly the paper's heuristic: lines of code scaled by loop nesting.
// The unit is arbitrary (relative costs drive balancing).
func EstimateCost(t Task) float64 {
	depth := t.LoopDepth
	if depth < 1 {
		depth = 1
	}
	// Nested loops multiply scheduling and dataflow work; the exponent is
	// deliberately mild — the estimator only needs the right ordering.
	return float64(t.Lines) * math.Pow(1.3, float64(depth-1))
}

// Costed pairs a task with its precomputed cost estimate, so sorting and
// packing never re-evaluate the estimator per comparison.
type Costed struct {
	Task
	Cost float64
}

// Costs evaluates the estimator once per task.
func Costs(tasks []Task) []Costed {
	out := make([]Costed, len(tasks))
	for i, t := range tasks {
		out[i] = Costed{Task: t, Cost: EstimateCost(t)}
	}
	return out
}

// procLoad is one processor's accumulated load in the packing heap.
type procLoad struct {
	load  float64
	index int
}

// loadHeap is a min-heap over processor loads, tie-broken by index so the
// earliest least-loaded processor wins — the same choice the previous
// linear scan made, at O(log p) per task instead of O(p).
type loadHeap []procLoad

func (h loadHeap) Len() int { return len(h) }
func (h loadHeap) Less(i, j int) bool {
	return h[i].load < h[j].load || (h[i].load == h[j].load && h[i].index < h[j].index)
}
func (h loadHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *loadHeap) Push(x any)   { *h = append(*h, x.(procLoad)) }
func (h *loadHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// packLPT distributes costed tasks over nbins bins with the
// longest-processing-time-first greedy rule, assigning each task to the
// least-loaded bin. The input must already be cost-descending.
func packLPT(ordered []Costed, nbins int) ([][]Costed, []float64) {
	bins := make([][]Costed, nbins)
	costs := make([]float64, nbins)
	h := make(loadHeap, nbins)
	for i := range h {
		h[i] = procLoad{index: i}
	}
	heap.Init(&h)
	for _, c := range ordered {
		p := heap.Pop(&h).(procLoad)
		bins[p.index] = append(bins[p.index], c)
		costs[p.index] += c.Cost
		p.load += c.Cost
		heap.Push(&h, p)
	}
	return bins, costs
}

// sortByCostDesc stable-sorts a costed slice largest-first.
func sortByCostDesc(cs []Costed) {
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].Cost > cs[j].Cost })
}

// Group partitions tasks over nproc processors, balancing estimated cost
// with the longest-processing-time-first greedy rule. It returns one task
// list per processor (some possibly empty when nproc exceeds the task
// count). Within a group, tasks keep cost-descending order.
func Group(tasks []Task, nproc int) [][]Task {
	if nproc < 1 {
		nproc = 1
	}
	ordered := Costs(tasks)
	sortByCostDesc(ordered)
	bins, _ := packLPT(ordered, nproc)
	groups := make([][]Task, len(bins))
	for i, b := range bins {
		for _, c := range b {
			groups[i] = append(groups[i], c.Task)
		}
	}
	return groups
}

// Makespan returns the maximum estimated group cost of a partition — the
// predicted parallel finish time under the estimator. Each task's cost is
// evaluated exactly once.
func Makespan(groups [][]Task) float64 {
	max := 0.0
	for _, g := range groups {
		s := 0.0
		for _, c := range Costs(g) {
			s += c.Cost
		}
		if s > max {
			max = s
		}
	}
	return max
}

// Unit is one dispatch unit of the production scheduler: the functions sent
// to a single worker in one request. A unit with one task is a plain
// per-function request; a unit with several is a batch that amortizes the
// per-request overhead over all of them.
type Unit struct {
	Tasks []Task
	Cost  float64 // summed estimated cost
}

// IsBatch reports whether the unit packs more than one function.
func (u Unit) IsBatch() bool { return len(u.Tasks) > 1 }

// Plan builds the size-aware dispatch schedule for one set of tasks over
// nproc processors.
//
//   - threshold == 0 reproduces the paper's measured system exactly: one
//     unit per task, submission order (FCFS, no batching).
//   - threshold < 0 orders tasks longest-first (LPT) but keeps one unit per
//     task — cost-model ordering without batching.
//   - threshold > 0 additionally packs tasks whose estimated cost falls
//     below the threshold into shared batches: the batch count starts from
//     ceil(total small cost / threshold) and is rounded to a multiple of
//     the processors left idle by the large tasks, so batches spread evenly
//     (a module of only small functions yields one batch per processor).
//     Units come back cost-descending, so large functions dispatch first
//     and no batch ever trails a longer compile.
func Plan(tasks []Task, threshold float64, nproc int) []Unit {
	return PlanCosted(Costs(tasks), threshold, nproc)
}

// PlanCosted is Plan over tasks whose costs are already evaluated — the
// estimator runs exactly once per task, never again per
// comparison or per unit.
func PlanCosted(costed []Costed, threshold float64, nproc int) []Unit {
	if nproc < 1 {
		nproc = 1
	}
	if threshold == 0 {
		units := make([]Unit, len(costed))
		for i, c := range costed {
			units[i] = Unit{Tasks: []Task{c.Task}, Cost: c.Cost}
		}
		return units
	}

	var large, small []Costed
	if threshold < 0 {
		large = costed
	} else {
		for _, c := range costed {
			if c.Cost >= threshold {
				large = append(large, c)
			} else {
				small = append(small, c)
			}
		}
	}

	units := make([]Unit, 0, len(large)+nproc)
	for _, c := range large {
		units = append(units, Unit{Tasks: []Task{c.Task}, Cost: c.Cost})
	}

	if len(small) > 0 {
		total := 0.0
		for _, c := range small {
			total += c.Cost
		}
		nbins := int(math.Ceil(total / threshold))
		if idle := nproc - len(large); idle > 0 {
			// Balance the batches over the processors the large tasks leave
			// idle: round the bin count to a multiple of idle, so every
			// processor serves the same number of batches. A lone extra
			// batch would double one processor's makespan and stall the
			// section on it.
			rounds := int(math.Round(float64(nbins) / float64(idle)))
			if rounds < 1 {
				rounds = 1
			}
			nbins = rounds * idle
		}
		if nbins < 1 {
			nbins = 1
		}
		if nbins > len(small) {
			nbins = len(small)
		}
		sortByCostDesc(small)
		bins, costs := packLPT(small, nbins)
		for i, b := range bins {
			if len(b) == 0 {
				continue
			}
			u := Unit{Cost: costs[i]}
			for _, c := range b {
				u.Tasks = append(u.Tasks, c.Task)
			}
			units = append(units, u)
		}
	}

	sort.SliceStable(units, func(i, j int) bool { return units[i].Cost > units[j].Cost })
	return units
}

// RankCorrelation returns the Spearman rank correlation between predicted
// and actual values — how well the estimator orders tasks (1 = perfect
// agreement, -1 = perfectly inverted). Degenerate inputs (mismatched or
// short slices, zero variance) return 0.
func RankCorrelation(predicted, actual []float64) float64 {
	n := len(predicted)
	if n != len(actual) || n < 2 {
		return 0
	}
	rp, ra := ranks(predicted), ranks(actual)
	var mp, ma float64
	for i := 0; i < n; i++ {
		mp += rp[i]
		ma += ra[i]
	}
	mp /= float64(n)
	ma /= float64(n)
	var cov, vp, va float64
	for i := 0; i < n; i++ {
		dp, da := rp[i]-mp, ra[i]-ma
		cov += dp * da
		vp += dp * dp
		va += da * da
	}
	if vp == 0 || va == 0 {
		return 0
	}
	return cov / math.Sqrt(vp*va)
}

// ranks assigns 1-based ranks with ties sharing their average rank.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}
