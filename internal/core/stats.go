package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/fcache"
	"repro/internal/parser"
	"repro/internal/sched"
)

// ScopeToSnapshot rebases the stats' cumulative backend counters (Cache,
// Faults) onto the given baseline, turning lifetime totals into this job's
// own activity.
func (s *ParallelStats) ScopeToSnapshot(base BackendStatsSnapshot) {
	s.Cache.Sub(base.Cache)
	s.Faults.Sub(base.Faults)
}

// DispatchStats summarizes the scheduling decisions of one compilation and
// how well the cost estimator predicted reality.
type DispatchStats struct {
	// Policy and BatchThreshold echo the effective options.
	Policy         SchedPolicy
	BatchThreshold float64
	// Units counts dispatch units sent across all sections; Batches the
	// multi-function units among them; BatchedFuncs the functions that
	// traveled inside batches.
	Units        int
	Batches      int
	BatchedFuncs int
	// RankCorr is the Spearman rank correlation between estimated cost and
	// measured CPU time per function (1 = the estimator orders perfectly,
	// 0 = uninformative). With fewer than 3 sampled functions the statistic
	// is meaningless noise and is reported as NaN (omitted from -stats).
	RankCorr float64
	// UnchangedFuncs counts functions short-circuited by section masters
	// from the shared object tier before scheduling; IncrementalHits counts
	// dispatched functions answered from a worker's object tier; only
	// RecompiledFuncs actually ran phases 2+3. RecompileRatio is
	// RecompiledFuncs over the module's function count — after a one-function
	// edit of a warm module it approaches 1/N.
	UnchangedFuncs  int
	IncrementalHits int
	RecompiledFuncs int
	RecompileRatio  float64
}

// StealStats reports the dispatch fleet's activity during one compilation.
// The fleet is one FIFO queue with no stealing; the name stays because
// cmd/warpbench reads ParallelStats.Steal.
type StealStats struct {
	// Shared reports that the fleet was a daemon-lifetime one multiplexing
	// concurrent builds (false for the standalone per-build fleet).
	Shared bool
	// Steals, BatchSplits and StealLatency are always zero: the fleet
	// neither steals nor splits. Each is kept only because cmd/warpbench
	// reads it.
	Steals       int
	BatchSplits  int
	StealLatency time.Duration
	// IdleTime decomposes starvation per dispatch slot: total time each
	// slot spent parked with nothing queued. On a shared fleet this is the
	// fleet-wide idle accrued during this job's window (approximate under
	// overlap, the way FaultStats deltas are).
	IdleTime []time.Duration
}

// idleDelta subtracts a per-slot idle snapshot taken at build open from one
// taken at build close, scoping a shared fleet's lifetime idle accounting
// to this job's window. On a private fleet base is effectively zero.
func idleDelta(now, base []time.Duration) []time.Duration {
	out := make([]time.Duration, len(now))
	for i := range now {
		out[i] = now[i]
		if i < len(base) {
			out[i] -= base[i]
		}
	}
	return out
}

// PipelineStats records how much of the master's sequential head and tail
// the overlapped pipeline hid inside the parallel region. The frontend
// fields are filled whenever the parallel frontend actually ran (not on a
// frontend cache hit).
type PipelineStats struct {
	// FrontendCheckWall is the master's frontend leg's concurrent check of
	// the setup parse's tree; FrontendWorkers is the fan-out bound the
	// parallel frontend resolved. Both zero when the frontend tier answered
	// from cache.
	FrontendCheckWall time.Duration
	FrontendWorkers   int
	// FrontendOverlap is how much of the master's frontend ran concurrently
	// with section compilation (min of FrontendTime and CompileWallTime):
	// the paper's "sequential head" that speculative dispatch removed from
	// the critical path.
	FrontendOverlap time.Duration
	// LinkTime is the total spent linking section images; LinkOverlap is the
	// portion spent while at least one section was still compiling — the
	// barrier wait the streaming tail eliminated.
	LinkTime    time.Duration
	LinkOverlap time.Duration
	// DriverTime is the I/O-driver generation time, which now runs
	// concurrently with section compilation.
	DriverTime time.Duration
	// CriticalPath is the pipeline's structural lower bound:
	// SetupTime + max(FrontendTime, CompileWallTime) + BackendTail.
	// Elapsed can only exceed it by scheduling noise.
	CriticalPath time.Duration
}

// ParallelStats records the timing decomposition of one parallel
// compilation (elapsed/user time, per-level CPU, per-function times).
type ParallelStats struct {
	Elapsed time.Duration
	// SetupTime is the master's extra structure parse; DispatchTime the
	// section masters' schedule computation (placement only); CompileWallTime
	// the wall-clock span of the whole parallel region (fork of the first
	// section master to the last combine); BackendTail the sequential
	// assembly/link.
	SetupTime       time.Duration
	FrontendTime    time.Duration
	DispatchTime    time.Duration
	CompileWallTime time.Duration
	BackendTail     time.Duration
	// FuncCPU lists every function master's CPU time.
	FuncCPU map[string]time.Duration
	// SectionCPU lists each section master's coordination time.
	SectionCPU map[int]time.Duration
	Workers    int
	// Warnings counts the diagnostics merged into Result.Warnings.
	Warnings int
	// Dispatch summarizes scheduling decisions and estimator accuracy.
	Dispatch DispatchStats
	// Steal reports the dispatch fleet: shared or private, and per-slot idle.
	Steal StealStats
	// Pipeline reports the overlap won by the pipelined master.
	Pipeline PipelineStats
	// Cache reports the backend's artifact-cache counters (cumulative over
	// the backend's lifetime, not just this compilation); zero when the
	// backend does not report them (CacheStatser).
	Cache fcache.Stats
	// Faults reports the backend's fault-handling counters and degraded-
	// operation warnings (cumulative, like Cache); zero for backends
	// without a fault-tolerant dispatch layer.
	Faults FaultStats
}

// TotalFuncCPU sums all function masters' CPU time.
func (s *ParallelStats) TotalFuncCPU() time.Duration {
	var t time.Duration
	for _, d := range s.FuncCPU {
		t += d
	}
	return t
}

// estimatorAccuracy computes the Spearman rank correlation between each
// function's estimated cost (lines × loop nesting, from the outline) and
// its measured CPU time. Functions answered from cache have no measured
// compile time and are excluded; with fewer than 3 samples the correlation
// is meaningless noise (always ±1 for 1–2 points), so it is reported as NaN
// and omitted from the stats output.
func estimatorAccuracy(o *parser.Outline, funcCPU map[string]time.Duration) float64 {
	var predicted, actual []float64
	for _, so := range o.Sections {
		for _, fo := range so.Functions {
			cpu, ok := funcCPU[fmt.Sprintf("s%d/%s", so.Index, fo.Name)]
			if !ok || cpu <= 0 {
				continue
			}
			predicted = append(predicted, sched.EstimateCost(sched.Task{Lines: fo.Lines, LoopDepth: fo.LoopDepth}))
			actual = append(actual, cpu.Seconds())
		}
	}
	if len(predicted) < 3 {
		return math.NaN()
	}
	return sched.RankCorrelation(predicted, actual)
}
