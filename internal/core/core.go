// Package core implements the parallel compiler: the three-level process
// hierarchy of the paper mapped onto Go's concurrency primitives.
//
//	master          (one)           parses the module's structure, forks
//	                                the section masters speculatively while
//	                                its own frontend races them, links each
//	                                section as it streams in, and cancels
//	                                the fleet on the first fatal error.
//	section masters (one/section)   plan dispatch units from the structural
//	                                outline (large functions first, small
//	                                ones batched), fork one dispatcher per
//	                                unit, then combine objects and
//	                                diagnostics as replies stream in.
//	function masters(one/function)  run phases 2+3 for one function on
//	                                some workstation of the backend.
//
// Processes on the same level never communicate, only parent and child do —
// exactly the paper's structure. Workstations are abstracted behind the
// Backend interface: internal/cluster provides an in-process pool
// (goroutines) and a distributed pool (net/rpc worker processes).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/asm"
	"repro/internal/ast"
	"repro/internal/compiler"
	"repro/internal/fcache"
	"repro/internal/iodriver"
	"repro/internal/link"
	"repro/internal/parser"
	"repro/internal/sched"
	"repro/internal/source"
)

// CompileRequest names one function of a module for a function master. The
// source travels with the request because the processes share no memory
// (the paper's masters likewise hand the source and parse information to
// their children) — except that SourceHash content-addresses it, so a
// backend whose workers already hold the source (internal/fcache) may clear
// Source and send the 32-byte hash alone.
type CompileRequest struct {
	File string
	// Source is the full module text. It may be empty when SourceHash is
	// set and the receiving worker is known to have the source resident.
	Source []byte
	// SourceHash is fcache.HashSource(Source). Zero means "not computed";
	// cached paths derive it on demand.
	SourceHash fcache.SourceHash
	Section    int // 1-based section index
	Index      int // 0-based function position within the section
	// FuncHash is the function's incremental content address (zero when the
	// dispatcher could not compute one). A worker holding the finished
	// artifact for it answers without running any phase — and without
	// needing Source at all.
	FuncHash fcache.FuncHash
	Opts     compiler.Options
}

// CompileReply is the function master's result: the assembled object plus
// the work statistics the section master aggregates.
type CompileReply struct {
	Name        string
	Section     int
	IsEntry     bool
	Lines       int
	ObjectBytes []byte
	CPUTime     time.Duration
	Warnings    []string
	// CacheHit reports that the worker answered from its object tier
	// without running phases 2+3 (an incremental hit).
	CacheHit bool
}

// BatchItem names one function inside a batch request by position.
type BatchItem struct {
	Section int // 1-based section index
	Index   int // 0-based function position within the section
	// FuncHash follows CompileRequest.FuncHash's rules.
	FuncHash fcache.FuncHash
}

// BatchRequest asks one worker to compile several functions of the same
// module in a single round trip, amortizing the per-request overhead that
// dominates small functions (the paper's headline negative result: up to
// 70% of elapsed time). Source/SourceHash follow CompileRequest's rules.
type BatchRequest struct {
	File       string
	Source     []byte
	SourceHash fcache.SourceHash
	Items      []BatchItem
	Opts       compiler.Options
}

// BatchBackend is implemented by backends that can run a multi-function
// dispatch unit in one request. Replies are returned aligned with
// req.Items: reply i answers item i. Cancelling ctx abandons the batch;
// partially completed work is discarded.
type BatchBackend interface {
	CompileBatch(ctx context.Context, req BatchRequest) ([]*CompileReply, error)
}

// Backend runs compile requests on some processor. Implementations must be
// safe for concurrent use; Compile blocks until a processor is free
// (first-come-first-served, as in the paper). Cancelling ctx severs the
// request — including any in-flight RPC — and returns ctx.Err() (possibly
// wrapped): the master uses this to stop the whole fleet the moment one
// section fails, instead of waiting out the barrier.
type Backend interface {
	Compile(ctx context.Context, req CompileRequest) (*CompileReply, error)
	// Workers returns the number of processors behind the backend.
	Workers() int
}

// CacheProvider is implemented by backends whose workers share an artifact
// cache with the master process (cluster.LocalPool). The master then warms
// the frontend tier during its own phase 1, so no worker ever re-parses.
type CacheProvider interface {
	Cache() *fcache.Cache
}

// CacheStatser is implemented by backends that can report cache
// effectiveness counters (cumulative over the backend's lifetime).
type CacheStatser interface {
	CacheStats() fcache.Stats
}

// FaultStats records a backend's fault-handling activity: how often the
// dispatch layer retried, failed over, quarantined or readmitted workers,
// hit call deadlines, or fell back to compiling in-process. Counters are
// cumulative over the backend's lifetime, like cache stats. A healthy
// cluster reports all zeros.
type FaultStats struct {
	// Retries counts requests re-dispatched after a transient failure.
	Retries int64
	// Failovers counts requests that ultimately succeeded after at least
	// one retry — the recovery the paper's system did not have.
	Failovers int64
	// Quarantines counts workers removed from rotation after consecutive
	// failures; Readmissions counts workers probed back into rotation.
	Quarantines  int64
	Readmissions int64
	// LocalFallbacks counts requests compiled in-process because no remote
	// worker was available.
	LocalFallbacks int64
	// DeadlineHits counts calls abandoned because they exceeded the
	// per-call deadline (hung or overloaded worker).
	DeadlineHits int64
	// BatchSplits counts multi-function batches that failed transiently and
	// were split in half for re-dispatch on other workers.
	BatchSplits int64
	// Warnings carries human-readable notes about degraded operation
	// (worker quarantined, compile fell back to local, degraded start).
	Warnings []string
}

// Any reports whether any fault-handling activity occurred.
func (s FaultStats) Any() bool {
	return s.Retries+s.Failovers+s.Quarantines+s.Readmissions+s.LocalFallbacks+s.DeadlineHits+s.BatchSplits > 0
}

// String renders the counters compactly.
func (s FaultStats) String() string {
	return fmt.Sprintf("retries=%d failovers=%d quarantines=%d readmissions=%d local-fallbacks=%d deadline-hits=%d batch-splits=%d",
		s.Retries, s.Failovers, s.Quarantines, s.Readmissions, s.LocalFallbacks, s.DeadlineHits, s.BatchSplits)
}

// Sub subtracts a baseline snapshot from s, scoping the cumulative counters
// to the interval since the baseline. Warnings are append-only on the
// backend, so the scoped warnings are the suffix past the baseline's length.
// With concurrent jobs sharing one backend the attribution is approximate:
// counters from overlapping jobs land in whichever interval observes them.
func (s *FaultStats) Sub(base FaultStats) {
	s.Retries -= base.Retries
	s.Failovers -= base.Failovers
	s.Quarantines -= base.Quarantines
	s.Readmissions -= base.Readmissions
	s.LocalFallbacks -= base.LocalFallbacks
	s.DeadlineHits -= base.DeadlineHits
	s.BatchSplits -= base.BatchSplits
	if n := len(base.Warnings); n <= len(s.Warnings) {
		s.Warnings = append([]string(nil), s.Warnings[n:]...)
	}
}

// FaultStatser is implemented by backends with a fault-tolerant dispatch
// layer (cluster.RPCPool).
type FaultStatser interface {
	FaultStats() FaultStats
}

// BackendStatsSnapshot captures a shared backend's cumulative cache and
// fault counters at one instant. A caller multiplexing many jobs onto one
// backend (the compile daemon) snapshots before each job and scopes the
// job's ParallelStats with ScopeToSnapshot afterwards, so per-job stats
// describe that job's interval instead of the backend's whole lifetime.
type BackendStatsSnapshot struct {
	Cache  fcache.Stats
	Faults FaultStats
}

// SnapshotBackendStats reads the backend's current cumulative counters
// (zero values for backends without the corresponding interface).
func SnapshotBackendStats(b Backend) BackendStatsSnapshot {
	var snap BackendStatsSnapshot
	if cs, ok := b.(CacheStatser); ok {
		snap.Cache = cs.CacheStats()
	}
	if fs, ok := b.(FaultStatser); ok {
		snap.Faults = fs.FaultStats()
	}
	return snap
}

// ScopeToSnapshot rebases the stats' cumulative backend counters (Cache,
// Faults) onto the given baseline, turning lifetime totals into this job's
// own activity.
func (s *ParallelStats) ScopeToSnapshot(base BackendStatsSnapshot) {
	s.Cache.Sub(base.Cache)
	s.Faults.Sub(base.Faults)
}

// RunFunctionMaster executes one compile request in the current process,
// re-deriving everything from source — the uncached behavior of the paper's
// function masters, which share only the file system.
func RunFunctionMaster(req CompileRequest) (*CompileReply, error) {
	return RunFunctionMasterWith(req, nil)
}

// ReplyFromEntry builds the function master's reply from a cached object
// entry. hit marks replies answered from cache without running any phase.
func ReplyFromEntry(e *fcache.ObjectEntry, cpu time.Duration, hit bool) *CompileReply {
	return &CompileReply{
		Name:        e.Name,
		Section:     e.Section,
		IsEntry:     e.IsEntry,
		Lines:       e.Lines,
		ObjectBytes: e.ObjectBytes,
		CPUTime:     cpu,
		Warnings:    e.Warnings,
		CacheHit:    hit,
	}
}

// RunFunctionMasterWith executes one compile request using cache for the
// shared immutable artifacts (checked frontend, per-function lowered IR,
// finished objects). With a nil cache it re-derives everything from source.
// Backends call it on their workers; cmd/warpworker exposes it over RPC with
// a per-process cache. A request whose FuncHash finds a finished artifact in
// the object tier is answered without touching the source — the incremental
// fast path.
func RunFunctionMasterWith(req CompileRequest, cache *fcache.Cache) (*CompileReply, error) {
	if e, ok := compiler.LookupObject(cache, req.FuncHash, req.Opts); ok {
		return ReplyFromEntry(e, 0, true), nil
	}
	start := time.Now()
	h := req.SourceHash
	if h.IsZero() && cache != nil {
		h = fcache.HashSource(req.Source)
	}
	fe := compiler.FrontendEntryCached(cache, h, req.File, req.Source)
	if fe.Bag.HasErrors() {
		return nil, fmt.Errorf("function master: front-end errors:\n%s", fe.Bag.String())
	}
	for _, sec := range fe.Module.Sections {
		if sec.Index != req.Section {
			continue
		}
		if req.Index < 0 || req.Index >= len(sec.Funcs) {
			return nil, fmt.Errorf("function master: section %d has no function %d", req.Section, req.Index)
		}
		fn := sec.Funcs[req.Index]
		entry, hit, err := compiler.CompileFunctionIncremental(cache, fe, fn, req.Opts)
		if err != nil {
			return nil, err
		}
		return ReplyFromEntry(entry, time.Since(start), hit), nil
	}
	return nil, fmt.Errorf("function master: no section %d in module", req.Section)
}

// RunBatchWith executes every item of a batch request in the current
// process, sequentially — one worker serving a whole dispatch unit. Replies
// align with req.Items. The frontend runs (or is fetched from cache) once
// for the whole batch, so even uncached workers amortize phase 1. A
// cancelled ctx stops between items; the item already running completes
// (phases 2+3 are not preemptible in-process).
func RunBatchWith(ctx context.Context, req BatchRequest, cache *fcache.Cache) ([]*CompileReply, error) {
	replies := make([]*CompileReply, len(req.Items))
	for i, it := range req.Items {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := RunFunctionMasterWith(CompileRequest{
			File:       req.File,
			Source:     req.Source,
			SourceHash: req.SourceHash,
			Section:    it.Section,
			Index:      it.Index,
			FuncHash:   it.FuncHash,
			Opts:       req.Opts,
		}, cache)
		if err != nil {
			return nil, err
		}
		replies[i] = r
	}
	return replies, nil
}

// SectionFunc is one function's combined result inside a SectionResult,
// stored at its declaration index. Keeping the object, line count, and CPU
// time in one slot makes a request/reply skew a hard error instead of a
// silently zeroed field.
type SectionFunc struct {
	Name    string
	Object  *asm.Object
	Lines   int
	CPUTime time.Duration
	// Warnings are this function master's diagnostics, re-emitted by the
	// section master in declaration order.
	Warnings []string
}

// SectionResult is what one section master hands back to the master.
type SectionResult struct {
	Section int
	// Funcs holds one slot per declared function, in declaration order.
	Funcs []SectionFunc
	// CPUTime totals the function masters' compile times; MasterTime is the
	// section master's own coordination time; PlanTime the slice of it spent
	// computing the dispatch schedule.
	CPUTime    time.Duration
	MasterTime time.Duration
	PlanTime   time.Duration
	// Units counts dispatch units sent; Batches the multi-function units
	// among them; BatchedFuncs the functions that traveled inside batches.
	Units        int
	Batches      int
	BatchedFuncs int
	// Unchanged counts functions the section master short-circuited from the
	// local object tier before planning any dispatch; WorkerHits counts
	// dispatched functions a worker answered from its own object tier
	// without running phases 2+3.
	Unchanged  int
	WorkerHits int
	// Warnings are all function masters' warnings in declaration order.
	Warnings []string
	// Samples are the observed (shape → seconds) cost samples this section
	// collected from replies that genuinely ran phases 2+3 — cache hits
	// never ran and would teach the estimator that their shape is free.
	Samples []sched.CostSample
}

// SchedPolicy selects the dispatch-ordering strategy.
type SchedPolicy string

const (
	// SchedFCFS dispatches one request per function in declaration order —
	// the paper's measured system.
	SchedFCFS SchedPolicy = "fcfs"
	// SchedLPT orders dispatch by estimated cost, largest first, and packs
	// functions below the batch threshold into shared batches — the paper's
	// §4.3 improvement, productionized.
	SchedLPT SchedPolicy = "lpt"
)

// DefaultBatchThreshold is the estimated-cost cutoff below which functions
// are packed into shared batches. Calibrated against wgen's size classes:
// Small (~35 lines, cost ≈ 45) batches, a 300-line main (cost ≈ 500) never
// does.
const DefaultBatchThreshold = 100.0

// ParallelOptions selects the dispatch policy of a parallel compilation.
// The zero value means production defaults: LPT ordering with batching at
// DefaultBatchThreshold.
type ParallelOptions struct {
	// Sched is the ordering policy; empty means SchedLPT.
	Sched SchedPolicy
	// BatchThreshold is the estimated-cost cutoff for batching: 0 means
	// DefaultBatchThreshold, negative disables batching (one request per
	// function). Ignored under SchedFCFS, which never batches.
	BatchThreshold float64
	// FrontendWorkers bounds the fan-out of the master's span-sliced
	// parallel frontend (compiler.FrontendParallel); <1 means GOMAXPROCS,
	// 1 is the serial setting.
	FrontendWorkers int

	// fleet, when non-nil, is a daemon-lifetime shared stealing fleet this
	// build dispatches through instead of constructing its own; tenant is
	// the fair-share identity its units are tagged with (the same client
	// identity the daemon's Admitter queues by). Unexported on purpose:
	// the handle is set server-side via WithFleet and never crosses the
	// wire — gob skips unexported fields, so clients submit plain options
	// and dedup keys built from wire options stay fleet-free.
	fleet  *sched.Fleet
	tenant string
}

// WithFleet returns a copy of the options that dispatches through the given
// shared fleet under the given fair-share tenant identity. The daemon calls
// this after admission; standalone builds never do and keep their private
// per-build fleet.
func (o ParallelOptions) WithFleet(f *sched.Fleet, tenant string) ParallelOptions {
	o.fleet = f
	o.tenant = tenant
	return o
}

// normalized resolves the zero-value defaults.
func (o ParallelOptions) normalized() ParallelOptions {
	if o.Sched == "" {
		o.Sched = SchedLPT
	}
	if o.BatchThreshold == 0 {
		o.BatchThreshold = DefaultBatchThreshold
	}
	return o
}

// planThreshold maps the user-facing options onto sched.Plan's threshold
// convention (0 = FCFS singletons, <0 = LPT singletons, >0 = LPT+batch).
func (o ParallelOptions) planThreshold() float64 {
	o = o.normalized()
	if o.Sched == SchedFCFS {
		return 0
	}
	if o.BatchThreshold < 0 {
		return -1
	}
	return o.BatchThreshold
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

// StealStats reports the global work-stealing scheduler's activity during
// one compilation, plus how the self-tuning cost model performed against the
// static formula.
type StealStats struct {
	// Shared reports that the fleet was a daemon-lifetime one multiplexing
	// concurrent builds (false for the standalone per-build fleet).
	Shared bool
	// Steals counts steal operations that took this build's queued work (an
	// idle slot raiding another slot's deque); CrossBuildSteals the subset
	// where the thieving slot's previous unit belonged to a different build
	// — only possible on a shared fleet; BatchSplits the subset that
	// cracked a queued multi-function batch open mid-flight because the
	// victim had nothing else to give.
	Steals           int
	CrossBuildSteals int
	BatchSplits      int
	// StealLatency totals the time thieving slots spent between running dry
	// and acquiring this build's stolen work.
	StealLatency time.Duration
	// IdleTime decomposes starvation per dispatch slot: total time each
	// slot spent parked with no work anywhere — the straggler overhead the
	// stealer exists to shrink. On a shared fleet this is the fleet-wide
	// idle accrued during this job's window (approximate under overlap,
	// the way FaultStats deltas are).
	IdleTime []time.Duration
	// ModelFitted reports that the cost model was fitted from persisted
	// samples (false on a cold cache or when the fit failed its guards);
	// SampleCount is the size of the persisted window the fit ran over.
	ModelFitted bool
	SampleCount int
	// FittedRankCorr and StaticRankCorr are the Spearman rank correlations
	// of the fitted and static cost models against this build's measured
	// per-function CPU times (NaN below 3 measured functions, omitted from
	// -stats). The fit guard keeps FittedRankCorr ≥ StaticRankCorr on the
	// recorded sample window.
	FittedRankCorr float64
	StaticRankCorr float64
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
	// FrontendParseWall and FrontendCheckWall split the master's frontend leg
	// into its span-sliced parse and concurrent check; FrontendWorkers is the
	// fan-out bound the parallel frontend resolved. All zero when the
	// frontend tier answered from cache.
	FrontendParseWall time.Duration
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
	// Steal reports the work-stealing scheduler's rebalancing activity and
	// the self-tuning cost model's performance.
	Steal StealStats
	// Pipeline reports the overlap won by the pipelined master.
	Pipeline PipelineStats
	// Cache reports the backend's artifact-cache counters (cumulative over
	// the backend's lifetime, not just this compilation); zero when the
	// backend is uncached.
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

// ParallelCompile runs the full parallel compiler on src using the backend's
// processors with production dispatch defaults (LPT ordering, batching at
// DefaultBatchThreshold).
func ParallelCompile(file string, src []byte, backend Backend, opts compiler.Options) (*compiler.Result, *ParallelStats, error) {
	return ParallelCompileWith(file, src, backend, opts, ParallelOptions{})
}

// ParallelCompileWith runs the full parallel compiler with an explicit
// dispatch policy.
func ParallelCompileWith(file string, src []byte, backend Backend, opts compiler.Options, popts ParallelOptions) (*compiler.Result, *ParallelStats, error) {
	return ParallelCompileContext(context.Background(), file, src, backend, opts, popts)
}

// frontendVerdict is the master's own phase-1 leg, delivered to the combine
// loop when it finishes racing the speculatively dispatched sections. err is
// non-nil only when the leg was cancelled (the parallel frontend's sole
// error mode); timing reports the parallel frontend's internal wall times
// (zero on frontend-tier cache hits).
type frontendVerdict struct {
	m      *ast.Module
	bag    *source.DiagBag
	err    error
	time   time.Duration
	timing compiler.FrontendTiming
}

// sectionDone is one section master's outcome, streamed to the combine loop
// as it completes (pos indexes outline.Sections).
type sectionDone struct {
	pos int
	res *SectionResult
	err error
}

// ParallelCompileContext runs the full parallel compiler as an overlapped
// pipeline rather than the paper's four sequential steps:
//
//   - Speculative dispatch: section masters fork the moment the structural
//     parse succeeds, while the master's full frontend runs concurrently.
//     Function masters re-derive phase 1 themselves, so they reach the same
//     verdict on the same source; if the frontend finds semantic errors the
//     master cancels the fleet and reports the frontend's diagnostics,
//     word-identical to the sequential compiler's.
//   - Streaming tail: section results are linked the moment they arrive
//     (link.Builder), so linking overlaps the slowest section instead of
//     waiting behind a barrier, and the I/O driver — which depends only on
//     the frontend module — is generated concurrently too.
//   - End-to-end cancellation: ctx is threaded through every backend call;
//     the first fatal error (or the caller cancelling ctx) severs in-flight
//     RPCs instead of waiting out the stragglers.
//
// Output is byte-identical to the sequential compiler.
func ParallelCompileContext(ctx context.Context, file string, src []byte, backend Backend, opts compiler.Options, popts ParallelOptions) (*compiler.Result, *ParallelStats, error) {
	start := time.Now()
	popts = popts.normalized()
	stats := &ParallelStats{
		FuncCPU:    make(map[string]time.Duration),
		SectionCPU: make(map[int]time.Duration),
		Workers:    backend.Workers(),
		Dispatch: DispatchStats{
			Policy:         popts.Sched,
			BatchThreshold: popts.BatchThreshold,
		},
	}

	// Master, step 1: the extra structural parse that drives partitioning
	// ("setup time" in the paper's overhead accounting). This is the only
	// part of the head that cannot overlap anything: every leg needs the
	// outline.
	t0 := time.Now()
	var outlineBag source.DiagBag
	outline := parser.ParseOutline(file, src, &outlineBag)
	stats.SetupTime = time.Since(t0)
	if outlineBag.HasErrors() || outline == nil {
		return nil, stats, fmt.Errorf("master: syntax errors, compilation aborted:\n%s", outlineBag.String())
	}

	// The content address travels with every request; backends with caching
	// workers use it to avoid re-parsing and re-sending the source.
	srcHash := fcache.HashSource(src)
	var masterCache *fcache.Cache
	if cp, ok := backend.(CacheProvider); ok {
		masterCache = cp.Cache()
	}

	// The self-tuning cost model: fitted against the persisted sample window
	// (empty without a disk tier — then Fit returns the static formula) and
	// memoized in the cache keyed on the record's stat, so back-to-back jobs
	// in a daemon pay one stat call, not a re-read and re-fit. Fitting is
	// guarded: fewer than 3 samples, a degenerate system, or a fit that
	// ranks the window worse than the static formula all keep the paper's
	// heuristic.
	model, persisted := masterCache.FittedCostModel()
	stats.Steal.ModelFitted = model.Fitted
	stats.Steal.SampleCount = len(persisted)

	// The work-stealing fleet: one set of dispatch slots shared by every
	// section master, so a straggler section's queue is drained by its
	// siblings' idle slots instead of waiting on its own. A standalone build
	// sizes a private fleet to the backend and retires it on the way out;
	// under warpd the daemon injects its daemon-lifetime fleet and this
	// build only opens a tagged handle on it — completion waits on the
	// build's own units, never the fleet's. Registered before cancel() so
	// the deferred LIFO runs cancel first: whatever of this build is still
	// queued when we unwind is dropped by Build.Close as cancelled orphans,
	// and its in-flight units drain as immediate no-ops.
	fleet := popts.fleet
	stats.Steal.Shared = fleet != nil
	if fleet == nil {
		fleet = sched.NewFleet(backend.Workers())
		defer fleet.Close()
	}
	build := fleet.Open(popts.tenant)
	defer build.Close()
	fleetBase := fleet.Stats()

	// With a peer fleet attached, the master batch-prefetches before any
	// dispatch: the outline already names every function hash this compile
	// can need, so one bounded-concurrency sweep pulls the fleet's finished
	// artifacts into the master cache. Each section master's per-function
	// probe (compiler.LookupObject) then short-circuits those functions as
	// "unchanged" without dispatching — a cold restart in a warm fleet
	// syncs keys instead of recompiling the world.
	if masterCache.HasPeers() {
		var fhs []fcache.FuncHash
		for _, so := range outline.Sections {
			for _, fo := range so.Functions {
				fhs = append(fhs, fcache.FuncHash(fo.Hash))
			}
		}
		compiler.PrefetchObjects(masterCache, fhs, opts)
	}

	// The pipeline context: the first fatal error — or the caller's own
	// cancellation — severs every other in-flight leg through it. The
	// frontend leg is the exception: it answers to the caller's context
	// only, because its verdict is authoritative — when speculative dispatch
	// loses its bet, the fleet's errors are echoes and the abort message
	// must carry the frontend's diagnostics, word-identical to the
	// sequential compiler's. A failing section therefore severs the fleet
	// but lets the (in-process, cheap) frontend leg finish.
	callerCtx := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Speculative dispatch: the outline alone is enough to plan and fork
	// section masters, so the master's frontend runs concurrently with the
	// fleet instead of ahead of it.
	feCh := make(chan frontendVerdict, 1)
	go func() {
		t := time.Now()
		var timing compiler.FrontendTiming
		fe, err := compiler.FrontendEntryCachedWith(callerCtx, masterCache, srcHash, file, src, compiler.FrontendOptions{
			Parallel: true,
			Workers:  popts.FrontendWorkers,
			Outline:  outline, // the setup parse already paid for the spans
			Timing:   &timing,
		})
		if err != nil {
			feCh <- frontendVerdict{err: err, time: time.Since(t)}
			return
		}
		feCh <- frontendVerdict{m: fe.Module, bag: fe.Bag, time: time.Since(t), timing: timing}
	}()
	secCh := make(chan sectionDone, len(outline.Sections))
	regionStart := time.Now()
	for i, so := range outline.Sections {
		go func(i int, so parser.SectionOutline) {
			r, err := runSectionMaster(ctx, file, src, srcHash, so, backend, masterCache, model, build, opts, popts)
			secCh <- sectionDone{pos: i, res: r, err: err}
		}(i, so)
	}
	type driverDone struct {
		drv  *iodriver.Driver
		time time.Duration
	}
	drvCh := make(chan driverDone, 1)

	var (
		m      *ast.Module
		bag    *source.DiagBag
		feDone bool
	)

	// The combine loop: consume legs as they complete. Each section is
	// linked the moment it arrives; the frontend verdict gates success and
	// releases the I/O-driver leg.
	builder := link.NewBuilder(outline.Module)
	secResults := make([]*SectionResult, len(outline.Sections))
	secErrs := make([]error, len(outline.Sections))
	remaining := len(outline.Sections)
	var feErr error
	for remaining > 0 || !feDone {
		select {
		case fe := <-feCh:
			feDone = true
			stats.FrontendTime = fe.time
			stats.Pipeline.FrontendParseWall = fe.timing.ParseWall
			stats.Pipeline.FrontendCheckWall = fe.timing.CheckWall
			stats.Pipeline.FrontendWorkers = fe.timing.Workers
			if fe.err != nil {
				// The frontend leg was cancelled — by the caller, or by a
				// failing section severing the pipeline. Keep draining; the
				// error selection below decides what to report.
				feErr = fe.err
				cancel()
				continue
			}
			if fe.bag.HasErrors() {
				// Speculative dispatch lost its bet: sever the in-flight
				// compiles, drain the fleet, and report the frontend's
				// diagnostics. The sections' own errors are echoes of the
				// same source, so the frontend verdict takes precedence.
				cancel()
				for remaining > 0 {
					<-secCh
					remaining--
				}
				return nil, stats, fmt.Errorf("master: front-end errors, compilation aborted:\n%s", fe.bag.String())
			}
			m, bag = fe.m, fe.bag
			go func() {
				t := time.Now()
				d := iodriver.Generate(fe.m)
				drvCh <- driverDone{drv: d, time: time.Since(t)}
			}()
		case d := <-secCh:
			remaining--
			if remaining == 0 {
				// Fork of the first section master to the last section's
				// completion.
				stats.CompileWallTime = time.Since(regionStart)
			}
			secResults[d.pos], secErrs[d.pos] = d.res, d.err
			if d.err != nil {
				cancel() // first fatal error severs the siblings
				continue
			}
			lt := time.Now()
			err := builder.Add(outline.Sections[d.pos].Index, sectionObjects(d.res))
			ldur := time.Since(lt)
			stats.Pipeline.LinkTime += ldur
			if remaining > 0 {
				stats.Pipeline.LinkOverlap += ldur
			}
			if err != nil {
				secErrs[d.pos] = err
				cancel()
			}
		}
	}

	// Error selection: the first failing section in outline order wins.
	// Cancellation echoes from severed siblings (or from the caller's own
	// ctx) never mask a genuine error.
	var cancelled error
	for i, err := range secErrs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cancelled == nil {
				cancelled = fmt.Errorf("section %d: %w", outline.Sections[i].Index, err)
			}
			continue
		}
		return nil, stats, fmt.Errorf("section %d: %w", outline.Sections[i].Index, err)
	}
	if feErr != nil {
		// No section reported a genuine error, so the cancellation originated
		// outside the fleet (the caller's ctx); the frontend leg saw it first.
		return nil, stats, fmt.Errorf("master: frontend: %w", feErr)
	}
	if cancelled != nil {
		return nil, stats, cancelled
	}

	// Combine the section masters' results in declaration order. Warnings
	// are merged in section order — the paper's "combining diagnostic
	// output" step — and every reconstructed FuncResult carries a non-nil
	// (if empty) DiagBag, because the structured diagnostics cannot cross
	// the process boundary.
	var funcResults []*compiler.FuncResult
	var warnings []string
	var observed []sched.CostSample
	warnings = append(warnings, compiler.FrontendWarnings(m, bag, nil)...)
	for _, r := range secResults {
		observed = append(observed, r.Samples...)
		stats.SectionCPU[r.Section] = r.MasterTime
		stats.DispatchTime += r.PlanTime
		stats.Dispatch.Units += r.Units
		stats.Dispatch.Batches += r.Batches
		stats.Dispatch.BatchedFuncs += r.BatchedFuncs
		stats.Dispatch.UnchangedFuncs += r.Unchanged
		stats.Dispatch.IncrementalHits += r.WorkerHits
		warnings = append(warnings, r.Warnings...)
		for _, sf := range r.Funcs {
			stats.FuncCPU[fmt.Sprintf("s%d/%s", r.Section, sf.Name)] = sf.CPUTime
			funcResults = append(funcResults, &compiler.FuncResult{
				Name:    sf.Name,
				Section: sf.Object.Section,
				IsEntry: sf.Object.IsEntry,
				Object:  sf.Object,
				Lines:   sf.Lines,
				CPUTime: sf.CPUTime,
				Diags:   &source.DiagBag{},
			})
		}
	}
	stats.Warnings = len(warnings)
	stats.Dispatch.RankCorr = estimatorAccuracy(outline, stats.FuncCPU)
	stats.Steal.StaticRankCorr = stats.Dispatch.RankCorr
	stats.Steal.FittedRankCorr = estimatorAccuracyModel(outline, stats.FuncCPU, model)
	// All sections combined: every one of this build's units has been
	// delivered, so Close (idempotent with the deferred one) settles the
	// handle without waiting on sibling builds. A private fleet is retired
	// outright so its idle decomposition ends at the last unit rather than
	// accumulating through the link tail; on a shared fleet the idle delta
	// since Open approximates this job's window.
	build.Close()
	bs := build.Stats()
	stats.Steal.Steals = bs.Steals
	stats.Steal.CrossBuildSteals = bs.CrossBuildSteals
	stats.Steal.BatchSplits = bs.BatchSplits
	stats.Steal.StealLatency = bs.StealLatency
	if !stats.Steal.Shared {
		fleet.Close()
		fleet.Wait()
	}
	stats.Steal.IdleTime = idleDelta(fleet.Stats().IdleTime, fleetBase.IdleTime)
	// Feed the estimator's loop: append this build's observations to the
	// persisted window (PutCostSamples trims it and is a no-op without a
	// disk tier). Failures are ignored — samples are a scheduling hint.
	if len(observed) > 0 && masterCache != nil {
		_ = masterCache.PutCostSamples(append(persisted, observed...))
	}
	if total := outline.NumFunctions(); total > 0 {
		stats.Dispatch.RecompiledFuncs = total - stats.Dispatch.UnchangedFuncs - stats.Dispatch.IncrementalHits
		stats.Dispatch.RecompileRatio = float64(stats.Dispatch.RecompiledFuncs) / float64(total)
	}

	// Master, step 4: what remains of the sequential tail. The sections are
	// already linked and the driver leg is in flight — only ordering the
	// cell images and collecting the driver are left.
	t3 := time.Now()
	linked, err := builder.Finish()
	if err != nil {
		return nil, stats, err
	}
	dd := <-drvCh
	stats.Pipeline.DriverTime = dd.time
	res := &compiler.Result{
		ModuleName: m.Name,
		Module:     linked,
		Driver:     dd.drv,
		Funcs:      funcResults,
		Warnings:   warnings,
	}
	stats.BackendTail = time.Since(t3)
	stats.Elapsed = time.Since(start)
	stats.Pipeline.FrontendOverlap = min(stats.FrontendTime, stats.CompileWallTime)
	stats.Pipeline.CriticalPath = stats.SetupTime + max(stats.FrontendTime, stats.CompileWallTime) + stats.BackendTail
	if cs, ok := backend.(CacheStatser); ok {
		stats.Cache = cs.CacheStats()
	}
	if fs, ok := backend.(FaultStatser); ok {
		stats.Faults = fs.FaultStats()
	}
	return res, stats, nil
}

// sectionObjects extracts a section result's objects in declaration order
// for the linker.
func sectionObjects(r *SectionResult) []*asm.Object {
	objs := make([]*asm.Object, len(r.Funcs))
	for i := range r.Funcs {
		objs[i] = r.Funcs[i].Object
	}
	return objs
}

// estimatorAccuracy computes the Spearman rank correlation between each
// function's estimated cost (lines × loop nesting, from the outline) and
// its measured CPU time. Functions answered from cache have no measured
// compile time and are excluded; with fewer than 3 samples the correlation
// is meaningless noise (always ±1 for 1–2 points), so it is reported as NaN
// and omitted from the stats output.
func estimatorAccuracy(o *parser.Outline, funcCPU map[string]time.Duration) float64 {
	return estimatorAccuracyModel(o, funcCPU, sched.StaticModel())
}

// estimatorAccuracyModel is estimatorAccuracy under an arbitrary cost model
// — the fitted and static models are scored against the same measured times
// to report the before/after-fit correlation.
func estimatorAccuracyModel(o *parser.Outline, funcCPU map[string]time.Duration, m sched.Model) float64 {
	var predicted, actual []float64
	for _, so := range o.Sections {
		for _, fo := range so.Functions {
			cpu, ok := funcCPU[fmt.Sprintf("s%d/%s", so.Index, fo.Name)]
			if !ok || cpu <= 0 {
				continue
			}
			predicted = append(predicted, m.Estimate(sched.Task{Lines: fo.Lines, LoopDepth: fo.LoopDepth}))
			actual = append(actual, cpu.Seconds())
		}
	}
	if len(predicted) < 3 {
		return math.NaN()
	}
	return sched.RankCorrelation(predicted, actual)
}

// unitDone is one dispatch unit's outcome, streamed back to the section
// master as it completes.
type unitDone struct {
	unit    sched.Unit
	replies []*CompileReply
	err     error
}

// runSectionMaster plans the section's dispatch units from the structural
// outline (large functions first, small ones batched under the cost
// threshold), submits them to the fleet, and combines objects and
// diagnostics incrementally as replies stream in — asm.Decode overlaps
// the slowest in-flight compiles instead of serializing after a
// whole-section barrier. Output (objects, warnings) is emitted in
// declaration order regardless of arrival order.
//
// Before planning anything, the section master probes masterCache's object
// tier with each function's incremental hash: unchanged functions are
// answered on the spot and never reach sched.Plan, so the cost model only
// schedules the functions that genuinely need compiling.
//
// The planned units feed the work-stealing fleet through the build handle:
// execution order is whatever steals make it, unit boundaries may change
// mid-flight (a steal can crack a queued batch open), and the combine loop
// therefore counts remaining *tasks*, not units. Emission stays keyed by
// declaration index.
func runSectionMaster(ctx context.Context, file string, src []byte, srcHash fcache.SourceHash, so parser.SectionOutline, backend Backend, masterCache *fcache.Cache, model sched.Model, build *sched.Build, opts compiler.Options, popts ParallelOptions) (*SectionResult, error) {
	t0 := time.Now()
	res := &SectionResult{
		Section: so.Index,
		Funcs:   make([]SectionFunc, len(so.Functions)),
	}
	tasks := make([]sched.Task, 0, len(so.Functions))
	for i, fo := range so.Functions {
		if entry, ok := compiler.LookupObject(masterCache, fcache.FuncHash(fo.Hash), opts); ok && entry.Name == fo.Name {
			if obj, err := entry.Object(); err == nil {
				res.Funcs[i] = SectionFunc{
					Name:     entry.Name,
					Object:   obj,
					Lines:    entry.Lines,
					Warnings: entry.Warnings,
				}
				res.Unchanged++
				continue
			}
			// An undecodable cached object is treated as a miss: recompile.
		}
		tasks = append(tasks, sched.Task{
			Name:      fo.Name,
			Section:   fo.Section,
			Index:     fo.Index,
			Lines:     fo.Lines,
			LoopDepth: fo.LoopDepth,
		})
	}
	units := sched.PlanCosted(model.Costs(tasks), popts.planThreshold(), backend.Workers())
	res.Units = len(units)
	for _, u := range units {
		if u.IsBatch() {
			res.Batches++
			res.BatchedFuncs += len(u.Tasks)
		}
	}
	res.PlanTime = time.Since(t0)

	batcher, canBatch := backend.(BatchBackend)
	dispatch := func(u sched.Unit) ([]*CompileReply, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if u.IsBatch() && canBatch {
			items := make([]BatchItem, len(u.Tasks))
			for i, t := range u.Tasks {
				items[i] = BatchItem{Section: t.Section, Index: t.Index, FuncHash: fcache.FuncHash(so.Functions[t.Index].Hash)}
			}
			return batcher.CompileBatch(ctx, BatchRequest{
				File:       file,
				Source:     src,
				SourceHash: srcHash,
				Items:      items,
				Opts:       opts,
			})
		}
		// A multi-function unit on a batch-less backend still occupies one
		// processor at a time: its functions run serially in this goroutine.
		replies := make([]*CompileReply, len(u.Tasks))
		for i, t := range u.Tasks {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := backend.Compile(ctx, CompileRequest{
				File:       file,
				Source:     src,
				SourceHash: srcHash,
				Section:    t.Section,
				Index:      t.Index,
				FuncHash:   fcache.FuncHash(so.Functions[t.Index].Hash),
				Opts:       opts,
			})
			if err != nil {
				return nil, fmt.Errorf("function %s: %w", t.Name, err)
			}
			replies[i] = r
		}
		return replies, nil
	}

	// The channel is buffered to len(tasks) so deliveries never block on
	// send: an early error return leaks no goroutines. Tasks, not units,
	// bound the count — a steal can split one planned unit into several
	// delivered fragments, but every fragment carries at least one task.
	done := make(chan unitDone, len(tasks))
	deliver := func(u sched.Unit) {
		replies, err := dispatch(u)
		done <- unitDone{unit: u, replies: replies, err: err}
	}
	build.Submit(units, deliver)

	// Streaming combine: decode each object the moment its reply lands.
	// Slots are keyed by declaration index, so any request/reply skew —
	// wrong count, wrong name, duplicate index — is a hard error, never a
	// silently zeroed field. The loop runs until every *task* is accounted
	// for: under stealing the number of delivered units is not known up
	// front (splits), only the task total is.
	for pending := len(tasks); pending > 0; {
		d := <-done
		pending -= len(d.unit.Tasks)
		if d.err != nil {
			return nil, d.err
		}
		if len(d.replies) != len(d.unit.Tasks) {
			return nil, fmt.Errorf("dispatch skew: %d replies for %d functions", len(d.replies), len(d.unit.Tasks))
		}
		for k, r := range d.replies {
			t := d.unit.Tasks[k]
			if r == nil || r.Name != t.Name {
				got := "<nil>"
				if r != nil {
					got = r.Name
				}
				return nil, fmt.Errorf("dispatch skew: expected reply for %s, got %s", t.Name, got)
			}
			if t.Index < 0 || t.Index >= len(res.Funcs) || res.Funcs[t.Index].Object != nil {
				return nil, fmt.Errorf("dispatch skew: duplicate or out-of-range index %d for %s", t.Index, t.Name)
			}
			obj, err := asm.Decode(r.ObjectBytes)
			if err != nil {
				return nil, fmt.Errorf("decoding object %s: %w", r.Name, err)
			}
			res.Funcs[t.Index] = SectionFunc{
				Name:     r.Name,
				Object:   obj,
				Lines:    r.Lines,
				CPUTime:  r.CPUTime,
				Warnings: r.Warnings,
			}
			res.CPUTime += r.CPUTime
			if r.CacheHit {
				res.WorkerHits++
			} else if r.CPUTime > 0 {
				res.Samples = append(res.Samples, sched.CostSample{
					Lines:     t.Lines,
					LoopDepth: t.LoopDepth,
					Section:   t.Section,
					Seconds:   r.CPUTime.Seconds(),
				})
			}
		}
	}

	// Emit warnings in declaration order regardless of arrival order, and
	// verify every declared function produced exactly one object.
	for i := range res.Funcs {
		if res.Funcs[i].Object == nil {
			return nil, fmt.Errorf("dispatch skew: no object for function %s", so.Functions[i].Name)
		}
		res.Warnings = append(res.Warnings, res.Funcs[i].Warnings...)
	}
	res.MasterTime = time.Since(t0) - res.CPUTime
	if res.MasterTime < 0 {
		res.MasterTime = 0
	}
	return res, nil
}

// Tasks converts an outline to scheduler tasks (for grouped placement).
func Tasks(o *parser.Outline) []sched.Task {
	var out []sched.Task
	for _, so := range o.Sections {
		for _, fo := range so.Functions {
			out = append(out, sched.Task{
				Name:      fo.Name,
				Section:   fo.Section,
				Index:     fo.Index,
				Lines:     fo.Lines,
				LoopDepth: fo.LoopDepth,
			})
		}
	}
	return out
}

// VerifySameOutput checks that a parallel compilation produced exactly the
// same download module as the sequential compiler — the paper's requirement
// that "the parallel compiler produces the same input for the assembly
// phase as the sequential compiler". Returns an error describing the first
// difference.
func VerifySameOutput(seq, par *link.Module) error {
	if len(seq.Cells) != len(par.Cells) {
		return fmt.Errorf("cell count differs: %d vs %d", len(seq.Cells), len(par.Cells))
	}
	for i := range seq.Cells {
		a, b := seq.Cells[i], par.Cells[i]
		if len(a.Code) != len(b.Code) {
			return fmt.Errorf("cell %d code size differs: %d vs %d", i, len(a.Code), len(b.Code))
		}
		for w := range a.Code {
			if a.Code[w] != b.Code[w] {
				return fmt.Errorf("cell %d word %d differs:\n  seq: %s\n  par: %s", i, w, a.Code[w], b.Code[w])
			}
		}
		if a.DataWords != b.DataWords {
			return fmt.Errorf("cell %d data size differs", i)
		}
	}
	return nil
}
