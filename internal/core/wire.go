package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/compiler"
	"repro/internal/fcache"
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

// BatchRequest is the one compile operation: it asks one worker to compile
// one or more functions of the same module in a single round trip. A batch
// of many amortizes the per-request overhead that dominates small functions
// (the paper's headline negative result: up to 70% of elapsed time); one
// function is a batch of one. Source/SourceHash follow CompileRequest's
// rules.
type BatchRequest struct {
	File       string
	Source     []byte
	SourceHash fcache.SourceHash
	Items      []BatchItem
	Opts       compiler.Options
}

// Backend runs dispatch units on some processor. Implementations must be
// safe for concurrent use; CompileBatch blocks until a processor is free
// (first-come-first-served, as in the paper), and the whole unit occupies
// that processor. Replies align with req.Items: reply i answers item i.
// Cancelling ctx severs the request — including any in-flight RPC — and
// returns ctx.Err() (possibly wrapped), discarding partial work: the master
// uses this to stop the whole fleet the moment one section fails, instead
// of waiting out the barrier.
type Backend interface {
	CompileBatch(ctx context.Context, req BatchRequest) ([]*CompileReply, error)
	// Workers returns the number of processors behind the backend.
	Workers() int
	// Cache returns the master's artifact cache (never nil): the master
	// fills its frontend tier during its own phase 1 and probes its object
	// tier for unchanged functions before dispatch. A backend whose workers
	// run in-process shares it with them (cluster.LocalPool), so no worker
	// ever re-parses.
	Cache() *fcache.Cache
}

// CompileOne runs a single function on b as a batch of one.
func CompileOne(ctx context.Context, b Backend, req CompileRequest) (*CompileReply, error) {
	replies, err := b.CompileBatch(ctx, BatchRequest{
		File:       req.File,
		Source:     req.Source,
		SourceHash: req.SourceHash,
		Items:      []BatchItem{{Section: req.Section, Index: req.Index, FuncHash: req.FuncHash}},
		Opts:       req.Opts,
	})
	if err != nil {
		return nil, err
	}
	if len(replies) != 1 {
		return nil, fmt.Errorf("dispatch skew: %d replies for one function", len(replies))
	}
	return replies[0], nil
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

// RunFunctionMasterWith executes one compile request using cache (never
// nil) for the shared immutable artifacts (checked frontend, per-function
// lowered IR, finished objects). RunBatchWith calls it once per batch item.
// A request whose FuncHash finds a finished artifact in the object tier is
// answered without touching the source — the incremental fast path.
func RunFunctionMasterWith(req CompileRequest, cache *fcache.Cache) (*CompileReply, error) {
	if e, ok := compiler.LookupObject(cache, req.FuncHash, req.Opts); ok {
		return ReplyFromEntry(e, 0, true), nil
	}
	start := time.Now()
	h := req.SourceHash
	if h.IsZero() {
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
// process, sequentially, using cache (never nil) — one worker serving a
// whole dispatch unit. Backends call it on their workers; cmd/warpworker
// exposes it over RPC with a per-process cache. Replies align with
// req.Items. The frontend runs (or is fetched from cache) once for the whole
// batch. A cancelled ctx stops between items; the item already running
// completes (phases 2+3 are not preemptible in-process).
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
