// Package cluster provides the parallel compiler's workstation backends.
//
// The paper's host system is an Ethernet network of diskless SUN
// workstations sharing a file server. This package offers two modern
// stand-ins with the same first-come-first-served semantics:
//
//   - LocalPool: N worker goroutines in this process (shared-memory "nodes").
//   - RPCPool:   worker processes reached over net/rpc — genuinely separate
//     address spaces connected by a byte stream, the closest stdlib
//     equivalent of the paper's message-passing UNIX processes.
//
// Both serve one operation, core.Backend.CompileBatch: a dispatch unit of
// one or more functions goes to one worker and its objects come back.
// Compile is a batch of one. Over the wire that is one RPC,
// Worker.CompileBatch.
//
// Both backends are cached (internal/fcache). The LocalPool shares one
// cache between the master and all workers, so a module is parsed and
// type-checked once per compilation instead of once per function. Each RPC
// worker keeps a per-process cache and a source store: a request carries
// the module's 32-byte content hash and no source, and only when the worker
// answers missing-source does the pool send it once more with the source,
// which the worker checks and keeps for the next unit (the shared-file-
// server analog). Per-request wire bytes drop from O(|source|) to O(1).
//
// Workers are served by internal/wire: one rpc.Server per connection, calls
// under wire.Call's deadline.
//
// Unlike the paper's system — where a workstation failing mid-compile
// failed the compilation — the RPCPool is fault-tolerant. Calls carry
// deadlines. Units are pure functions of source hash and options, so replay
// is safe: one failover loop splits a failed multi-function unit in half,
// retries a failed single function on another worker with backoff, and
// compiles it in-process when no worker is left, so the compilation still
// completes. Repeatedly failing workers are quarantined and probed for
// readmission. See pool.go.
package cluster

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/fcache"
	"repro/internal/wire"
)

// LocalPool runs function masters on a fixed number of in-process workers
// sharing one artifact cache.
type LocalPool struct {
	sem   chan struct{}
	n     int
	cache *fcache.Cache
}

// NewLocalPool returns a pool of n workers (n < 1 is treated as 1) sharing
// a default-sized artifact cache. When the WARP_CACHE_DIR environment
// variable names a directory, the cache's object tier is disk-backed there,
// so a fresh process starts warm.
func NewLocalPool(n int) *LocalPool {
	return NewLocalPoolWith(n, fcache.NewEnv(fcache.DefaultMaxBytes))
}

// NewLocalPoolWith returns a pool of n workers sharing the given cache,
// which must be non-nil.
func NewLocalPoolWith(n int, cache *fcache.Cache) *LocalPool {
	if n < 1 {
		n = 1
	}
	return &LocalPool{sem: make(chan struct{}, n), n: n, cache: cache}
}

// Workers returns the pool size.
func (p *LocalPool) Workers() int { return p.n }

// Cache exposes the shared cache so the master can warm the frontend tier
// during its own phase 1.
func (p *LocalPool) Cache() *fcache.Cache { return p.cache }

// CacheStats reports the shared cache's counters.
func (p *LocalPool) CacheStats() fcache.Stats { return p.cache.Stats() }

// Compile runs one function as a batch of one.
func (p *LocalPool) Compile(ctx context.Context, req core.CompileRequest) (*core.CompileReply, error) {
	return core.CompileOne(ctx, p, req)
}

// CompileBatch runs a dispatch unit on the next free worker, blocking until
// one is available — exactly the FCFS placement of the paper. The unit
// occupies one processor for its duration, so packing small functions costs
// one slot instead of N. A cancelled ctx abandons the wait for a worker and
// stops between items; the item already running completes (phases 2+3 are
// not preemptible in-process) but its reply is discarded.
func (p *LocalPool) CompileBatch(ctx context.Context, req core.BatchRequest) ([]*core.CompileReply, error) {
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-p.sem }()
	return core.RunBatchWith(ctx, req, p.cache)
}

// ---------------------------------------------------------------------------
// RPC worker (the "workstation" daemon)

// Worker is the RPC service run by each workstation process. net/rpc spawns
// one goroutine per pending request, so without a bound a burst of batch
// RPCs would oversubscribe the machine; the jobs semaphore admits at most
// Jobs() compiles at a time and queues the rest (FCFS). Only compiling
// takes a slot: a request answered from the cache, or answered
// missing-source, never waits behind running compiles. The default of one
// job reproduces the paper's single-CPU SUN workstations. The worker keeps
// a per-process artifact cache across requests.
type Worker struct {
	sem   chan struct{} // one slot per concurrent compile job
	cache *fcache.Cache

	// cur/peak track the number of compiles running right now and its
	// high-water mark, observable via PeakConcurrent.
	cur  atomic.Int64
	peak atomic.Int64

	stateMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup
}

// NewWorker returns a worker with a cache bounded to cacheBytes
// (cacheBytes < 1 selects the default budget) that runs one compile at a
// time. The WARP_CACHE_DIR environment variable attaches a disk-backed
// object tier, so a restarted worker starts warm.
func NewWorker(cacheBytes int64) *Worker {
	return NewWorkerJobs(cacheBytes, 1)
}

// NewWorkerJobs is NewWorker with an explicit concurrent-compile bound
// (jobs < 1 is treated as 1 — the paper's one CPU per workstation).
func NewWorkerJobs(cacheBytes int64, jobs int) *Worker {
	if jobs < 1 {
		jobs = 1
	}
	return &Worker{sem: make(chan struct{}, jobs), cache: fcache.NewEnv(cacheBytes)}
}

// Jobs returns the concurrent-compile bound.
func (w *Worker) Jobs() int { return cap(w.sem) }

// PeakConcurrent reports the high-water mark of simultaneously running
// compiles — never more than Jobs(), by construction.
func (w *Worker) PeakConcurrent() int { return int(w.peak.Load()) }

// acquireSlot blocks until a compile slot is free and returns its release
// function, maintaining the concurrency high-water mark.
func (w *Worker) acquireSlot() func() {
	w.sem <- struct{}{}
	c := w.cur.Add(1)
	for {
		p := w.peak.Load()
		if c <= p || w.peak.CompareAndSwap(p, c) {
			break
		}
	}
	return func() {
		w.cur.Add(-1)
		<-w.sem
	}
}

// begin registers an in-flight request, refusing once draining has started.
func (w *Worker) begin() bool {
	w.stateMu.Lock()
	defer w.stateMu.Unlock()
	if w.draining {
		return false
	}
	w.inflight.Add(1)
	return true
}

// drain stops admitting new compiles and waits up to grace for in-flight
// ones to finish. It reports whether the worker drained fully.
func (w *Worker) drain(grace time.Duration) bool {
	w.stateMu.Lock()
	w.draining = true
	w.stateMu.Unlock()
	done := make(chan struct{})
	go func() {
		w.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(grace):
		return false
	}
}

// BatchReply is the Worker.CompileBatch reply: one compile reply per
// requested item, in item order. Replies travel by value so the gob stream
// never carries nil pointers.
type BatchReply struct {
	Replies []core.CompileReply
}

// CompileBatch is the one compile RPC, invoked by section masters with a
// dispatch unit of one or more functions; replies align with req.Items.
// Requests may omit the source when the worker already holds it
// (content-addressed by req.SourceHash). A request that carries both has
// the source checked against the hash before it is stored, so a mislabelled
// source can neither poison the source store nor be answered from another
// module's cached frontend. Any item's compile error fails the whole batch
// with CodeCompile, so clients can tell "the source is bad" from "the
// worker is bad".
func (w *Worker) CompileBatch(req core.BatchRequest, reply *BatchReply) error {
	if !w.begin() {
		return codeErr(CodeUnavailable, "worker: draining, not accepting new compiles")
	}
	defer w.inflight.Done()
	if len(req.Source) == 0 {
		src, ok := w.cache.Source(req.SourceHash)
		if !ok {
			// The source is not resident, but a hash-only batch whose every
			// item hits the object tier (in warm runs the disk tier makes this
			// the common case for a fresh worker) needs no source at all —
			// the incremental fast path.
			if replies, all := w.batchFromCache(&req); all {
				reply.Replies = replies
				return nil
			}
			return codeErr(CodeMissingSource, "worker: source not resident for hash %s", req.SourceHash)
		}
		req.Source = src
	} else if !req.SourceHash.IsZero() {
		if got := fcache.HashSource(req.Source); got != req.SourceHash {
			return codeErr(CodeBadRequest, "worker: source hash mismatch: got %s, want %s", got, req.SourceHash)
		}
		w.cache.PutSource(req.SourceHash, req.Source)
	}
	// net/rpc carries no context: a call the pool abandons still runs to
	// completion here, and its reply is discarded.
	release := w.acquireSlot()
	rs, err := core.RunBatchWith(context.Background(), req, w.cache)
	release()
	if err != nil {
		return codeErr(CodeCompile, "%v", err)
	}
	reply.Replies = make([]core.CompileReply, len(rs))
	for i, r := range rs {
		reply.Replies[i] = *r
	}
	return nil
}

// batchFromCache tries to answer every item of a batch from the object
// tier (memory, then disk). It reports all=false as soon as one item misses
// (the caller then demands the source and compiles normally).
func (w *Worker) batchFromCache(req *core.BatchRequest) (replies []core.CompileReply, all bool) {
	replies = make([]core.CompileReply, len(req.Items))
	for i, it := range req.Items {
		e, hit := compiler.LookupObject(w.cache, it.FuncHash, req.Opts)
		if !hit {
			return nil, false
		}
		replies[i] = *core.ReplyFromEntry(e, 0, true)
	}
	return replies, len(req.Items) > 0
}

// CacheStats reports the worker's cache counters. It deliberately does not
// take the compile lock: stats stay available mid-compile.
func (w *Worker) CacheStats(_ struct{}, out *fcache.Stats) error {
	*out = w.cache.Stats()
	return nil
}

// Ping lets pools check worker liveness. A draining worker answers
// unavailable so pools stop routing to it.
func (w *Worker) Ping(_ struct{}, ok *bool) error {
	w.stateMu.Lock()
	draining := w.draining
	w.stateMu.Unlock()
	if draining {
		*ok = false
		return codeErr(CodeUnavailable, "worker: draining")
	}
	*ok = true
	return nil
}

// WorkerServer is a serving worker with a lifecycle: Close kills it the way
// a workstation crash would, Shutdown drains it the way an operator's
// SIGTERM should.
type WorkerServer struct {
	srv    *wire.Server
	worker *Worker
	addr   string
}

// NewWorkerServer listens on addr (e.g. "127.0.0.1:0") and serves compile
// requests with a cache bounded to cacheBytes (< 1 selects the default)
// until closed or shut down.
func NewWorkerServer(addr string, cacheBytes int64) (*WorkerServer, error) {
	return serveWorker(addr, NewWorker(cacheBytes))
}

// NewWorkerServerDir is NewWorkerServer with an explicit disk cache
// directory for the worker's object tier (overriding WARP_CACHE_DIR; empty
// means no disk tier beyond the environment's). Several workers may share
// one directory — entries are content-addressed and deterministic.
func NewWorkerServerDir(addr string, cacheBytes int64, dir string) (*WorkerServer, error) {
	return NewWorkerServerJobs(addr, cacheBytes, dir, 1)
}

// NewWorkerServerJobs is NewWorkerServerDir with an explicit concurrent-
// compile bound: up to jobs compiles run simultaneously and the rest queue
// (jobs < 1 is treated as 1). cmd/warpworker exposes the bound as -jobs
// (defaulting to the machine's CPU count).
func NewWorkerServerJobs(addr string, cacheBytes int64, dir string, jobs int) (*WorkerServer, error) {
	w := NewWorkerJobs(cacheBytes, jobs)
	if dir != "" {
		if err := w.cache.AttachDisk(dir, 0); err != nil {
			return nil, err
		}
	}
	return serveWorker(addr, w)
}

func serveWorker(addr string, w *Worker) (*WorkerServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := wire.Serve(ln, func(*wire.Conn) map[string]any {
		return map[string]any{"Worker": w}
	})
	return &WorkerServer{srv: srv, worker: w, addr: srv.Addr()}, nil
}

// Addr returns the bound listen address.
func (s *WorkerServer) Addr() string { return s.addr }

// Worker exposes the served worker (for inspecting concurrency counters).
func (s *WorkerServer) Worker() *Worker { return s.worker }

// Close stops accepting and severs every live connection immediately — the
// workstation-crash behavior used by fault tests.
func (s *WorkerServer) Close() error { return s.srv.Close() }

// Shutdown stops accepting new connections, refuses new compiles, waits up
// to grace for in-flight compiles to finish, then severs the remaining
// connections. It returns an error when the grace period expired with work
// still in flight.
func (s *WorkerServer) Shutdown(grace time.Duration) error {
	s.srv.StopAccepting()
	drained := s.worker.drain(grace)
	// Let replies written just after the last handler returned reach the
	// wire before severing.
	time.Sleep(50 * time.Millisecond)
	s.Close()
	if !drained {
		return codeErr(CodeUnavailable, "worker: grace period expired with compiles in flight")
	}
	return nil
}

// ServeWorker listens on addr (e.g. "127.0.0.1:0") and serves compile
// requests with a default-sized per-process cache until the server is
// closed. It returns the bound address.
func ServeWorker(addr string) (*WorkerServer, string, error) {
	srv, err := NewWorkerServer(addr, 0)
	if err != nil {
		return nil, "", err
	}
	return srv, srv.addr, nil
}

var _ core.Backend = (*LocalPool)(nil)
var _ core.CacheStatser = (*LocalPool)(nil)
