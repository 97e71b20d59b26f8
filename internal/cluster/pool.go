package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/rpc"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fcache"
	"repro/internal/wire"
)

// PoolOptions configures the RPCPool's fault-tolerant dispatch. The zero
// value selects defaults; negative values disable the corresponding
// mechanism where noted.
type PoolOptions struct {
	// CallTimeout is the per-RPC deadline. A call that exceeds it is
	// abandoned, its connection severed, and the request failed over.
	// 0 selects the default (30s); negative disables deadlines.
	CallTimeout time.Duration
	// MaxRetries bounds how many times one request is re-dispatched after
	// transient failures before the pool gives up on remote execution.
	// 0 selects the default (3); negative disables retries.
	MaxRetries int
	// QuarantineAfter is the number of consecutive failures after which a
	// worker is quarantined (removed from rotation until a readmission
	// probe succeeds). 0 selects the default (2); negative means workers
	// are only quarantined when they become unreachable.
	QuarantineAfter int
	// RetryBase and RetryMax shape the capped exponential backoff between
	// retries (half fixed, half seeded jitter). Defaults 10ms and 500ms.
	RetryBase time.Duration
	RetryMax  time.Duration
	// DialRetry is the period of the background goroutine that re-dials
	// quarantined workers and readmits responders. 0 selects the default
	// (500ms); negative disables readmission.
	DialRetry time.Duration
	// DialTimeout bounds each connection attempt. Default 2s.
	DialTimeout time.Duration
	// DisableFallback, when set, makes the pool return an error instead of
	// compiling in-process when no remote worker is available.
	DisableFallback bool
	// Seed seeds the backoff jitter so tests are deterministic. 0 selects
	// the fixed default seed.
	Seed int64
	// CacheDir attaches a disk-backed object tier at the given directory to
	// the pool's master-side cache (overriding WARP_CACHE_DIR), so a fresh
	// warpcc process short-circuits unchanged functions from a previous
	// process's work. Empty means environment-default.
	CacheDir string
}

// withDefaults fills unset fields.
func (o PoolOptions) withDefaults() PoolOptions {
	if o.CallTimeout == 0 {
		o.CallTimeout = 30 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	} else if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.QuarantineAfter == 0 {
		o.QuarantineAfter = 2
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 10 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 500 * time.Millisecond
	}
	if o.DialRetry == 0 {
		o.DialRetry = 500 * time.Millisecond
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// FlagPoolOptions maps the binaries' -call-timeout, -max-retries and
// -dial-retry flags onto PoolOptions. On the command line 0 disables the
// mechanism, while PoolOptions reads 0 as "use the default", so a 0 flag
// becomes -1 here.
func FlagPoolOptions(callTimeout time.Duration, maxRetries int, dialRetry time.Duration) PoolOptions {
	o := PoolOptions{CallTimeout: callTimeout, MaxRetries: maxRetries, DialRetry: dialRetry}
	if callTimeout == 0 {
		o.CallTimeout = -1
	}
	if maxRetries == 0 {
		o.MaxRetries = -1
	}
	if dialRetry == 0 {
		o.DialRetry = -1
	}
	return o
}

// poolWorker is the pool's view of one remote workstation: its address
// (stable across restarts) and the current client (nil while quarantined).
type poolWorker struct {
	addr string

	mu          sync.Mutex
	client      *rpc.Client
	fails       int // consecutive transient failures
	quarantined bool
}

func (w *poolWorker) isQuarantined() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.quarantined
}

// setClient installs a fresh connection.
func (w *poolWorker) setClient(c *rpc.Client) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.client = c
}

func (w *poolWorker) getClient() *rpc.Client {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.client
}

// RPCPool dispatches units to remote workers over net/rpc with FCFS
// placement: a unit takes the first worker that frees up. Requests travel
// hash-only; the source follows only when a worker asks for it.
//
// Dispatch is fault-tolerant; CompileBatch holds the one failover loop.
// Workers failing repeatedly are quarantined; a background goroutine
// re-dials them and readmits responders, so a worker restarted on the same
// address rejoins the pool. When every worker is quarantined the pool
// compiles in-process (unless disabled), so the compilation completes even
// with the whole cluster down.
type RPCPool struct {
	opts    PoolOptions
	workers []*poolWorker
	free    chan *poolWorker
	closed  chan struct{}

	closeOnce  sync.Once
	bytesSaved int64 // atomic
	pushes     int64 // atomic: requests re-sent with their source

	// masterCache serves the master process itself: ParallelCompile warms
	// its frontend tier once per module (instead of re-running the full
	// frontend every compilation), and local-fallback compiles share it so
	// a whole module falling back parses once, like a LocalPool.
	masterCache *fcache.Cache

	mu      sync.Mutex
	healthy int // workers not quarantined (free or checked out)
	rng     *rand.Rand
	stats   core.FaultStats
}

// DialPool connects to the given worker addresses with default options.
func DialPool(addrs []string) (*RPCPool, error) {
	return DialPoolWith(addrs, PoolOptions{})
}

// DialPoolWith connects to the given worker addresses. Unreachable workers
// do not abort the dial: they start quarantined and the readmission probe
// picks them up when they come back — a degraded start. Only when no worker
// at all is reachable does DialPoolWith return an error.
func DialPoolWith(addrs []string, opts PoolOptions) (*RPCPool, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no worker addresses")
	}
	opts = opts.withDefaults()
	masterCache := fcache.NewEnv(fcache.DefaultMaxBytes)
	if opts.CacheDir != "" {
		if err := masterCache.AttachDisk(opts.CacheDir, 0); err != nil {
			return nil, fmt.Errorf("cluster: opening cache dir %s: %w", opts.CacheDir, err)
		}
	}
	p := &RPCPool{
		opts:        opts,
		free:        make(chan *poolWorker, len(addrs)),
		closed:      make(chan struct{}),
		rng:         rand.New(rand.NewSource(opts.Seed)),
		masterCache: masterCache,
	}
	var firstErr error
	for _, a := range addrs {
		w := &poolWorker{addr: a}
		p.workers = append(p.workers, w)
		c, err := p.dialWorker(a)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			w.quarantined = true
			p.stats.Quarantines++
			p.stats.Warnings = append(p.stats.Warnings,
				fmt.Sprintf("worker %s unreachable at start, quarantined: %v", a, err))
			continue
		}
		w.setClient(c)
		p.healthy++
		p.free <- w
	}
	if p.healthy == 0 {
		p.Close()
		return nil, fmt.Errorf("cluster: no reachable workers: %w", firstErr)
	}
	if p.opts.DialRetry > 0 {
		go p.readmitLoop()
	}
	return p, nil
}

// dialWorker connects to addr and verifies liveness with a Ping.
func (p *RPCPool) dialWorker(addr string) (*rpc.Client, error) {
	conn, err := net.DialTimeout("tcp", addr, p.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dialing %s: %w", addr, err)
	}
	c := rpc.NewClient(conn)
	var ok bool
	if err := wire.Call(context.Background(), c, "Worker.Ping", struct{}{}, &ok, p.opts.CallTimeout); err != nil || !ok {
		c.Close()
		return nil, fmt.Errorf("cluster: worker %s not responding: %v", addr, err)
	}
	return c, nil
}

// Workers returns the number of configured workers (healthy or not).
func (p *RPCPool) Workers() int { return len(p.workers) }

// Healthy returns the number of workers currently in rotation.
func (p *RPCPool) Healthy() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.healthy
}

// FaultStats reports the dispatch layer's fault-handling counters.
func (p *RPCPool) FaultStats() core.FaultStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Warnings = append([]string(nil), p.stats.Warnings...)
	return s
}

// call issues one RPC on w with the pool's deadline, counting deadline hits.
func (p *RPCPool) call(ctx context.Context, w *poolWorker, method string, args, reply any) error {
	c := w.getClient()
	if c == nil {
		return rpc.ErrShutdown
	}
	err := wire.Call(ctx, c, method, args, reply, p.opts.CallTimeout)
	if errors.Is(err, ErrDeadline) {
		p.mu.Lock()
		p.stats.DeadlineHits++
		p.mu.Unlock()
	}
	return err
}

// Compile runs one function as a batch of one.
func (p *RPCPool) Compile(ctx context.Context, req core.CompileRequest) (*core.CompileReply, error) {
	return core.CompileOne(ctx, p, req)
}

// CompileBatch sends a dispatch unit to one free worker in a single round
// trip. It holds the pool's one failover loop. The unit is a pure function
// of (source hash, options), so replaying it elsewhere is safe, and a
// worker that fails transiently is penalized. Then:
//
//   - a unit of several functions splits in half, and the halves retry
//     concurrently on whatever workers remain;
//   - a single function retries on the next free worker with capped
//     exponential backoff, up to MaxRetries, and then compiles in-process,
//     mirroring how the paper's pmake fell back to plain make when the
//     network was sick.
//
// With no worker in rotation the same split-or-fall-back step applies, so
// the compilation completes even with the whole cluster down. A
// deterministic answer (compile error, bad request) fails the unit at once:
// every worker would answer the same, and replaying a poisoned unit would
// just spread it. A cancelled ctx abandons the in-flight RPC and returns
// ctx.Err() — no retry, no fallback. The connection stays up, so calls of
// other builds on the same worker are not disturbed.
func (p *RPCPool) CompileBatch(ctx context.Context, req core.BatchRequest) ([]*core.CompileReply, error) {
	if req.SourceHash.IsZero() && len(req.Source) > 0 {
		req.SourceHash = fcache.HashSource(req.Source)
	}
	if len(req.Items) == 0 {
		return nil, nil
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		w := p.acquire(ctx)
		if w == nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			break
		}
		replies, err := p.batchOn(ctx, w, req)
		if err == nil {
			p.release(w)
			if attempt > 0 {
				p.mu.Lock()
				p.stats.Failovers++
				p.mu.Unlock()
			}
			return replies, nil
		}
		if ctx.Err() != nil {
			// The master gave up mid-call. An abandoned call leaves the
			// connection intact, so the worker goes straight back into
			// rotation; only a call that broke its connection on its own
			// (deadline, transport) as the master cancelled costs a re-dial.
			if transient(err) && !errors.Is(err, ctx.Err()) {
				p.penalize(w, err)
			} else {
				p.free <- w
			}
			return nil, ctx.Err()
		}
		if !transient(err) {
			// The worker answered deterministically: it is healthy, the
			// request is not.
			p.release(w)
			return nil, err
		}
		lastErr = err
		p.penalize(w, err)
		if len(req.Items) > 1 || attempt >= p.opts.MaxRetries {
			break
		}
		p.mu.Lock()
		p.stats.Retries++
		p.mu.Unlock()
		p.sleepBackoff(ctx, attempt+1)
	}
	if len(req.Items) > 1 {
		return p.splitBatch(ctx, req, lastErr)
	}
	return p.fallback(ctx, req, lastErr)
}

// acquire returns the next free worker, or nil when every worker is
// quarantined (no recovery is coming except through the readmission probe,
// which re-fills the free channel and flips the healthy counter) — or when
// ctx is cancelled while waiting.
func (p *RPCPool) acquire(ctx context.Context) *poolWorker {
	for {
		select {
		case w := <-p.free:
			return w
		default:
		}
		if p.Healthy() == 0 || ctx.Err() != nil {
			return nil
		}
		select {
		case w := <-p.free:
			return w
		case <-p.closed:
			return nil
		case <-ctx.Done():
			return nil
		case <-time.After(5 * time.Millisecond):
			// Re-check: a checked-out worker may have been quarantined
			// while we waited, leaving nothing to wait for.
		}
	}
}

// release returns a worker that served successfully to the free ring.
func (p *RPCPool) release(w *poolWorker) {
	w.mu.Lock()
	w.fails = 0
	w.mu.Unlock()
	p.free <- w
}

// penalize handles a transient failure on a checked-out worker: the broken
// connection is dropped, and the worker is either re-dialed back into
// rotation (transient blip) or quarantined (consecutive failures, or
// unreachable). The caller must not use w afterwards.
//
// A drain-coded refusal (CodeUnavailable — the worker answering "I am
// shutting down cleanly") is an orderly protocol event, not a health
// failure: it never counts toward the quarantine threshold, so a worker
// that completes its -grace drain and restarts rejoins with a clean health
// record instead of one strike from quarantine. The worker still leaves
// rotation while draining, because the re-dial below pings it and a
// draining worker answers the ping unavailable.
func (p *RPCPool) penalize(w *poolWorker, cause error) {
	w.mu.Lock()
	if CodeOf(cause) != CodeUnavailable {
		w.fails++
	}
	fails := w.fails
	if w.client != nil {
		w.client.Close()
		w.client = nil
	}
	w.mu.Unlock()

	if p.opts.QuarantineAfter > 0 && fails >= p.opts.QuarantineAfter {
		p.quarantine(w, cause)
		return
	}
	// One strike: try to re-dial immediately so a connection blip does not
	// cost us the worker. An unreachable worker goes straight to
	// quarantine — no point keeping a dead address in rotation.
	if c, err := p.dialWorker(w.addr); err == nil {
		w.setClient(c)
		p.free <- w
		return
	}
	p.quarantine(w, cause)
}

// quarantine removes w from rotation (it is checked out, so simply not
// returning it to the free ring suffices) and records the event.
func (p *RPCPool) quarantine(w *poolWorker, cause error) {
	w.mu.Lock()
	w.quarantined = true
	w.mu.Unlock()
	p.mu.Lock()
	p.healthy--
	p.stats.Quarantines++
	p.stats.Warnings = append(p.stats.Warnings,
		fmt.Sprintf("worker %s quarantined: %v", w.addr, cause))
	p.mu.Unlock()
}

// readmitLoop periodically re-dials quarantined workers and readmits the
// ones that answer — a worker restarted on the same address rejoins the
// pool without operator action.
func (p *RPCPool) readmitLoop() {
	t := time.NewTicker(p.opts.DialRetry)
	defer t.Stop()
	for {
		select {
		case <-p.closed:
			return
		case <-t.C:
		}
		for _, w := range p.workers {
			if !w.isQuarantined() {
				continue
			}
			c, err := p.dialWorker(w.addr)
			if err != nil {
				continue
			}
			w.mu.Lock()
			w.quarantined = false
			w.fails = 0
			w.mu.Unlock()
			w.setClient(c)
			p.mu.Lock()
			p.healthy++
			p.stats.Readmissions++
			p.mu.Unlock()
			select {
			case <-p.closed:
				c.Close()
				return
			default:
				p.free <- w
			}
		}
	}
}

// sleepBackoff waits before retry n (1-based): capped exponential, half
// fixed and half seeded jitter, interruptible by Close or ctx.
func (p *RPCPool) sleepBackoff(ctx context.Context, n int) {
	d := p.opts.RetryBase << uint(n-1)
	if d > p.opts.RetryMax || d <= 0 {
		d = p.opts.RetryMax
	}
	p.mu.Lock()
	jitter := time.Duration(p.rng.Int63n(int64(d)/2 + 1))
	p.mu.Unlock()
	t := time.NewTimer(d/2 + jitter)
	defer t.Stop()
	select {
	case <-t.C:
	case <-p.closed:
	case <-ctx.Done():
	}
}

// fallback compiles a one-function unit in-process — the graceful-
// degradation tail when no remote worker is available. All fallbacks share
// one cache so a whole module falling back parses once, like a LocalPool.
func (p *RPCPool) fallback(ctx context.Context, req core.BatchRequest, cause error) ([]*core.CompileReply, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.opts.DisableFallback {
		if cause != nil {
			return nil, fmt.Errorf("cluster: no workers available (local fallback disabled): %w", cause)
		}
		return nil, fmt.Errorf("cluster: all workers quarantined (local fallback disabled)")
	}
	if len(req.Source) == 0 {
		return nil, fmt.Errorf("cluster: cannot fall back locally without source (hash %s)", req.SourceHash)
	}
	p.mu.Lock()
	p.stats.LocalFallbacks++
	why := "all workers quarantined"
	if cause != nil {
		why = cause.Error()
	}
	p.stats.Warnings = append(p.stats.Warnings,
		fmt.Sprintf("compiled s%d/#%d in-process (%s)", req.Items[0].Section, req.Items[0].Index, why))
	p.mu.Unlock()
	return core.RunBatchWith(ctx, req, p.masterCache)
}

// splitBatch is the multi-function failover step: halve the unit and retry
// both halves concurrently on whatever workers remain. Recursion bottoms
// out at single functions, which retry and fall back in CompileBatch.
func (p *RPCPool) splitBatch(ctx context.Context, req core.BatchRequest, cause error) ([]*core.CompileReply, error) {
	p.mu.Lock()
	p.stats.BatchSplits++
	p.stats.Retries++
	why := "no workers in rotation"
	if cause != nil {
		why = cause.Error()
	}
	p.stats.Warnings = append(p.stats.Warnings,
		fmt.Sprintf("batch of %d functions split for retry (%s)", len(req.Items), why))
	p.mu.Unlock()

	mid := len(req.Items) / 2
	left, right := req, req
	left.Items = req.Items[:mid]
	right.Items = req.Items[mid:]
	var (
		wg          sync.WaitGroup
		leftReplies []*core.CompileReply
		leftErr     error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		leftReplies, leftErr = p.CompileBatch(ctx, left)
	}()
	rightReplies, rightErr := p.CompileBatch(ctx, right)
	wg.Wait()
	if leftErr != nil {
		return nil, leftErr
	}
	if rightErr != nil {
		return nil, rightErr
	}
	p.mu.Lock()
	p.stats.Failovers++
	p.mu.Unlock()
	return append(leftReplies, rightReplies...), nil
}

// batchOn sends one unit to worker w. The request travels hash-only: a
// worker that holds the source, or answers every item from its object tier,
// needs nothing more — the paper's workstations likewise read
// the source from the shared file server rather than receiving it in each
// message. A missing-source answer sends the request once more with the
// source, which the worker checks against the hash and keeps for the
// module's next unit. A reply-count skew is returned as a plain
// (transport-class) error so the caller's failover heals it.
func (p *RPCPool) batchOn(ctx context.Context, w *poolWorker, req core.BatchRequest) ([]*core.CompileReply, error) {
	lean := req
	lean.Source = nil
	var reply BatchReply
	err := p.call(ctx, w, "Worker.CompileBatch", lean, &reply)
	switch {
	case err == nil:
		atomic.AddInt64(&p.bytesSaved, int64(len(req.Source)))
	case IsMissingSource(err) && len(req.Source) > 0:
		atomic.AddInt64(&p.pushes, 1)
		reply = BatchReply{}
		err = p.call(ctx, w, "Worker.CompileBatch", req, &reply)
	}
	if err != nil {
		return nil, err
	}
	if len(reply.Replies) != len(req.Items) {
		return nil, fmt.Errorf("cluster: batch skew from %s: %d replies for %d items",
			w.addr, len(reply.Replies), len(req.Items))
	}
	out := make([]*core.CompileReply, len(reply.Replies))
	for i := range reply.Replies {
		out[i] = &reply.Replies[i]
	}
	return out, nil
}

// Cache exposes the pool's master-side cache so ParallelCompile's own
// phase 1 is cached across compilations — the master otherwise re-runs the
// full frontend per build even though every worker caches it.
func (p *RPCPool) Cache() *fcache.Cache { return p.masterCache }

// CacheStats aggregates the workers' cache counters and adds the pool's own
// wire savings. Workers that cannot be reached contribute nothing.
func (p *RPCPool) CacheStats() fcache.Stats {
	var s fcache.Stats
	for _, w := range p.workers {
		c := w.getClient()
		if c == nil {
			continue
		}
		var ws fcache.Stats
		if err := wire.Call(context.Background(), c, "Worker.CacheStats", struct{}{}, &ws, p.opts.CallTimeout); err == nil {
			s.Add(ws)
		}
	}
	s.RPCBytesSaved += atomic.LoadInt64(&p.bytesSaved)
	s.SourcePushes += atomic.LoadInt64(&p.pushes)
	return s
}

// Close tears down all connections and stops the readmission probe.
func (p *RPCPool) Close() {
	p.closeOnce.Do(func() { close(p.closed) })
	for _, w := range p.workers {
		w.mu.Lock()
		if w.client != nil {
			w.client.Close()
			w.client = nil
		}
		w.mu.Unlock()
	}
}

var _ core.Backend = (*RPCPool)(nil)
var _ core.CacheStatser = (*RPCPool)(nil)
var _ core.FaultStatser = (*RPCPool)(nil)
