package service

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/fcache"
	"repro/internal/sched"
)

// Config parameterizes a Daemon. Backend is the only required field.
type Config struct {
	// Backend is the shared compile backend every job is multiplexed onto
	// (cluster.LocalPool or cluster.RPCPool, typically with a disk-backed
	// cache attached so a restarted daemon starts warm).
	Backend core.Backend
	// MaxActive bounds concurrently running jobs; <1 means the backend's
	// worker count. MaxQueued bounds jobs waiting at admission; <0 means
	// 4*MaxActive. Everything past both is shed with warp-err:overloaded.
	MaxActive int
	MaxQueued int
	// Tokens is the jobserver bucket capacity; <1 means MaxActive. Every
	// running job holds one token; clients may borrow the rest.
	Tokens int
	// JobTimeout is the per-job deadline measured from admission (0 = none).
	JobTimeout time.Duration
	// WriteTimeout bounds each response write so a hanging client that
	// stops reading cannot wedge its connection goroutine (0 = 10s).
	WriteTimeout time.Duration
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// flightKey identifies a dedupable job: same source bytes, same compiler
// options, same dispatch policy ⇒ word-identical output, compile once.
type flightKey struct {
	src   fcache.SourceHash
	opts  string // compiler.OptsKey
	popts core.ParallelOptions
}

// flight is one in-flight deduplicated compile. refs counts subscribers
// (leader + coalesced followers); when the last one leaves before the
// compile finishes, the flight's context is cancelled and the fleet slice
// it holds is severed.
type flight struct {
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed when result fields are final
	refs   int
	ended  bool // result is final; refs no longer gate cancellation

	res        *compiler.Result
	stats      *core.ParallelStats
	err        error
	retryAfter time.Duration
}

// Daemon is the warpd compile service: it accepts gob-framed requests
// over any net.Listener and multiplexes compile jobs onto one shared
// backend under admission control, a parallelism-token bound, per-job
// cancellation, cross-job dedup, and graceful drain. See the package
// comment for the full policy.
type Daemon struct {
	cfg    Config
	admit  *Admitter
	tokens *Bucket
	// fleet is the daemon-lifetime dispatch fleet every job dispatches
	// through: one queue and one set of slots sized to the backend,
	// multiplexing all concurrent builds so a slot one build leaves idle
	// serves another's queued units. Jobs tag their units with the same
	// client identity the Admitter queues by, and a free slot takes the
	// front-most unit of the tenant with the least service so far.
	fleet *sched.Fleet

	baseCtx context.Context
	stop    context.CancelFunc // hard stop: severs every job and conn

	mu        sync.Mutex
	draining  bool
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	flights   map[flightKey]*flight
	stats     DaemonStats
	// ewmaService is the smoothed job service time backing RetryAfter.
	ewmaService time.Duration
	// replies counts requests between pickup and response write; Shutdown
	// flushes these before severing connections so a client whose job
	// finished during the drain still receives its result. repliesDone is
	// signalled (under mu) each time the count drops.
	replies     int
	repliesDone *sync.Cond

	jobs  sync.WaitGroup // one per flight
	connG sync.WaitGroup // one per connection
}

// NewDaemon builds a daemon over the shared backend. Call Serve with one
// or more listeners, then Shutdown to drain.
func NewDaemon(cfg Config) (*Daemon, error) {
	if cfg.Backend == nil {
		return nil, errors.New("service: Config.Backend is required")
	}
	if cfg.MaxActive < 1 {
		cfg.MaxActive = cfg.Backend.Workers()
		if cfg.MaxActive < 1 {
			cfg.MaxActive = 1
		}
	}
	if cfg.MaxQueued < 0 {
		cfg.MaxQueued = 4 * cfg.MaxActive
	}
	if cfg.Tokens < 1 {
		cfg.Tokens = cfg.MaxActive
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &Daemon{
		cfg:       cfg,
		admit:     NewAdmitter(cfg.MaxActive, cfg.MaxQueued),
		tokens:    NewBucket(cfg.Tokens),
		fleet:     sched.NewFleet(cfg.Backend.Workers()),
		baseCtx:   ctx,
		stop:      cancel,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		flights:   make(map[flightKey]*flight),
	}
	d.repliesDone = sync.NewCond(&d.mu)
	return d, nil
}

// Serve accepts connections on l until the listener is closed (by
// Shutdown or externally). It returns nil on orderly close.
func (d *Daemon) Serve(l net.Listener) error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return Errf(codeDraining, "daemon: draining, not accepting listeners")
	}
	d.listeners[l] = struct{}{}
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		delete(d.listeners, l)
		d.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		d.mu.Lock()
		if d.draining {
			d.mu.Unlock()
			// Race between Accept and drain: refuse politely so the
			// client gets a coded error rather than a bare reset.
			go d.refuseDraining(conn)
			continue
		}
		d.conns[conn] = struct{}{}
		d.stats.Clients++
		d.mu.Unlock()
		d.connG.Add(1)
		go d.handleConn(conn)
	}
}

// refuseDraining answers one request on conn with a draining error, then
// closes it.
func (d *Daemon) refuseDraining(conn net.Conn) {
	defer conn.Close()
	var req Request
	if err := gob.NewDecoder(conn).Decode(&req); err != nil {
		return
	}
	d.mu.Lock()
	d.stats.JobsDrainRefused++
	d.mu.Unlock()
	conn.SetWriteDeadline(time.Now().Add(d.cfg.WriteTimeout))
	gob.NewEncoder(conn).Encode(errResponse(
		Errf(codeDraining, "daemon: draining, not accepting new jobs"), d.retryAfter()))
}

// handleConn runs one client connection: a reader goroutine decodes
// requests and detects disconnects (a failed read cancels connCtx, which
// severs exactly this connection's in-flight work); the main loop
// processes one request at a time and writes responses under a deadline.
// Tokens the connection borrowed are reclaimed on the way out.
func (d *Daemon) handleConn(conn net.Conn) {
	defer d.connG.Done()
	connCtx, connCancel := context.WithCancel(d.baseCtx)
	held := 0
	defer func() {
		connCancel()
		conn.Close()
		d.mu.Lock()
		delete(d.conns, conn)
		d.stats.Clients--
		d.mu.Unlock()
		for ; held > 0; held-- {
			d.tokens.Reclaim()
		}
	}()

	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	reqs := make(chan *Request)
	var disconnected atomic.Bool
	go func() {
		defer connCancel() // read failure = disconnect = cancel this conn's work
		for {
			var req Request
			if err := dec.Decode(&req); err != nil {
				disconnected.Store(true)
				return
			}
			select {
			case reqs <- &req:
			case <-connCtx.Done():
				return
			}
		}
	}()

	client := conn.RemoteAddr().String()
	for {
		var req *Request
		select {
		case req = <-reqs:
		case <-connCtx.Done():
			return
		}
		if req.Client == "" {
			req.Client = client
		}
		// The pickup-to-write window is tracked so Shutdown can flush
		// responses already owed before it severs connections.
		d.mu.Lock()
		d.replies++
		d.mu.Unlock()
		resp := d.handle(connCtx, req, &held)
		var werr error
		if disconnected.Load() {
			werr = errors.New("client disconnected") // nobody to answer
		} else {
			conn.SetWriteDeadline(time.Now().Add(d.cfg.WriteTimeout))
			werr = enc.Encode(resp)
		}
		d.mu.Lock()
		d.replies--
		d.repliesDone.Broadcast()
		d.mu.Unlock()
		if werr != nil {
			if !disconnected.Load() {
				d.cfg.Logf("warpd: write to %s failed: %v", client, werr)
			}
			return
		}
	}
}

// handle dispatches one request. held tracks tokens borrowed by this
// connection.
func (d *Daemon) handle(ctx context.Context, req *Request, held *int) *Response {
	switch req.Op {
	case OpPing:
		if d.isDraining() {
			return errResponse(Errf(codeDraining, "daemon: draining"), d.retryAfter())
		}
		return &Response{}
	case OpStats:
		return &Response{Daemon: d.snapshotStats(), Held: *held}
	case OpAcquire:
		n := req.N
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			if err := d.tokens.Acquire(ctx); err != nil {
				for ; i > 0; i-- {
					d.tokens.Release()
				}
				return errResponse(Errf(codeOverloaded, "token acquire: %v", err), d.retryAfter())
			}
		}
		*held += n
		return &Response{Granted: n, Held: *held}
	case OpRelease:
		n := req.N
		if n < 1 {
			n = 1
		}
		if n > *held {
			return errResponse(Errf(codeBadRequest,
				"release of %d token(s) but connection holds %d", n, *held), 0)
		}
		for i := 0; i < n; i++ {
			d.tokens.Release()
		}
		*held -= n
		return &Response{Held: *held}
	case OpCompile:
		return d.compile(ctx, req)
	default:
		return errResponse(Errf(codeBadRequest, "unknown op %q", req.Op), 0)
	}
}

// compile runs (or joins) one deduplicated compile job. The caller's ctx
// is its subscription: when it ends before the flight does, the caller
// unsubscribes, and the flight itself is cancelled only when the last
// subscriber leaves — so one client's disconnect never severs a
// co-subscribed job.
func (d *Daemon) compile(ctx context.Context, req *Request) *Response {
	if len(req.Source) == 0 {
		return errResponse(Errf(codeBadRequest, "empty source"), 0)
	}
	if req.File == "" {
		req.File = "input.w2"
	}
	d.mu.Lock()
	if d.draining {
		d.stats.JobsDrainRefused++
		d.mu.Unlock()
		return errResponse(Errf(codeDraining, "daemon: draining, not accepting new jobs"), d.retryAfter())
	}
	key := flightKey{
		src:   fcache.HashSource(req.Source),
		opts:  compiler.OptsKey(req.Opts),
		popts: req.POpts,
	}
	f, ok := d.flights[key]
	if ok {
		f.refs++
		d.stats.JobsCoalesced++
		d.mu.Unlock()
	} else {
		fctx, cancel := context.WithCancel(d.baseCtx)
		f = &flight{ctx: fctx, cancel: cancel, done: make(chan struct{}), refs: 1}
		d.flights[key] = f
		d.jobs.Add(1)
		d.mu.Unlock()
		go d.runFlight(key, f, req)
	}

	select {
	case <-f.done:
		d.unsubscribe(key, f)
		return d.flightResponse(f, ok)
	case <-ctx.Done():
		d.unsubscribe(key, f)
		return errResponse(fmt.Errorf("job cancelled: %w", ctx.Err()), 0)
	}
}

// unsubscribe drops one subscriber from a flight; the last one out of a
// still-running flight cancels it (and removes it from the dedup table so
// a later identical submission starts fresh).
func (d *Daemon) unsubscribe(key flightKey, f *flight) {
	d.mu.Lock()
	f.refs--
	if f.refs == 0 && !f.ended {
		f.cancel()
		if d.flights[key] == f {
			delete(d.flights, key)
		}
	}
	d.mu.Unlock()
}

// runFlight executes one deduplicated job end to end: admission, token,
// backend-stats snapshot, compile, per-job stats scoping. It finalizes
// the flight's result fields before closing done.
func (d *Daemon) runFlight(key flightKey, f *flight, req *Request) {
	defer d.jobs.Done()
	defer func() {
		d.mu.Lock()
		f.ended = true
		if d.flights[key] == f {
			delete(d.flights, key)
		}
		d.mu.Unlock()
		f.cancel()
		close(f.done)
	}()

	if err := d.admit.Acquire(f.ctx, req.Client); err != nil {
		if cluster.IsOverloaded(err) {
			f.err, f.retryAfter = err, d.retryAfter()
			d.count(func(s *DaemonStats) { s.JobsShed++ })
		} else {
			f.err = fmt.Errorf("job cancelled at admission: %w", err)
			d.count(func(s *DaemonStats) { s.JobsCancelled++ })
		}
		return
	}
	defer d.admit.Release()
	d.count(func(s *DaemonStats) { s.JobsAccepted++ })

	if err := d.tokens.Acquire(f.ctx); err != nil {
		f.err = fmt.Errorf("job cancelled awaiting token: %w", err)
		d.count(func(s *DaemonStats) { s.JobsCancelled++ })
		return
	}
	defer d.tokens.Release()

	jobCtx := f.ctx
	if d.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		jobCtx, cancel = context.WithTimeout(jobCtx, d.cfg.JobTimeout)
		defer cancel()
	}

	// Dispatch through the daemon-lifetime fleet (injected server-side: the
	// wire options — and the dedup key derived from them — never carry the
	// handle). The tenant tag is the same client identity the Admitter
	// fair-shares by, so the fleet's deficit weighting and admission agree
	// on who is starved.
	popts := req.POpts.WithFleet(d.fleet, req.Client)

	snap := core.SnapshotBackendStats(d.cfg.Backend)
	start := time.Now()
	res, pstats, err := core.ParallelCompileContext(jobCtx, req.File, req.Source, d.cfg.Backend, req.Opts, popts)
	if err != nil {
		if jobCtx.Err() != nil {
			f.err = fmt.Errorf("job cancelled: %w", err)
			d.count(func(s *DaemonStats) { s.JobsCancelled++ })
			return
		}
		if cluster.CodeOf(err) == "" {
			err = Errf(codeCompile, "%v", err)
		}
		f.err = err
		d.count(func(s *DaemonStats) { s.JobsFailed++ })
		return
	}
	pstats.ScopeToSnapshot(snap)
	f.res, f.stats = res, pstats
	d.observeService(time.Since(start))
	d.count(func(s *DaemonStats) { s.JobsCompleted++ })
}

// flightResponse renders a finished flight for one subscriber.
func (d *Daemon) flightResponse(f *flight, coalesced bool) *Response {
	if f.err != nil {
		return errResponse(f.err, f.retryAfter)
	}
	resp := &Response{
		ModuleName: f.res.ModuleName,
		Module:     f.res.Module,
		Driver:     f.res.Driver,
		Warnings:   f.res.Warnings,
		Stats:      f.stats,
		Coalesced:  coalesced,
	}
	for _, fr := range f.res.Funcs {
		resp.Funcs = append(resp.Funcs, FuncSummary{
			Name: fr.Name, Section: fr.Section, Lines: fr.Lines, CPUTime: fr.CPUTime,
		})
	}
	return resp
}

func (d *Daemon) isDraining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// count applies one mutation to the service counters under the lock.
func (d *Daemon) count(f func(*DaemonStats)) {
	d.mu.Lock()
	f(&d.stats)
	d.mu.Unlock()
}

// observeService folds one job's service time into the EWMA that backs
// RetryAfter suggestions.
func (d *Daemon) observeService(dt time.Duration) {
	d.mu.Lock()
	if d.ewmaService == 0 {
		d.ewmaService = dt
	} else {
		d.ewmaService = (3*d.ewmaService + dt) / 4
	}
	d.mu.Unlock()
}

// retryAfter suggests a backoff for a shed or drain-refused job: the
// smoothed service time scaled by the queue's relative fullness, clamped
// to [50ms, 5s]. A client honoring it arrives roughly when a slot frees.
func (d *Daemon) retryAfter() time.Duration {
	d.mu.Lock()
	base := d.ewmaService
	d.mu.Unlock()
	if base == 0 {
		base = 100 * time.Millisecond
	}
	_, queued := d.admit.Depth()
	ra := base * time.Duration(1+queued) / time.Duration(d.cfg.MaxActive)
	if ra < 50*time.Millisecond {
		ra = 50 * time.Millisecond
	}
	if ra > 5*time.Second {
		ra = 5 * time.Second
	}
	return ra
}

// snapshotStats renders the current service counters.
func (d *Daemon) snapshotStats() *DaemonStats {
	d.mu.Lock()
	s := d.stats
	d.mu.Unlock()
	active, queued := d.admit.Depth()
	s.ActiveJobs, s.QueuedJobs = int64(active), int64(queued)
	s.Tokens = d.tokens.Stats()
	return &s
}

// Shutdown drains the daemon: it stops accepting (listeners close, new
// jobs get warp-err:draining), waits up to grace for accepted jobs to
// finish, then cancels whatever remains and closes every connection. It
// returns an error if parallelism tokens leaked — the invariant the
// chaos soak holds the daemon to.
func (d *Daemon) Shutdown(grace time.Duration) error {
	d.mu.Lock()
	d.draining = true
	for l := range d.listeners {
		l.Close()
	}
	d.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		d.jobs.Wait()
		// Jobs are done, but their results may still be in flight to the
		// subscribers — hold the severing until those writes land (each is
		// bounded by the write deadline).
		d.mu.Lock()
		for d.replies > 0 {
			d.repliesDone.Wait()
		}
		d.mu.Unlock()
		close(finished)
	}()
	var timer <-chan time.Time
	if grace > 0 {
		t := time.NewTimer(grace)
		defer t.Stop()
		timer = t.C
	}
	select {
	case <-finished:
	case <-timer:
		d.cfg.Logf("warpd: drain grace expired, cancelling remaining jobs")
		d.stop()
		<-finished
	}
	// Jobs are done and answered; sever the connections (reclaiming any
	// tokens they borrowed) and wait for their goroutines.
	d.stop()
	d.mu.Lock()
	for c := range d.conns {
		c.Close()
	}
	d.mu.Unlock()
	d.connG.Wait()

	// Every job has unwound (each closed its own Build handle), so the
	// shared fleet is dry: retire the slot goroutines.
	d.fleet.Close()
	d.fleet.Wait()

	if n := d.tokens.Outstanding(); n != 0 {
		return fmt.Errorf("service: %d parallelism token(s) leaked at shutdown", n)
	}
	return nil
}
