// Package chaos is a deterministic fault-injection harness for the cluster
// dispatch layer. It serves the real cluster.Worker RPC surface but routes
// every CompileBatch — the one compile RPC — through a fault plan that can
// delay the reply, hang past the caller's deadline, answer with an injected
// error, or drop the underlying connection mid-call — the failure modes of
// the paper's shared workstation fleet (loaded, rebooted, or unreachable
// machines), scripted so tests can drive each recovery path on purpose.
//
// Plans are either scripted (an explicit fault sequence, then pass-through)
// or seeded-random (reproducible chaos for soak tests). Faults apply per
// call in global arrival order across all connections; a unit of several
// functions draws one fault for the whole unit.
package chaos

import (
	"errors"
	"math/rand"
	"net"
	"net/rpc"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fcache"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// Pass serves the request normally.
	Pass Kind = iota
	// Delay sleeps Fault.D before serving normally — a loaded workstation.
	Delay
	// Hang blocks the call for Fault.D (default: until the server or the
	// call's connection closes) and then fails it — a wedged workstation;
	// drives the client's deadline path.
	Hang
	// ErrorReply answers Fault.Err without compiling — a sick worker. Use a
	// "warp-err:<code>: ..." message to exercise coded-error handling.
	ErrorReply
	// Drop closes the connection under the call — a crash or network
	// partition; the client sees a transport error.
	Drop
)

// Fault is one scripted fault.
type Fault struct {
	Kind Kind
	D    time.Duration // Delay/Hang duration (Hang: 0 means until server or connection close)
	Err  string        // ErrorReply message
}

// Random configures the seeded-random tail of a plan: each compile call draws
// independently; at most one fault kind fires per call (checked in the
// order drop, error, delay).
type Random struct {
	DropProb  float64
	ErrProb   float64
	Err       string
	DelayProb float64
	Delay     time.Duration
}

// Plan decides the fault for each compile call. Safe for concurrent use.
type Plan struct {
	mu     sync.Mutex
	script []Fault
	next   int
	rng    *rand.Rand
	random Random
	calls  int
}

// Script returns a plan that applies the given faults to the first len
// compile calls in order, then passes everything through.
func Script(faults ...Fault) *Plan {
	return &Plan{script: faults}
}

// Seeded returns a plan drawing faults from cfg with a deterministic seed.
func Seeded(seed int64, cfg Random) *Plan {
	return &Plan{rng: rand.New(rand.NewSource(seed)), random: cfg}
}

// Calls reports how many compile calls the plan has decided.
func (p *Plan) Calls() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

// take returns the fault for the next compile call.
func (p *Plan) take() Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	if p.next < len(p.script) {
		f := p.script[p.next]
		p.next++
		return f
	}
	if p.rng != nil {
		switch draw := p.rng.Float64(); {
		case draw < p.random.DropProb:
			return Fault{Kind: Drop}
		case draw < p.random.DropProb+p.random.ErrProb:
			return Fault{Kind: ErrorReply, Err: p.random.Err}
		case draw < p.random.DropProb+p.random.ErrProb+p.random.DelayProb:
			return Fault{Kind: Delay, D: p.random.Delay}
		}
	}
	return Fault{Kind: Pass}
}

// Server is a chaos-wrapped worker server.
type Server struct {
	ln     net.Listener
	addr   string
	worker *cluster.Worker
	plan   *Plan

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	done   chan struct{}
	closed bool
}

// Serve starts a worker on addr (e.g. "127.0.0.1:0") whose compile calls
// pass through plan. The worker keeps a real artifact cache (cacheBytes as
// in cluster.NewWorker) shared across connections, so recovery tests see
// genuine cache-protocol traffic too.
func Serve(addr string, cacheBytes int64, plan *Plan) (*Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	s := &Server{
		ln:     ln,
		addr:   ln.Addr().String(),
		worker: cluster.NewWorker(cacheBytes),
		plan:   plan,
		conns:  make(map[net.Conn]struct{}),
		done:   make(chan struct{}),
	}
	go s.acceptLoop()
	return s, s.addr, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.addr }

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()

		// One rpc.Server per connection so the injected service can sever
		// its own transport (the Drop fault) and notice its client leaving.
		wc := &watchedConn{Conn: conn, gone: make(chan struct{})}
		srv := rpc.NewServer()
		srv.RegisterName("Worker", &faultyWorker{s: s, conn: wc})
		go func() {
			srv.ServeConn(wc)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops the server and severs every connection, releasing any calls
// hanging on open-ended Hang faults.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.conns = make(map[net.Conn]struct{})
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	return err
}

// watchedConn closes gone on the first failed Read. net/rpc keeps a read
// outstanding on the connection while handlers run, so a client that hangs
// up (or a Drop fault) is observed at once — a handler parked in a Hang
// releases instead of pinning itself and rpc.ServeConn until the server
// closes.
type watchedConn struct {
	net.Conn
	gone chan struct{}
	once sync.Once
}

func (c *watchedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		c.once.Do(func() { close(c.gone) })
	}
	return n, err
}

// faultyWorker is the per-connection RPC service: the shared inner worker
// behind the plan's faults.
type faultyWorker struct {
	s    *Server
	conn *watchedConn
}

// inject applies the plan's next fault. It returns a non-nil error when the
// fault decides the call; a nil error means pass the call through (possibly
// after a delay) to the real worker.
func (f *faultyWorker) inject() error {
	switch ft := f.s.plan.take(); ft.Kind {
	case Delay:
		f.sleep(ft.D)
	case Hang:
		d := ft.D
		if d <= 0 {
			d = time.Hour
		}
		f.sleep(d)
		return errors.New("chaos: hang released")
	case ErrorReply:
		msg := ft.Err
		if msg == "" {
			msg = "chaos: injected error"
		}
		return errors.New(msg)
	case Drop:
		f.conn.Close()
		return errors.New("chaos: connection dropped")
	}
	return nil
}

// CompileBatch draws one fault per call — a faulted unit fails (or hangs,
// or drops) whole, driving the client's split or retry path.
func (f *faultyWorker) CompileBatch(req core.BatchRequest, reply *cluster.BatchReply) error {
	if err := f.inject(); err != nil {
		return err
	}
	return f.s.worker.CompileBatch(req, reply)
}

// sleep waits for d, or until the server or this call's connection closes,
// whichever comes first.
func (f *faultyWorker) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-f.s.done:
	case <-f.conn.gone:
	}
}

func (f *faultyWorker) StoreSource(blob cluster.SourceBlob, ok *bool) error {
	return f.s.worker.StoreSource(blob, ok)
}

func (f *faultyWorker) CacheStats(in struct{}, out *fcache.Stats) error {
	return f.s.worker.CacheStats(in, out)
}

func (f *faultyWorker) Ping(in struct{}, ok *bool) error {
	return f.s.worker.Ping(in, ok)
}
