// Package peercache is the distributed artifact store: a content-addressed
// peer-to-peer protocol that turns the fleet's caches into one fill tier
// between each process's disk and recompilation. The paper's workers share
// only the file system; PR 4's disk tier made one directory shareable, and
// this package networks it — a cold worker restart becomes "sync 32-byte
// keys and fetch finished objects" instead of "recompile the world".
//
// The protocol is two RPCs on the service name "Peer":
//
//	Summary(From) -> (Bloom, Gen, Peers)   "who are you and what do you hold?"
//	Fetch(Key, From) -> (Found, Record, Gen)  "give me the entry for this key"
//
// Summary replies carry a Bloom filter over the peer's object-key digests
// (fcache.KeyDigest — the same SHA-256 the disk tier derives filenames
// from, so a warm directory is advertisable without reading a record), a
// generation stamp, and the addresses of every peer the server knows —
// one round of gossip, so fleets mesh without central configuration.
// A fetch reply carries the entry as the same checksummed record the disk
// tier persists (fcache.EncodeEntry): a reply is verified by exactly the
// code that verifies a disk read (fcache.DecodeEntry), and a corrupt or
// misaddressed reply degrades to a miss on the next holder, never into a
// poisoned compilation.
//
// Every fetch reply piggybacks the server's current generation; a client
// holding a summary taken at a different generation marks it stale and
// re-exchanges summaries before its next holder selection.
//
// Peer trouble is transport trouble: timeouts, drops, and corrupt replies
// count in fcache.Stats.PeerErrors and mark the peer dead for this
// client, but never touch the dispatch layer's compile-health quarantine —
// a machine that serves bad bytes may still compile perfectly, and vice
// versa.
package peercache

import (
	"errors"
	"net"
	"net/rpc"
	"sort"
	"sync"
	"time"

	"repro/internal/fcache"
)

// ServiceName is the RPC service name peers register under — alongside
// "Worker" on a worker's listener, or alone on a daemon's peer listener.
const ServiceName = "Peer"

// DefaultTimeout bounds each peer RPC (dial, summary, fetch). Peers are an
// optimization: better to recompile than to wait long for a sick sibling.
const DefaultTimeout = 2 * time.Second

// SummaryArgs identifies the caller so the server's gossip view learns it.
type SummaryArgs struct {
	From string // caller's own peer address ("" = not listening)
}

// SummaryReply is the server's advertisement.
type SummaryReply struct {
	Bloom BloomWire // filter over the server's object-key digests
	Gen   int64     // object generation the filter was built at
	Peers []string  // other peer addresses the server knows (gossip)
}

// FetchArgs asks for the entry stored under one full cache key.
type FetchArgs struct {
	Key  string
	From string
}

// FetchReply carries the checksummed record for the key, if held.
type FetchReply struct {
	Found  bool
	Record []byte // fcache.EncodeEntry(Key, entry)
	Gen    int64  // server's generation now (staleness stamp)
}

// Service answers the peer protocol over one local cache. Register it on
// an rpc.Server under ServiceName, or pass it to Serve for a standalone
// listener. Fetches are answered from local tiers only (memory, then
// disk) — never from the service's own peers and never by compiling — so
// two caches fetching from each other cannot recurse.
type Service struct {
	cache *fcache.Cache
	self  string // address peers can fetch from me at ("" = none)
	plan  *Plan  // nil = no chaos

	mu    sync.Mutex
	known map[string]bool // gossip view: peer addresses heard of
	done  chan struct{}
	close sync.Once
}

// NewService returns a peer server over cache. self is the address remote
// peers can reach this process at (gossiped to callers; "" to not
// advertise). plan injects scripted faults (nil for none).
func NewService(cache *fcache.Cache, self string, plan *Plan) *Service {
	return &Service{
		cache: cache,
		self:  self,
		plan:  plan,
		known: make(map[string]bool),
		done:  make(chan struct{}),
	}
}

// Close releases calls blocked on open-ended hang faults. Idempotent.
func (s *Service) Close() { s.close.Do(func() { close(s.done) }) }

// noteAddr records a peer address learned from an incoming call.
func (s *Service) noteAddr(addr string) {
	if addr == "" || addr == s.self {
		return
	}
	s.mu.Lock()
	s.known[addr] = true
	s.mu.Unlock()
}

// AddPeers seeds the gossip view (the -peers flag's addresses).
func (s *Service) AddPeers(addrs []string) {
	for _, a := range addrs {
		s.noteAddr(a)
	}
}

// KnownPeers lists the gossip view, sorted for determinism.
func (s *Service) KnownPeers() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.known))
	for a := range s.known {
		out = append(out, a)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// Summary answers "who are you and what do you hold": a Bloom filter over
// this cache's object-key digests, the generation it was built at, and the
// gossip view.
func (s *Service) Summary(args SummaryArgs, reply *SummaryReply) error {
	s.noteAddr(args.From)
	digests := s.cache.ObjectDigests()
	b := NewBloom(len(digests))
	for _, d := range digests {
		b.Add(d)
	}
	reply.Bloom = b.Wire()
	reply.Gen = s.cache.ObjectGen()
	reply.Peers = s.KnownPeers()
	return nil
}

// Fetch serves the entry for one key from local tiers, framed and
// checksummed. Registered directly (shared RPC server) it degrades a
// scripted FaultDrop to FaultError; the standalone Server intercepts Drop
// before calling in.
func (s *Service) Fetch(args FetchArgs, reply *FetchReply) error {
	return s.fetchFault(s.plan.take(), args, reply)
}

func (s *Service) fetchFault(f Fault, args FetchArgs, reply *FetchReply) error {
	s.noteAddr(args.From)
	switch f.Kind {
	case FaultHang:
		d := f.D
		if d <= 0 {
			d = time.Hour
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-s.done:
		}
		return errors.New("peercache: chaos hang released")
	case FaultError, FaultDrop:
		return errors.New("peercache: chaos injected error")
	case FaultMiss:
		reply.Found = false
		reply.Gen = s.cache.ObjectGen()
		return nil
	}
	e, ok := s.cache.LocalObject(args.Key)
	reply.Gen = s.cache.ObjectGen()
	if !ok {
		reply.Found = false
		return nil
	}
	rec := fcache.EncodeEntry(args.Key, e)
	if f.Kind == FaultCorrupt {
		rec[len(rec)/2] ^= 0xFF
	}
	reply.Found = true
	reply.Record = rec
	return nil
}

// Server is a standalone peer listener (the compile daemon's -peer-listen;
// workers instead register their Service on the worker RPC listener). Each
// connection gets its own rpc.Server so a scripted FaultDrop can sever its
// transport.
type Server struct {
	ln   net.Listener
	addr string
	svc  *Service

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Serve starts svc on addr (e.g. "127.0.0.1:0"). If svc was built without
// a self address, the bound address becomes it.
func Serve(addr string, svc *Service) (*Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	if svc.self == "" {
		svc.self = ln.Addr().String()
	}
	s := &Server{ln: ln, addr: ln.Addr().String(), svc: svc, conns: make(map[net.Conn]struct{})}
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

		srv := rpc.NewServer()
		srv.RegisterName(ServiceName, &connPeer{svc: s.svc, conn: conn})
		go func() {
			srv.ServeConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops the server, severs every connection, and releases any calls
// blocked on hang faults.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
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
	s.svc.Close()
	return err
}

// connPeer is the per-connection RPC surface of a standalone Server: the
// shared Service plus the one fault only a connection owner can inject.
type connPeer struct {
	svc  *Service
	conn net.Conn
}

func (p *connPeer) Summary(args SummaryArgs, reply *SummaryReply) error {
	return p.svc.Summary(args, reply)
}

func (p *connPeer) Fetch(args FetchArgs, reply *FetchReply) error {
	f := p.svc.plan.take()
	if f.Kind == FaultDrop {
		p.conn.Close()
		return errors.New("peercache: chaos connection dropped")
	}
	return p.svc.fetchFault(f, args, reply)
}
