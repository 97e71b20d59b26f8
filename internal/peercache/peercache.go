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
//
// Both halves run on internal/wire: Serve gives every connection its own
// copy of the Service (On), each client call runs under wire.Call's
// deadline, and a wire.Plan injects faults into fetches — the generic kinds
// plus Corrupt and Miss, which only a fetch can carry out. The peer tier
// sits over an always-correct fallback (the local compile), so every fault
// must degrade to "the client treats this peer as useless and moves on".
package peercache

import (
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/fcache"
	"repro/internal/wire"
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

// Service answers the peer protocol over one local cache. Serve it
// standalone with Serve, or register On(c) for each connection of a
// wire.Server under ServiceName. Fetches are answered from local tiers only
// (memory, then disk) — never from the service's own peers and never by
// compiling — so two caches fetching from each other cannot recurse.
type Service struct {
	cache *fcache.Cache
	self  string     // address peers can fetch from me at ("" = none)
	plan  *wire.Plan // nil = no chaos
	view  *view      // gossip view, shared by every connection's copy
	conn  *wire.Conn // the connection this copy serves (set by On)
}

// view is the set of peer addresses a service has heard of.
type view struct {
	mu    sync.Mutex
	known map[string]bool
}

// NewService returns a peer server over cache. self is the address remote
// peers can reach this process at (gossiped to callers; "" to not
// advertise). plan injects faults into fetches (nil for none).
func NewService(cache *fcache.Cache, self string, plan *wire.Plan) *Service {
	return &Service{cache: cache, self: self, plan: plan, view: &view{known: make(map[string]bool)}}
}

// On returns the service bound to one connection of a wire.Server, so a
// fetch's faults act on the connection it arrived on: a Drop cuts it, and a
// Hang ends when its client hangs up.
func (s *Service) On(c *wire.Conn) *Service {
	bound := *s
	bound.conn = c
	return &bound
}

// noteAddr records a peer address learned from an incoming call.
func (s *Service) noteAddr(addr string) {
	if addr == "" || addr == s.self {
		return
	}
	s.view.mu.Lock()
	s.view.known[addr] = true
	s.view.mu.Unlock()
}

// AddPeers seeds the gossip view (the -peers flag's addresses).
func (s *Service) AddPeers(addrs []string) {
	for _, a := range addrs {
		s.noteAddr(a)
	}
}

// KnownPeers lists the gossip view, sorted for determinism.
func (s *Service) KnownPeers() []string {
	s.view.mu.Lock()
	out := make([]string, 0, len(s.view.known))
	for a := range s.view.known {
		out = append(out, a)
	}
	s.view.mu.Unlock()
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
// checksummed, after the plan's fault for the call.
func (s *Service) Fetch(args FetchArgs, reply *FetchReply) error {
	s.noteAddr(args.From)
	f, err := s.plan.Inject(s.conn)
	if err != nil {
		return err
	}
	var e *fcache.ObjectEntry
	ok := false
	if f.Kind != wire.Miss {
		e, ok = s.cache.LocalObject(args.Key)
	}
	reply.Gen = s.cache.ObjectGen()
	if !ok {
		return nil
	}
	rec := fcache.EncodeEntry(args.Key, e)
	if f.Kind == wire.Corrupt {
		rec[len(rec)/2] ^= 0xFF
	}
	reply.Found = true
	reply.Record = rec
	return nil
}

// Server is a standalone peer listener (the compile daemon's -peer-listen;
// workers instead register their Service on the worker's wire.Server).
type Server = wire.Server

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
	srv := wire.Serve(ln, func(c *wire.Conn) map[string]any {
		return map[string]any{ServiceName: svc.On(c)}
	})
	return srv, srv.Addr(), nil
}
