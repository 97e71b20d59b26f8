package peercache

import (
	"context"
	"net"
	"net/rpc"
	"sort"
	"sync"
	"time"

	"repro/internal/fcache"
	"repro/internal/wire"
)

// Peers is the client half of the protocol: one process's view of the
// fleet, attached to its cache with fcache.AttachPeers. It tracks a Bloom
// summary per peer, selects fetch targets by digest membership, fails over
// across holders under a per-RPC deadline, and counts every transport
// failure without ever touching compile health.
//
// Life cycle: New → Connect (dials seeds, exchanges summaries, follows one
// round of gossiped addresses) → serve as the cache's PeerView → Close.
// A peer that times out, drops, or serves a corrupt reply is marked dead
// for this client; the fleet-level answer is simply fewer holders.
type Peers struct {
	self       string // our own fetchable address ("" = not listening)
	timeout    time.Duration
	refreshAge time.Duration // summary max age (negative = never by age)

	mu    sync.Mutex
	peers map[string]*peerState
}

type peerState struct {
	addr      string
	client    *rpc.Client
	bloom     *Bloom
	gen       int64     // generation the summary was taken at
	summaryAt time.Time // when the summary was last exchanged
	stale     bool      // a fetch reply carried a different gen
	dead      bool      // transport failed; no longer consulted
}

// DefaultRefresh is how old a peer's summary may grow before the client
// re-exchanges it even without gen-mismatch evidence. The gen piggybacked
// on fetch replies catches staleness on peers we fetch from; this interval
// catches the peer we never fetch from because its summary was taken while
// it was still empty — without it, a fleet whose boot order put an empty
// peer first would never discover that peer warmed up.
const DefaultRefresh = 10 * time.Second

// ClientOptions configures New.
type ClientOptions struct {
	// Self is the address remote peers can fetch from this process at;
	// sent on every call so servers' gossip views learn it ("" = none).
	Self string
	// Timeout bounds each peer RPC (0 = DefaultTimeout).
	Timeout time.Duration
	// Refresh is the age at which a peer's summary is re-exchanged without
	// gen-mismatch evidence (0 = DefaultRefresh; negative disables).
	Refresh time.Duration
}

// New returns an empty fleet view. Call Connect to populate it.
func New(opts ClientOptions) *Peers {
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.Refresh == 0 {
		opts.Refresh = DefaultRefresh
	}
	return &Peers{self: opts.Self, timeout: opts.Timeout, refreshAge: opts.Refresh, peers: make(map[string]*peerState)}
}

// Connect dials the given peer addresses, exchanges summaries, and then
// dials any new addresses gossiped back (one round, so meshes converge
// deterministically). Unreachable seeds are skipped — the fleet view is
// best-effort by design. Returns how many peers are connected and alive.
func (p *Peers) Connect(addrs ...string) int {
	gossiped := make(map[string]bool)
	for _, a := range addrs {
		if more := p.connectOne(a); more != nil {
			for _, g := range more {
				gossiped[g] = true
			}
		}
	}
	for a := range gossiped {
		p.connectOne(a)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, ps := range p.peers {
		if !ps.dead {
			n++
		}
	}
	return n
}

// connectOne dials addr (unless self or already connected) and performs
// the summary exchange. It returns the addresses gossiped back, nil on
// failure or no-op.
func (p *Peers) connectOne(addr string) []string {
	if addr == "" || addr == p.self {
		return nil
	}
	p.mu.Lock()
	if ps, ok := p.peers[addr]; ok && !ps.dead {
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()

	conn, err := net.DialTimeout("tcp", addr, p.timeout)
	if err != nil {
		return nil
	}
	ps := &peerState{addr: addr, client: rpc.NewClient(conn)}
	gossip, err := p.summarize(ps)
	if err != nil {
		ps.client.Close()
		return nil
	}
	p.mu.Lock()
	p.peers[addr] = ps
	p.mu.Unlock()
	return gossip
}

// summarize runs the summary exchange with ps under the per-call deadline
// and installs the peer's filter and generation. It returns the addresses
// gossiped back.
func (p *Peers) summarize(ps *peerState) ([]string, error) {
	var reply SummaryReply
	if err := wire.Call(context.Background(), ps.client, ServiceName+".Summary", SummaryArgs{From: p.self}, &reply, p.timeout); err != nil {
		return nil, err
	}
	p.mu.Lock()
	ps.bloom = FromWire(reply.Bloom)
	ps.gen = reply.Gen
	ps.summaryAt = time.Now()
	ps.stale = false
	p.mu.Unlock()
	return reply.Peers, nil
}

// markDead retires a peer after a transport failure.
func (p *Peers) markDead(ps *peerState) {
	p.mu.Lock()
	ps.dead = true
	p.mu.Unlock()
	ps.client.Close()
}

// refresh re-runs the summary exchange for a stale peer.
func (p *Peers) refresh(ps *peerState) {
	if _, err := p.summarize(ps); err != nil {
		p.markDead(ps)
	}
}

// holders returns the live peers whose summaries claim the digest, in
// deterministic (address) order, refreshing summaries that are stale (gen
// evidence) or simply old (age) first.
func (p *Peers) holders(d [32]byte) []*peerState {
	now := time.Now()
	p.mu.Lock()
	var toRefresh []*peerState
	for _, ps := range p.peers {
		if ps.dead {
			continue
		}
		if ps.stale || (p.refreshAge > 0 && now.Sub(ps.summaryAt) > p.refreshAge) {
			toRefresh = append(toRefresh, ps)
		}
	}
	p.mu.Unlock()
	for _, ps := range toRefresh {
		p.refresh(ps)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*peerState
	for _, ps := range p.peers {
		if !ps.dead && ps.bloom.Has(d) {
			out = append(out, ps)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

// Fetch implements fcache.PeerView: it asks each claimed holder in turn
// for the entry under key, verifying the reply's checksummed record and its
// key binding (fcache.DecodeEntry) before trusting a byte. errs counts
// holders that failed at the transport level (timeout, drop, RPC error,
// corrupt reply); a clean "not found" is not an error, just a thinner fleet.
func (p *Peers) Fetch(key string) (e *fcache.ObjectEntry, ok bool, errs int) {
	d := fcache.KeyDigest(key)
	for _, ps := range p.holders(d) {
		var reply FetchReply
		if err := wire.Call(context.Background(), ps.client, ServiceName+".Fetch", FetchArgs{Key: key, From: p.self}, &reply, p.timeout); err != nil {
			p.markDead(ps)
			errs++
			continue
		}
		p.mu.Lock()
		if reply.Gen != ps.gen {
			ps.stale = true // summary predates the peer's latest arrivals
			ps.gen = reply.Gen
		}
		p.mu.Unlock()
		if !reply.Found {
			continue
		}
		entry, err := fcache.DecodeEntry(key, reply.Record)
		if err != nil {
			// Corrupt or misaddressed reply: the bytes are untrustworthy,
			// and so is the peer — but only as a transport. Its compile
			// health (cluster quarantine) is none of our business.
			p.markDead(ps)
			errs++
			continue
		}
		return entry, true, errs
	}
	return nil, false, errs
}

// Replicas implements fcache.PeerView: how many live peers' summaries
// claim the digest. Bloom false positives can over-count; that only makes
// eviction slightly more willing, never less safe than the hard cap.
// Called from inside the disk tier's eviction pass, so it must (and does)
// answer from client state alone.
func (p *Peers) Replicas(d [32]byte) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, ps := range p.peers {
		if !ps.dead && ps.bloom.Has(d) {
			n++
		}
	}
	return n
}

// Alive returns the addresses of live peers, sorted.
func (p *Peers) Alive() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for _, ps := range p.peers {
		if !ps.dead {
			out = append(out, ps.addr)
		}
	}
	sort.Strings(out)
	return out
}

// Close severs every peer connection.
func (p *Peers) Close() {
	p.mu.Lock()
	peers := make([]*peerState, 0, len(p.peers))
	for _, ps := range p.peers {
		peers = append(peers, ps)
	}
	p.peers = make(map[string]*peerState)
	p.mu.Unlock()
	for _, ps := range peers {
		ps.client.Close()
	}
}
