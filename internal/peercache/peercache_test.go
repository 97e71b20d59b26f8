package peercache

import (
	"crypto/sha256"
	"testing"
	"time"

	"repro/internal/fcache"
	"repro/internal/leakcheck"
	"repro/internal/wire"
)

func TestBloom(t *testing.T) {
	b := NewBloom(100)
	var in [][sha256.Size]byte
	for i := 0; i < 100; i++ {
		in = append(in, sha256.Sum256([]byte{byte(i), byte(i >> 8), 1}))
	}
	for _, d := range in {
		b.Add(d)
	}
	for i, d := range in {
		if !b.Has(d) {
			t.Fatalf("false negative at %d", i)
		}
	}
	// False-positive rate on 10k absent digests should be far under 5%.
	fp := 0
	for i := 0; i < 10000; i++ {
		d := sha256.Sum256([]byte{byte(i), byte(i >> 8), 2})
		if b.Has(d) {
			fp++
		}
	}
	if fp > 500 {
		t.Fatalf("false-positive rate too high: %d/10000", fp)
	}
	// Wire round trip preserves membership.
	rb := FromWire(b.Wire())
	for i, d := range in {
		if !rb.Has(d) {
			t.Fatalf("wire round trip lost %d", i)
		}
	}
	// Malformed wire yields an always-false filter.
	if FromWire(BloomWire{Bits: make([]uint64, 3)}).Has(in[0]) {
		t.Fatal("malformed wire filter claims membership")
	}
	if (*Bloom)(nil).Has(in[0]) {
		t.Fatal("nil bloom claims membership")
	}
}

// seedCache returns a cache holding n object entries and the keys' hashes.
func seedCache(t *testing.T, n int) (*fcache.Cache, []fcache.FuncHash) {
	t.Helper()
	c := fcache.New(0)
	var fhs []fcache.FuncHash
	for i := 0; i < n; i++ {
		fh := fcache.FuncHash(sha256.Sum256([]byte{byte(i), byte(i >> 8)}))
		fhs = append(fhs, fh)
		_, err := c.Object(fh, "default", func() (*fcache.ObjectEntry, error) {
			return &fcache.ObjectEntry{
				Name:        "f" + string(rune('a'+i%26)),
				Section:     1,
				Lines:       i + 1,
				ObjectBytes: []byte{0xDE, 0xAD, byte(i)},
			}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return c, fhs
}

func startPeer(t *testing.T, c *fcache.Cache, plan *wire.Plan) (*Server, string) {
	t.Helper()
	srv, addr, err := Serve("127.0.0.1:0", NewService(c, "", plan))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func TestFetchRoundTrip(t *testing.T) {
	warm, fhs := seedCache(t, 5)
	_, addr := startPeer(t, warm, nil)

	p := New(ClientOptions{Timeout: time.Second})
	defer p.Close()
	if n := p.Connect(addr); n != 1 {
		t.Fatalf("Connect = %d, want 1", n)
	}

	cold := fcache.New(0)
	cold.AttachPeers(p)
	for i, fh := range fhs {
		built := false
		e, err := cold.Object(fh, "default", func() (*fcache.ObjectEntry, error) {
			built = true
			return &fcache.ObjectEntry{Name: "rebuilt"}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if built {
			t.Fatalf("entry %d recompiled despite warm peer", i)
		}
		if e.Lines != i+1 {
			t.Fatalf("entry %d: Lines = %d, want %d", i, e.Lines, i+1)
		}
	}
	cs := cold.Stats()
	if cs.PeerHits != 5 || cs.PeerErrors != 0 {
		t.Fatalf("stats = %+v, want 5 peer hits, 0 errors", cs)
	}
	ws := warm.Stats()
	if ws.PeerServed != 5 {
		t.Fatalf("warm PeerServed = %d, want 5", ws.PeerServed)
	}
}

func TestFetchFailover(t *testing.T) {
	// Two warm holders; the first fetch — whichever peer the client's
	// address-ordered holder selection tries first (ports are assigned by
	// the OS, so either may sort first) — hangs. The client must time out,
	// mark that holder dead, and get the entry from the other. Sharing one
	// plan between both servers scripts "first fetch hangs" by global
	// arrival order, independent of which address won the sort.
	warmA, fhs := seedCache(t, 1)
	warmB, _ := seedCache(t, 1)

	planHang := wire.Script(wire.Fault{Kind: wire.Hang}) // first fetch hangs
	_, addrA := startPeer(t, warmA, planHang)
	_, addrB := startPeer(t, warmB, planHang)

	p := New(ClientOptions{Timeout: 200 * time.Millisecond})
	defer p.Close()
	p.Connect(addrA, addrB)

	e, ok, errs := p.Fetch("obj:" + fhs[0].String() + ":default")
	if !ok || e == nil {
		t.Fatalf("Fetch failed entirely (ok=%v errs=%d)", ok, errs)
	}
	if errs != 1 {
		t.Fatalf("errs = %d, want 1 (the hung holder)", errs)
	}
	if len(p.Alive()) != 1 {
		t.Fatalf("alive = %v, want exactly one survivor", p.Alive())
	}
}

// TestPeerHangReleasedOnHangUp: a fetch parked on an open-ended Hang ends
// when its client times out and hangs up, while the server stays open —
// nothing but the server's accept loop may outlive the client.
func TestPeerHangReleasedOnHangUp(t *testing.T) {
	base := leakcheck.Take()
	warm, fhs := seedCache(t, 1)
	_, addr := startPeer(t, warm, wire.Script(wire.Fault{Kind: wire.Hang}))
	key := "obj:" + fhs[0].String() + ":default"

	p := New(ClientOptions{Timeout: 200 * time.Millisecond})
	if n := p.Connect(addr); n != 1 {
		t.Fatalf("Connect = %d, want 1", n)
	}
	if _, ok, errs := p.Fetch(key); ok || errs != 1 {
		t.Fatalf("hung fetch: ok=%v errs=%d, want a miss with one error", ok, errs)
	}
	p.Close()
	base.Check(t, "wire.(*Server).acceptLoop(")

	// The server is still open: a new client fetches the entry.
	p2 := New(ClientOptions{Timeout: time.Second})
	defer p2.Close()
	if n := p2.Connect(addr); n != 1 {
		t.Fatalf("reconnect = %d, want 1", n)
	}
	if _, ok, _ := p2.Fetch(key); !ok {
		t.Fatal("fetch after the hang failed")
	}
}

func TestCorruptReplyCountsAsError(t *testing.T) {
	warm, fhs := seedCache(t, 1)
	_, addr := startPeer(t, warm, wire.Script(wire.Fault{Kind: wire.Corrupt}))

	p := New(ClientOptions{Timeout: time.Second})
	defer p.Close()
	p.Connect(addr)

	cold := fcache.New(0)
	cold.AttachPeers(p)
	built := false
	if _, err := cold.Object(fhs[0], "default", func() (*fcache.ObjectEntry, error) {
		built = true
		return &fcache.ObjectEntry{Name: "rebuilt"}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !built {
		t.Fatal("corrupt reply was accepted instead of recompiling")
	}
	cs := cold.Stats()
	if cs.PeerErrors != 1 || cs.PeerHits != 0 {
		t.Fatalf("stats = %+v, want exactly one PeerError", cs)
	}
}

func TestGossipOneRound(t *testing.T) {
	// C knows only B; B already knows A (seeded). C must learn A from B's
	// summary reply and fetch entries only A holds.
	warmA, fhs := seedCache(t, 1)
	emptyB := fcache.New(0)

	_, addrA := startPeer(t, warmA, nil)
	svcB := NewService(emptyB, "", nil)
	svcB.AddPeers([]string{addrA})
	srvB, addrB, err := Serve("127.0.0.1:0", svcB)
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	p := New(ClientOptions{Timeout: time.Second})
	defer p.Close()
	if n := p.Connect(addrB); n != 2 {
		t.Fatalf("Connect = %d peers, want 2 (B plus gossiped A)", n)
	}
	if _, ok, _ := p.Fetch("obj:" + fhs[0].String() + ":default"); !ok {
		t.Fatal("fetch from gossiped peer failed")
	}
}

func TestStaleSummaryRefresh(t *testing.T) {
	// A summary taken when the peer was empty must not hide entries the
	// peer acquired later: the gen stamp on a fetch reply flags staleness
	// and the next lookup re-exchanges summaries.
	warm := fcache.New(0)
	fhEarly := fcache.FuncHash(sha256.Sum256([]byte("early")))
	if _, err := warm.Object(fhEarly, "default", func() (*fcache.ObjectEntry, error) {
		return &fcache.ObjectEntry{Name: "early"}, nil
	}); err != nil {
		t.Fatal(err)
	}
	_, addr := startPeer(t, warm, nil)

	p := New(ClientOptions{Timeout: time.Second})
	defer p.Close()
	p.Connect(addr)

	// Peer gains an entry after the summary exchange.
	fhLate := fcache.FuncHash(sha256.Sum256([]byte("late")))
	if _, err := warm.Object(fhLate, "default", func() (*fcache.ObjectEntry, error) {
		return &fcache.ObjectEntry{Name: "late"}, nil
	}); err != nil {
		t.Fatal(err)
	}

	// First fetch (of the early key) observes the gen change and marks the
	// summary stale; the late key's lookup then refreshes and succeeds.
	if _, ok, _ := p.Fetch("obj:" + fhEarly.String() + ":default"); !ok {
		t.Fatal("early key fetch failed")
	}
	if _, ok, _ := p.Fetch("obj:" + fhLate.String() + ":default"); !ok {
		t.Fatal("late key fetch failed after refresh")
	}
}

func TestEmptyAtConnectRefreshByAge(t *testing.T) {
	// A peer that was empty when its summary was exchanged is never fetched
	// from, so the gen piggyback can't flag the summary stale. The age-based
	// refresh must rediscover it once it warms.
	warm := fcache.New(0)
	_, addr := startPeer(t, warm, nil)

	p := New(ClientOptions{Timeout: time.Second, Refresh: 10 * time.Millisecond})
	defer p.Close()
	p.Connect(addr) // summary taken while the peer holds nothing

	fh := fcache.FuncHash(sha256.Sum256([]byte("late-warm")))
	if _, err := warm.Object(fh, "default", func() (*fcache.ObjectEntry, error) {
		return &fcache.ObjectEntry{Name: "late"}, nil
	}); err != nil {
		t.Fatal(err)
	}

	time.Sleep(20 * time.Millisecond) // let the summary age past Refresh
	if _, ok, _ := p.Fetch("obj:" + fh.String() + ":default"); !ok {
		t.Fatal("fetch failed: empty-at-connect peer never re-summarized")
	}
}

func TestAllPeersDeadFallsThrough(t *testing.T) {
	warm, fhs := seedCache(t, 1)
	srv, addr := startPeer(t, warm, nil)

	p := New(ClientOptions{Timeout: 200 * time.Millisecond})
	defer p.Close()
	p.Connect(addr)
	srv.Close() // peer dies after the summary exchange

	cold := fcache.New(0)
	cold.AttachPeers(p)
	built := false
	e, err := cold.Object(fhs[0], "default", func() (*fcache.ObjectEntry, error) {
		built = true
		return &fcache.ObjectEntry{Name: "rebuilt"}, nil
	})
	if err != nil || e.Name != "rebuilt" {
		t.Fatalf("e=%v err=%v", e, err)
	}
	if !built {
		t.Fatal("expected local compile when every peer is dead")
	}
}

func TestPrefetchObjects(t *testing.T) {
	warm, fhs := seedCache(t, 8)
	_, addr := startPeer(t, warm, nil)

	p := New(ClientOptions{Timeout: time.Second})
	defer p.Close()
	p.Connect(addr)

	cold := fcache.New(0)
	cold.AttachPeers(p)
	if n := cold.PrefetchObjects(fhs, "default"); n != 8 {
		t.Fatalf("PrefetchObjects = %d, want 8", n)
	}
	// Everything is now local: peeks hit without any further peer traffic.
	for i, fh := range fhs {
		if _, ok := cold.PeekObject(fh, "default"); !ok {
			t.Fatalf("prefetched entry %d not resident", i)
		}
	}
	cs := cold.Stats()
	if cs.PeerPrefetched != 8 {
		t.Fatalf("PeerPrefetched = %d, want 8", cs.PeerPrefetched)
	}
	// Second prefetch is a no-op (all local).
	if n := cold.PrefetchObjects(fhs, "default"); n != 0 {
		t.Fatalf("second PrefetchObjects = %d, want 0", n)
	}
}

func TestReplicasView(t *testing.T) {
	warmA, fhs := seedCache(t, 1)
	warmB, _ := seedCache(t, 1) // same seeding → same keys
	_, addrA := startPeer(t, warmA, nil)
	_, addrB := startPeer(t, warmB, nil)

	p := New(ClientOptions{Timeout: time.Second})
	defer p.Close()
	p.Connect(addrA, addrB)

	key := "obj:" + fhs[0].String() + ":default"
	if n := p.Replicas(fcache.KeyDigest(key)); n != 2 {
		t.Fatalf("Replicas = %d, want 2", n)
	}
	if n := p.Replicas(fcache.KeyDigest("obj:absent:default")); n != 0 {
		t.Fatalf("Replicas(absent) = %d, want 0", n)
	}
}
