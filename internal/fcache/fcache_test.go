package fcache

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ir"
)

func feEntry() (*FrontendEntry, int64) { return &FrontendEntry{}, 100 }

// fh derives a distinct FuncHash from a label.
func fh(s string) FuncHash { return FuncHash(sha256.Sum256([]byte(s))) }

func TestHashSource(t *testing.T) {
	a := HashSource([]byte("module m"))
	b := HashSource([]byte("module m"))
	c := HashSource([]byte("module n"))
	if a != b {
		t.Error("identical content must hash identically")
	}
	if a == c {
		t.Error("distinct content must hash distinctly")
	}
	if a.IsZero() || !(SourceHash{}).IsZero() {
		t.Error("IsZero wrong")
	}
	if len(a.String()) != 64 {
		t.Errorf("hex hash length = %d, want 64", len(a.String()))
	}
}

// TestHitMissAccounting drives each tier through a scripted sequence and
// checks the counters — the cache's observability is part of its contract.
func TestHitMissAccounting(t *testing.T) {
	h1, h2 := HashSource([]byte("one")), HashSource([]byte("two"))
	tests := []struct {
		name string
		run  func(c *Cache)
		want Stats
	}{
		{
			name: "frontend hit after miss",
			run: func(c *Cache) {
				c.Frontend(h1, feEntry)
				c.Frontend(h1, feEntry)
				c.Frontend(h2, feEntry)
			},
			want: Stats{FrontendHits: 1, FrontendMisses: 2},
		},
		{
			name: "func ir keyed by function hash",
			run: func(c *Cache) {
				build := func() (*ir.Func, error) { return &ir.Func{}, nil }
				c.FuncIR(fh("f"), build)
				c.FuncIR(fh("f"), build)
				c.FuncIR(fh("g"), build)    // other function: miss
				c.FuncIR(FuncHash{}, build) // zero hash: uncached, uncounted
			},
			want: Stats{IRHits: 1, IRMisses: 2},
		},
		{
			name: "object keyed by function hash and variant",
			run: func(c *Cache) {
				build := func() (*ObjectEntry, error) { return &ObjectEntry{Name: "f"}, nil }
				c.Object(fh("f"), "default", build)
				c.Object(fh("f"), "default", build)
				c.Object(fh("g"), "default", build) // other function: miss
				c.Object(fh("f"), "no-opt", build)  // other options: miss
			},
			want: Stats{ObjectHits: 1, ObjectMisses: 3},
		},
		{
			name: "peek counts hits but not misses",
			run: func(c *Cache) {
				if _, ok := c.PeekObject(fh("f"), "default"); ok {
					panic("peek hit on empty cache")
				}
				c.Object(fh("f"), "default", func() (*ObjectEntry, error) {
					return &ObjectEntry{Name: "f"}, nil
				})
				if _, ok := c.PeekObject(fh("f"), "default"); !ok {
					panic("peek missed a resident entry")
				}
			},
			want: Stats{ObjectHits: 1, ObjectMisses: 1},
		},
		{
			name: "source store",
			run: func(c *Cache) {
				if _, ok := c.Source(h1); ok {
					panic("unexpected resident source")
				}
				c.PutSource(h1, []byte("one"))
				if _, ok := c.Source(h1); !ok {
					panic("stored source not found")
				}
			},
			want: Stats{SourceHits: 1, SourceMisses: 1},
		},
		{
			name: "zero function hash builds without storing",
			run: func(c *Cache) {
				built := 0
				build := func() (*ObjectEntry, error) { built++; return &ObjectEntry{Name: "f"}, nil }
				c.Object(FuncHash{}, "default", build)
				c.Object(FuncHash{}, "default", build)
				if _, ok := c.PeekObject(FuncHash{}, "default"); ok || built != 2 || c.Len() != 0 {
					panic("a zero hash must build on every call and store nothing")
				}
			},
			want: Stats{},
		},
		{
			name: "ir build errors are returned, not cached",
			run: func(c *Cache) {
				build := func() (*ir.Func, error) { return nil, errors.New("boom") }
				if _, err := c.FuncIR(fh("f"), build); err == nil {
					panic("expected error")
				}
				if _, err := c.FuncIR(fh("f"), build); err == nil {
					panic("expected error on rebuild")
				}
			},
			want: Stats{IRMisses: 2},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := New(1 << 20)
			tt.run(c)
			got := c.Stats()
			got.BytesUsed, got.BytesMax = 0, 0 // sized separately below
			if got != tt.want {
				t.Errorf("stats = %+v, want %+v", got, tt.want)
			}
		})
	}
}

// TestLRUEviction fills a tiny cache past its byte budget and checks that
// the least recently used entries leave first.
func TestLRUEviction(t *testing.T) {
	hashes := make([]SourceHash, 4)
	blobs := make([][]byte, 4)
	for i := range hashes {
		blobs[i] = []byte(fmt.Sprintf("source-%d", i))
		hashes[i] = HashSource(blobs[i])
	}
	// Each source entry costs len(src)+64 ≈ 72; budget fits two.
	c := New(150)

	c.PutSource(hashes[0], blobs[0])
	c.PutSource(hashes[1], blobs[1])
	if c.Len() != 2 {
		t.Fatalf("resident = %d, want 2", c.Len())
	}
	// Touch 0 so 1 becomes the eviction victim.
	if _, ok := c.Source(hashes[0]); !ok {
		t.Fatal("entry 0 missing before eviction")
	}
	c.PutSource(hashes[2], blobs[2])

	if _, ok := c.Source(hashes[1]); ok {
		t.Error("LRU entry 1 should have been evicted")
	}
	if _, ok := c.Source(hashes[0]); !ok {
		t.Error("recently used entry 0 was evicted")
	}
	if _, ok := c.Source(hashes[2]); !ok {
		t.Error("new entry 2 missing")
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	if s := c.Stats(); s.BytesUsed > 150 {
		t.Errorf("bytes used %d exceeds budget", s.BytesUsed)
	}
}

func TestOversizedValueNotCached(t *testing.T) {
	c := New(10)
	h := HashSource([]byte("big"))
	c.PutSource(h, make([]byte, 1024))
	if c.Len() != 0 {
		t.Error("value above the whole budget must not be cached")
	}
}

// TestConcurrentSameKeyComputesOnce is the singleflight contract: many
// concurrent requests for one key run the builder exactly once and all see
// its result.
func TestConcurrentSameKeyComputesOnce(t *testing.T) {
	c := New(1 << 20)
	h := HashSource([]byte("shared"))
	var builds atomic.Int64
	sentinel := &FrontendEntry{}

	const n = 32
	var wg sync.WaitGroup
	results := make([]*FrontendEntry, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i] = c.Frontend(h, func() (*FrontendEntry, int64) {
				builds.Add(1)
				return sentinel, 64
			})
		}(i)
	}
	close(start)
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Errorf("builder ran %d times, want exactly 1", got)
	}
	for i, r := range results {
		if r != sentinel {
			t.Fatalf("caller %d got a different entry", i)
		}
	}
	s := c.Stats()
	if s.FrontendHits+s.FrontendMisses != n {
		t.Errorf("hits+misses = %d, want %d", s.FrontendHits+s.FrontendMisses, n)
	}
	if s.FrontendMisses != 1 {
		t.Errorf("misses = %d, want 1 (the single computation)", s.FrontendMisses)
	}
}

// TestClaimFrontendMakesLaterCallersWait: once ClaimFrontend has taken the
// slot, a Frontend call for the same source waits for the claimed build
// instead of running its own — and when the claimed build fails, the waiter
// gets an entry from its own builder rather than the error it cannot return.
func TestClaimFrontendMakesLaterCallersWait(t *testing.T) {
	c := New(1 << 20)
	waitForWaiters := func(n int64) {
		t.Helper()
		for c.Stats().InflightWaits < n {
			time.Sleep(time.Millisecond)
		}
	}
	later := func(h SourceHash, e *FrontendEntry) <-chan *FrontendEntry {
		out := make(chan *FrontendEntry, 1)
		go func() { out <- c.Frontend(h, func() (*FrontendEntry, int64) { return e, 64 }) }()
		return out
	}

	claimed, own := &FrontendEntry{}, &FrontendEntry{}
	h := HashSource([]byte("claimed"))
	run := c.ClaimFrontend(h, func() (*FrontendEntry, int64, error) { return claimed, 64, nil })
	got := later(h, own)
	waitForWaiters(1)
	if e, err := run(); err != nil || e != claimed {
		t.Fatalf("claimed build: %v, %v", e, err)
	}
	if e := <-got; e != claimed {
		t.Error("a Frontend call after the claim built its own entry")
	}

	h = HashSource([]byte("failed"))
	run = c.ClaimFrontend(h, func() (*FrontendEntry, int64, error) { return nil, 0, errors.New("cancelled") })
	got = later(h, own)
	waitForWaiters(2)
	if _, err := run(); err == nil {
		t.Fatal("the failing claimed build returned no error")
	}
	if e := <-got; e != own {
		t.Error("the waiter on a failed claim did not fall back to its own builder")
	}
	if s := c.Stats(); s.FrontendMisses != 2 {
		t.Errorf("misses = %d, want 2 (one per claim)", s.FrontendMisses)
	}
}

// TestClaimFrontendWaiterOutlivesFailedClaim: a second claim that joined a
// claimed build which then fails (its caller gave up) does not inherit the
// error; it claims again and builds its own entry.
func TestClaimFrontendWaiterOutlivesFailedClaim(t *testing.T) {
	c := New(1 << 20)
	h := HashSource([]byte("given up"))
	fail := c.ClaimFrontend(h, func() (*FrontendEntry, int64, error) { return nil, 0, errors.New("context canceled") })
	own := &FrontendEntry{}
	joined := c.ClaimFrontend(h, func() (*FrontendEntry, int64, error) { return own, 64, nil })
	got := make(chan error, 1)
	go func() {
		e, err := joined()
		if err == nil && e != own {
			err = errors.New("the waiter returned an entry it did not build")
		}
		got <- err
	}()
	if _, err := fail(); err == nil {
		t.Fatal("the failing claimed build returned no error")
	}
	if err := <-got; err != nil {
		t.Errorf("the waiter on a failed claim: %v", err)
	}
}

// TestConcurrentErrorPropagatesToWaiters: every waiter on a failing
// computation sees the error, and the key stays uncached.
func TestConcurrentErrorPropagatesToWaiters(t *testing.T) {
	c := New(1 << 20)
	var builds atomic.Int64

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.FuncIR(fh("fail"), func() (*ir.Func, error) {
				builds.Add(1)
				return nil, errors.New("lowering failed")
			})
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err == nil {
			t.Fatalf("caller %d got nil error", i)
		}
	}
	// Builds may run more than once (errors are not cached) but never more
	// than the number of callers; with full overlap it is exactly one.
	if got := builds.Load(); got < 1 || got > n {
		t.Errorf("builds = %d, want within [1,%d]", got, n)
	}
	if c.Len() != 0 {
		t.Error("failed computation must not be cached")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{FrontendHits: 1, IRMisses: 2, RPCBytesSaved: 10}
	a.Add(Stats{FrontendHits: 2, IRMisses: 1, RPCBytesSaved: 5, Evictions: 3})
	want := Stats{FrontendHits: 3, IRMisses: 3, RPCBytesSaved: 15, Evictions: 3}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
	if want.Hits() != 3 || want.Misses() != 3 {
		t.Error("Hits/Misses totals wrong")
	}
}
