// Package fcache is the parallel compiler's content-addressed artifact
// cache. The paper's function masters re-derive everything from source
// because the SUN workstations "share only the file system"; fcache relaxes
// exactly that constraint without changing any observable output. It keeps
// three tiers of immutable compilation artifacts:
//
//	frontend tier  module hash          -> checked (*ast.Module, *sem.Info, diagnostics, per-function hashes)
//	func-IR tier   FuncHash             -> the function's lowered, inlined ir.Func
//	object tier    (FuncHash, options)  -> the finished per-function artifact
//
// plus a source store (module hash -> source bytes) that lets distributed
// section masters send a 32-byte hash instead of the whole module on every
// request — the modern analog of the paper's shared file server.
//
// The frontend tier is keyed by the whole-module source hash (parsing is
// inherently whole-module work), but the IR and object tiers are keyed by
// FuncHash: a content address of one function's normalized byte span plus
// everything its compilation can observe (module header, section header,
// transitive same-section callees, entry-ness). The paper's partition
// boundary — "each function can be compiled independently" — is exactly the
// soundness argument for this grain: an edit to one function leaves every
// other function's cached IR and object valid, so recompiling a module after
// a one-function edit runs phases 2+3 for that function alone.
//
// The object tier may additionally be backed by a disk directory (AttachDisk,
// or the WARP_CACHE_DIR environment variable via NewEnv): entries are written
// as content-addressed files with atomic renames, so a fresh warpcc run — and
// a restarted warpworker — starts warm. See disk.go.
//
// The in-memory cache is bounded (LRU over an approximate byte budget) and
// deduplicates in-flight work singleflight-style: concurrent requests for the
// same key perform the computation exactly once. Cached values are shared and
// must be treated as immutable by all callers; anything that will be mutated
// (the target ir.Func of a compilation) must be deep-copied first
// (ir.Func.Clone).
//
// All methods are safe for concurrent use.
package fcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sync"

	"repro/internal/asm"
	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/sem"
	"repro/internal/source"
)

// SourceHash is the content address of a module source: its SHA-256.
type SourceHash [sha256.Size]byte

// HashSource returns the content address of src.
func HashSource(src []byte) SourceHash { return sha256.Sum256(src) }

// String renders the hash in hex.
func (h SourceHash) String() string { return hex.EncodeToString(h[:]) }

// IsZero reports whether h is the zero (absent) hash.
func (h SourceHash) IsZero() bool { return h == SourceHash{} }

// FuncHash is the content address of one function's compilation inputs: the
// SHA-256 of its normalized declaration span together with the module
// header, its section header, its transitive same-section callees' spans,
// and its entry-function flag (internal/parser computes it — see
// parser.OutlineWithHashes). Everything phases 2+3 produce for a function is
// a pure function of these inputs plus the options variant, which is why the
// IR and object tiers key on it.
type FuncHash [sha256.Size]byte

// String renders the hash in hex.
func (h FuncHash) String() string { return hex.EncodeToString(h[:]) }

// IsZero reports whether h is the zero (absent) hash. Cache methods treat a
// zero FuncHash as "unkeyed" and degrade to building without storing.
func (h FuncHash) IsZero() bool { return h == FuncHash{} }

// FuncKey locates one function in a module: section number (1-based) and
// position within the section (0-based). FrontendEntry.FuncHashes is keyed
// by it.
type FuncKey struct {
	Section int
	Index   int
}

// DefaultMaxBytes is the default cache budget. Artifacts are small relative
// to modern memories; the bound exists so long-running workers cannot grow
// without limit across many distinct modules.
const DefaultMaxBytes = 256 << 20

// EnvCacheDir is the environment variable consulted by NewEnv for a
// disk-backed object tier shared across processes.
const EnvCacheDir = "WARP_CACHE_DIR"

// Stats is a snapshot of cache effectiveness counters. Pools aggregate
// worker stats with Add; RPCBytesSaved and SourcePushes are filled by the
// RPC pool (bytes of source a hash-only request did not carry, and requests
// re-sent with their source).
type Stats struct {
	FrontendHits   int64
	FrontendMisses int64
	IRHits         int64
	IRMisses       int64
	ObjectHits     int64
	ObjectMisses   int64
	SourceHits     int64
	SourceMisses   int64
	InflightWaits  int64 // requests that waited on another's computation
	Evictions      int64
	BytesUsed      int64
	BytesMax       int64
	RPCBytesSaved  int64
	// SourcePushes counts requests a pool re-sent with their source after a
	// worker answered missing-source — zero on a warm run whose every
	// function was answered from the object tier.
	SourcePushes int64
	// Disk counters cover the persistent object tier (zero without one).
	DiskHits      int64
	DiskMisses    int64
	DiskWrites    int64
	DiskEvictions int64
	DiskErrors    int64 // corrupt or unreadable entries discarded
}

// Hits totals all tiers' hits (memory tiers plus disk).
func (s Stats) Hits() int64 {
	return s.FrontendHits + s.IRHits + s.ObjectHits + s.SourceHits + s.DiskHits
}

// Misses totals all tiers' misses.
func (s Stats) Misses() int64 {
	return s.FrontendMisses + s.IRMisses + s.ObjectMisses + s.SourceMisses
}

// Add accumulates o into s (for aggregating per-worker stats).
func (s *Stats) Add(o Stats) {
	s.FrontendHits += o.FrontendHits
	s.FrontendMisses += o.FrontendMisses
	s.IRHits += o.IRHits
	s.IRMisses += o.IRMisses
	s.ObjectHits += o.ObjectHits
	s.ObjectMisses += o.ObjectMisses
	s.SourceHits += o.SourceHits
	s.SourceMisses += o.SourceMisses
	s.InflightWaits += o.InflightWaits
	s.Evictions += o.Evictions
	s.BytesUsed += o.BytesUsed
	s.BytesMax += o.BytesMax
	s.RPCBytesSaved += o.RPCBytesSaved
	s.SourcePushes += o.SourcePushes
	s.DiskHits += o.DiskHits
	s.DiskMisses += o.DiskMisses
	s.DiskWrites += o.DiskWrites
	s.DiskEvictions += o.DiskEvictions
	s.DiskErrors += o.DiskErrors
}

// Sub subtracts a baseline snapshot from s, scoping cumulative counters to
// the interval since the baseline was taken — the compile daemon uses it to
// attribute one shared backend's counters to individual jobs. Gauges
// (BytesUsed, BytesMax) describe the present, not an interval, and are kept
// as-is. With concurrent jobs the attribution is approximate: counters from
// overlapping jobs land in whichever interval observes them.
func (s *Stats) Sub(base Stats) {
	s.FrontendHits -= base.FrontendHits
	s.FrontendMisses -= base.FrontendMisses
	s.IRHits -= base.IRHits
	s.IRMisses -= base.IRMisses
	s.ObjectHits -= base.ObjectHits
	s.ObjectMisses -= base.ObjectMisses
	s.SourceHits -= base.SourceHits
	s.SourceMisses -= base.SourceMisses
	s.InflightWaits -= base.InflightWaits
	s.Evictions -= base.Evictions
	s.RPCBytesSaved -= base.RPCBytesSaved
	s.SourcePushes -= base.SourcePushes
	s.DiskHits -= base.DiskHits
	s.DiskMisses -= base.DiskMisses
	s.DiskWrites -= base.DiskWrites
	s.DiskEvictions -= base.DiskEvictions
	s.DiskErrors -= base.DiskErrors
}

func (s Stats) String() string {
	out := fmt.Sprintf("frontend %d/%d, ir %d/%d, object %d/%d, source %d/%d hit/miss; %d evictions, %d B resident, %d B rpc saved",
		s.FrontendHits, s.FrontendMisses, s.IRHits, s.IRMisses,
		s.ObjectHits, s.ObjectMisses,
		s.SourceHits, s.SourceMisses, s.Evictions, s.BytesUsed, s.RPCBytesSaved)
	if s.DiskHits+s.DiskMisses+s.DiskWrites+s.DiskErrors > 0 {
		out += fmt.Sprintf("; disk %d/%d hit/miss, %d writes, %d evictions, %d errors",
			s.DiskHits, s.DiskMisses, s.DiskWrites, s.DiskEvictions, s.DiskErrors)
	}
	return out
}

// FrontendEntry is one cached phase-1 result. Bag may hold errors; the entry
// is cached either way because the result is a pure function of the source.
type FrontendEntry struct {
	Module *ast.Module
	Info   *sem.Info
	Bag    *source.DiagBag
	// FuncHashes maps every function of the module to its incremental
	// content address (empty when the frontend failed). Computed once per
	// source alongside the checked AST so every per-function compile keys
	// its IR and object lookups without re-deriving spans.
	FuncHashes map[FuncKey]FuncHash
	// Calls maps every function to the indices (ascending) of the earlier
	// same-section functions it calls directly — parser.DirectCalls, from
	// the one name index per section that FuncHashes was computed on, so a
	// function compile resolves its callees without indexing the section
	// again.
	Calls map[FuncKey][]int
}

// ObjectEntry is one finished per-function compilation artifact — the value
// of the object tier and the unit persisted by the disk tier. It carries
// everything a function master's reply needs, so a cache hit answers a
// request without re-running any phase: the wire-encoded object and the
// function master's complete warning list (frontend warnings owned by the
// function plus phase-2/3 warnings, pre-rendered in emission order).
//
// Entries are shared and immutable. The exported fields are what persists:
// EncodeEntry and DecodeEntry (record.go) are the one byte form, used by
// the disk tier. The decoded object is reconstructed lazily and memoized.
type ObjectEntry struct {
	Name        string
	Section     int
	IsEntry     bool
	Lines       int
	ObjectBytes []byte
	Warnings    []string

	once sync.Once
	obj  *asm.Object
	err  error
}

// Object returns the decoded object, decoding ObjectBytes once and sharing
// the result. Callers must treat it as immutable (the decoded object is
// shared by every hit).
func (e *ObjectEntry) Object() (*asm.Object, error) {
	e.once.Do(func() { e.obj, e.err = asm.Decode(e.ObjectBytes) })
	return e.obj, e.err
}

// SetObject installs a pre-decoded object (the build path already has one,
// so hits never pay the first decode). The object must correspond to
// ObjectBytes.
func (e *ObjectEntry) SetObject(obj *asm.Object) {
	e.once.Do(func() { e.obj = obj })
}

// Cost estimates the entry's resident bytes.
func (e *ObjectEntry) Cost() int64 {
	cost := int64(1024) + int64(len(e.ObjectBytes))*3 // bytes + decoded object
	for _, w := range e.Warnings {
		cost += int64(len(w))
	}
	return cost
}

// Cache is a bounded content-addressed cache. The zero value is not usable;
// call New.
type Cache struct {
	mu       sync.Mutex
	max      int64
	used     int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*call
	stats    Stats

	disk *diskTier // nil without a persistent object tier
}

type entry struct {
	key  string
	val  any
	cost int64
}

type call struct {
	done chan struct{}
	val  any
	err  error
}

// New returns a cache bounded to approximately maxBytes of artifact cost
// (maxBytes < 1 selects DefaultMaxBytes).
func New(maxBytes int64) *Cache {
	if maxBytes < 1 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		max:      maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*call),
	}
}

// NewEnv returns New(maxBytes) with a disk-backed object tier attached when
// the WARP_CACHE_DIR environment variable names a directory. A directory
// that cannot be opened degrades to memory-only with a note on stderr —
// cache trouble must never fail a compilation.
func NewEnv(maxBytes int64) *Cache {
	c := New(maxBytes)
	if dir := os.Getenv(EnvCacheDir); dir != "" {
		if err := c.AttachDisk(dir, 0); err != nil {
			fmt.Fprintf(os.Stderr, "fcache: disk cache at %s disabled: %v\n", dir, err)
		}
	}
	return c
}

// AttachDisk layers a persistent object tier under the in-memory cache:
// object entries missing from memory are looked up in dir, and freshly built
// entries are written there (atomic rename), so the next process over the
// same directory starts warm. maxBytes caps the directory size (GC by
// access time; < 1 selects DefaultDiskMaxBytes). Opening scans the
// directory to rebuild the index and removes leftovers of interrupted
// writes.
func (c *Cache) AttachDisk(dir string, maxBytes int64) error {
	d, err := openDiskTier(dir, maxBytes)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.disk = d
	c.mu.Unlock()
	return nil
}

// DiskDir returns the directory of the attached disk tier ("" without one).
func (c *Cache) DiskDir() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.disk == nil {
		return ""
	}
	return c.disk.dir
}

// Frontend returns the checked frontend artifacts for the module whose
// source hashes to h, computing them with build on a miss. build must be a
// pure function of the source content; it is invoked at most once per key
// even under concurrent callers. The second return is cost in bytes.
func (c *Cache) Frontend(h SourceHash, build func() (*FrontendEntry, int64)) *FrontendEntry {
	v, err := c.getOrCompute("fe:"+h.String(), tierFrontend, func() (any, int64, error) {
		e, cost := build()
		return e, cost, nil
	})
	if err != nil {
		// The call joined a ClaimFrontend build that failed and cached
		// nothing; this caller's build cannot fail, so it runs its own.
		e, _ := build()
		return e
	}
	return v.(*FrontendEntry)
}

// ClaimFrontend is Frontend with an error path, split at the lookup. The
// lookup happens when ClaimFrontend is called, and on a miss it takes the
// key's singleflight slot there and then; the returned function, which must
// be called exactly once, builds the entry (or returns or waits for the one
// that is cached or in flight). So a caller can claim h before it starts
// other work that needs the entry and build on another goroutine: every
// Frontend call for h from then on waits on that build instead of running
// its own. build may fail — the parallel frontend returns an error when its
// context is cancelled — and then nothing is cached and only its own caller
// gets the error: a waiter that joined it claims again, so one caller giving
// up never fails another.
func (c *Cache) ClaimFrontend(h SourceHash, build func() (*FrontendEntry, int64, error)) func() (*FrontendEntry, error) {
	key := "fe:" + h.String()
	s := c.claim(key, tierFrontend)
	return func() (*FrontendEntry, error) {
		for {
			v, err := c.complete(s, func() (any, int64, error) {
				e, cost, err := build()
				if err != nil {
					return nil, 0, err
				}
				return e, cost, nil
			})
			if err == nil {
				return v.(*FrontendEntry), nil
			}
			if s.owner {
				return nil, err
			}
			s = c.claim(key, tierFrontend)
		}
	}
}

// FuncIR returns the lowered, inlined (call-free) flowgraph of the function
// whose compilation inputs hash to fh, computing it with build on a miss.
// The returned func is shared: callers must not mutate it — deep-copy
// (Clone) before optimizing. Build errors are returned but not cached. A
// zero fh builds without storing.
func (c *Cache) FuncIR(fh FuncHash, build func() (*ir.Func, error)) (*ir.Func, error) {
	if fh.IsZero() {
		return build()
	}
	v, err := c.getOrCompute("ir:"+fh.String(), tierIR, func() (any, int64, error) {
		f, err := build()
		if err != nil {
			return nil, 0, err
		}
		return f, funcIRCost(f), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*ir.Func), nil
}

// Object returns the finished artifact for the function whose compilation
// inputs hash to fh under the given options variant, computing it with build
// on a miss. Lookups check memory first, then the disk tier (if attached),
// and recompiling is the last resort; fresh builds are written through to
// disk. The entry is shared on hit, so callers must treat it as immutable. Build errors are returned but not
// cached. A zero fh builds without storing.
func (c *Cache) Object(fh FuncHash, variant string, build func() (*ObjectEntry, error)) (*ObjectEntry, error) {
	if fh.IsZero() {
		return build()
	}
	key := objectKey(fh, variant)
	v, err := c.getOrCompute(key, tierObject, func() (any, int64, error) {
		if e, ok := c.diskLoad(key); ok {
			return e, e.Cost(), nil
		}
		e, err := build()
		if err != nil {
			return nil, 0, err
		}
		c.diskStore(key, e)
		return e, e.Cost(), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*ObjectEntry), nil
}

// PeekObject is a lookup-only probe of the object tier (memory, then disk):
// it never computes anything, so masters use it to short-circuit unchanged
// functions before planning any dispatch, and workers use it to answer
// hash-only requests without needing the source. A hit counts toward
// ObjectHits (or DiskHits); a peek miss is not counted as a miss, keeping
// ObjectMisses == "objects actually built".
func (c *Cache) PeekObject(fh FuncHash, variant string) (*ObjectEntry, bool) {
	if fh.IsZero() {
		return nil, false
	}
	key := objectKey(fh, variant)
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.ObjectHits++
		e := el.Value.(*entry).val.(*ObjectEntry)
		c.mu.Unlock()
		return e, true
	}
	c.mu.Unlock()
	if e, ok := c.diskLoad(key); ok {
		c.mu.Lock()
		c.stats.ObjectHits++
		c.insertLocked(key, e, e.Cost())
		c.mu.Unlock()
		return e, true
	}
	return nil, false
}

func objectKey(fh FuncHash, variant string) string {
	return "obj:" + fh.String() + ":" + variant
}

// diskLoad probes the disk tier for key, counting hits/misses/corruption.
func (c *Cache) diskLoad(key string) (*ObjectEntry, bool) {
	c.mu.Lock()
	d := c.disk
	c.mu.Unlock()
	if d == nil {
		return nil, false
	}
	e, ok, err := d.load(key)
	c.mu.Lock()
	switch {
	case err != nil:
		c.stats.DiskErrors++
		c.stats.DiskMisses++
	case ok:
		c.stats.DiskHits++
	default:
		c.stats.DiskMisses++
	}
	c.mu.Unlock()
	return e, ok
}

// diskStore writes a freshly built entry through to the disk tier.
func (c *Cache) diskStore(key string, e *ObjectEntry) {
	c.mu.Lock()
	d := c.disk
	c.mu.Unlock()
	if d == nil {
		return
	}
	written, evicted, err := d.store(key, e)
	c.mu.Lock()
	if written {
		c.stats.DiskWrites++
	}
	c.stats.DiskEvictions += evicted
	if err != nil {
		c.stats.DiskErrors++
	}
	c.mu.Unlock()
}

// PutSource stores module source under its content address. The caller is
// responsible for h == HashSource(src) (process boundaries verify this; see
// cluster.Worker.CompileBatch).
func (c *Cache) PutSource(h SourceHash, src []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := "src:" + h.String()
	if _, ok := c.items[key]; ok {
		return
	}
	c.insertLocked(key, src, int64(len(src))+64)
}

// Source returns the stored source for h, if resident.
func (c *Cache) Source(h SourceHash) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items["src:"+h.String()]; ok {
		c.ll.MoveToFront(el)
		c.stats.SourceHits++
		return el.Value.(*entry).val.([]byte), true
	}
	c.stats.SourceMisses++
	return nil, false
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.BytesUsed = c.used
	s.BytesMax = c.max
	return s
}

// Len returns the number of resident entries across all tiers.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

type tier int

const (
	tierFrontend tier = iota
	tierIR
	tierObject
)

func (c *Cache) countLocked(t tier, hit bool) {
	switch {
	case t == tierFrontend && hit:
		c.stats.FrontendHits++
	case t == tierFrontend:
		c.stats.FrontendMisses++
	case t == tierIR && hit:
		c.stats.IRHits++
	case t == tierIR:
		c.stats.IRMisses++
	case t == tierObject && hit:
		c.stats.ObjectHits++
	default:
		c.stats.ObjectMisses++
	}
}

// getOrCompute is the LRU + singleflight core. Exactly one caller computes a
// missing key; concurrent callers for the same key block until the value is
// ready and share it. Errors propagate to every waiter but are not cached.
func (c *Cache) getOrCompute(key string, t tier, build func() (any, int64, error)) (any, error) {
	return c.complete(c.claim(key, t), build)
}

// stake is one caller's claim on a key: the cached value (cl nil), an
// in-flight call another caller computes, or — owner — the call this
// caller has registered and must complete.
type stake struct {
	key   string
	val   any
	cl    *call
	owner bool
}

// claim looks key up and, on a miss with nothing in flight, registers the
// key's in-flight call for this caller.
func (c *Cache) claim(key string, t tier) stake {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.countLocked(t, true)
		return stake{key: key, val: el.Value.(*entry).val}
	}
	if cl, ok := c.inflight[key]; ok {
		c.stats.InflightWaits++
		c.countLocked(t, true) // the shared computation counts as one miss total
		return stake{key: key, cl: cl}
	}
	c.countLocked(t, false)
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	return stake{key: key, cl: cl, owner: true}
}

// complete resolves a stake: a hit returns its value, a waiter blocks on
// the in-flight call, and the owner runs build, caches a success and
// releases the waiters.
func (c *Cache) complete(s stake, build func() (any, int64, error)) (any, error) {
	switch {
	case s.cl == nil:
		return s.val, nil
	case !s.owner:
		<-s.cl.done
		return s.cl.val, s.cl.err
	}
	val, cost, err := build()
	s.cl.val, s.cl.err = val, err

	c.mu.Lock()
	delete(c.inflight, s.key)
	if err == nil {
		c.insertLocked(s.key, val, cost)
	}
	c.mu.Unlock()
	close(s.cl.done)
	return val, err
}

// insertLocked adds a value and evicts from the LRU tail until the budget
// holds. Values costlier than the whole budget are returned to callers but
// never cached.
func (c *Cache) insertLocked(key string, val any, cost int64) {
	if cost > c.max {
		return
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.used += cost - e.cost
		e.val, e.cost = val, cost
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry{key: key, val: val, cost: cost})
		c.used += cost
	}
	for c.used > c.max {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.used -= e.cost
		c.stats.Evictions++
	}
}

// funcIRCost estimates the resident cost of one flowgraph.
func funcIRCost(f *ir.Func) int64 {
	return 512 + 48*int64(f.NumInstrs()) + 8*int64(f.NumVRegs())
}
