package fcache

import (
	"crypto/sha256"
	"strings"
	"sync"
)

// PeerView is the cache's window onto a fleet of sibling caches — the
// peer-to-peer fill tier that sits between the disk tier and recompilation.
// internal/peercache provides the production implementation; fcache only
// depends on this interface, so the package stays free of any networking.
//
// Implementations must be safe for concurrent use. Replicas is additionally
// called from inside the disk tier's eviction pass with the tier lock held,
// so it must answer from the implementation's own state without calling back
// into the Cache or its disk tier.
type PeerView interface {
	// Fetch retrieves the object entry stored under the full cache key from
	// whichever peer claims to hold it, failing over across holders. ok
	// reports whether a verified entry was obtained; errs counts peers that
	// failed at the transport level along the way (timeout, connection
	// drop, corrupt reply) — those are accounted as Stats.PeerErrors and
	// say nothing about anyone's ability to compile.
	Fetch(key string) (e *ObjectEntry, ok bool, errs int)

	// Replicas reports how many peers' summaries claim the entry whose
	// cache key digests (KeyDigest) to d. Zero means this cache is, as far
	// as the fleet knows, the last holder. Summaries are Bloom filters, so
	// the count can over-report but never under-reports a known holder
	// beyond filter error.
	Replicas(d [sha256.Size]byte) int
}

// AttachPeers layers a peer fill tier under the cache: object lookups that
// miss memory and disk consult peers before recompiling (Object), hash-only
// probes can reach the fleet (PeerObject), masters can batch-prefetch
// predicted-hot entries (PrefetchObjects), and — when a disk tier is
// attached — eviction becomes fleet-aware: redundantly replicated entries
// are evicted first and the last known holder of an entry keeps it until
// the disk tier's hard byte cap. A nil p is a no-op.
func (c *Cache) AttachPeers(p PeerView) {
	if p == nil {
		return
	}
	c.mu.Lock()
	c.peers = p
	d := c.disk
	c.mu.Unlock()
	if d != nil {
		d.setReplicas(p.Replicas)
	}
}

// HasPeers reports whether a peer fill tier is attached.
func (c *Cache) HasPeers() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peers != nil
}

// peerLoad consults the peer tier for key, counting hits, misses, and
// transport errors. It does not insert the entry anywhere — callers decide
// (the Object build path returns it through getOrCompute, which inserts
// into memory; PeerObject and prefetch insert explicitly).
func (c *Cache) peerLoad(key string) (*ObjectEntry, bool) {
	c.mu.Lock()
	p := c.peers
	c.mu.Unlock()
	if p == nil {
		return nil, false
	}
	e, ok, errs := p.Fetch(key)
	c.mu.Lock()
	c.stats.PeerErrors += int64(errs)
	if ok {
		c.stats.PeerHits++
		c.stats.PeerBytes += int64(len(e.ObjectBytes))
	} else {
		c.stats.PeerMisses++
	}
	c.mu.Unlock()
	return e, ok
}

// PeerObject is a peers-only probe of the object tier: the caller has
// already established a local miss (PeekObject) and asks the fleet before
// resorting to a recompile. A hit is installed in memory and written
// through to disk, making this process a holder. It never computes
// anything; without peers it reports a miss.
func (c *Cache) PeerObject(fh FuncHash, variant string) (*ObjectEntry, bool) {
	if fh.IsZero() {
		return nil, false
	}
	key := objectKey(fh, variant)
	e, ok := c.peerLoad(key)
	if !ok {
		return nil, false
	}
	c.diskStore(key, e)
	c.mu.Lock()
	c.insertLocked(key, e, e.Cost())
	c.mu.Unlock()
	return e, true
}

// prefetchWorkers bounds the fan-out of one PrefetchObjects call so a large
// outline cannot open unbounded concurrent fetches against the fleet.
const prefetchWorkers = 8

// PrefetchObjects pulls the objects for the given function hashes from
// peers ahead of dispatch — the master's "predicted hot" batch, taken
// straight from the outline. Hashes already resident locally (memory or
// disk index) are skipped without counters; fetched entries are installed
// in memory, written through to disk, and counted as PeerPrefetched (in
// addition to the usual PeerHits/PeerBytes). Returns how many entries were
// filled. Zero hashes, or no peer tier, are a no-op.
func (c *Cache) PrefetchObjects(fhs []FuncHash, variant string) int {
	if len(fhs) == 0 || !c.HasPeers() {
		return 0
	}
	var missing []string
	seen := make(map[string]bool, len(fhs))
	for _, fh := range fhs {
		if fh.IsZero() {
			continue
		}
		key := objectKey(fh, variant)
		if seen[key] || c.hasLocal(key) {
			continue
		}
		seen[key] = true
		missing = append(missing, key)
	}
	if len(missing) == 0 {
		return 0
	}
	var (
		wg     sync.WaitGroup
		filled int64
		ch     = make(chan string)
	)
	workers := prefetchWorkers
	if len(missing) < workers {
		workers = len(missing)
	}
	var mu sync.Mutex
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range ch {
				e, ok := c.peerLoad(key)
				if !ok {
					continue
				}
				c.diskStore(key, e)
				c.mu.Lock()
				c.insertLocked(key, e, e.Cost())
				c.stats.PeerPrefetched++
				c.mu.Unlock()
				mu.Lock()
				filled++
				mu.Unlock()
			}
		}()
	}
	for _, key := range missing {
		ch <- key
	}
	close(ch)
	wg.Wait()
	return int(filled)
}

// hasLocal reports whether key is resident in memory or present in the disk
// tier's index, without touching counters or file contents.
func (c *Cache) hasLocal(key string) bool {
	c.mu.Lock()
	_, ok := c.items[key]
	d := c.disk
	c.mu.Unlock()
	if ok {
		return true
	}
	if d == nil {
		return false
	}
	d.mu.Lock()
	_, ok = d.files[diskFileName(key)]
	d.mu.Unlock()
	return ok
}

// LocalObject answers a peer's fetch for the entry stored under the full
// cache key from local tiers only — memory, then disk. It never consults
// peers (so two caches fetching from each other cannot recurse) and never
// computes anything. A hit counts as PeerServed; a miss is silent. The
// peercache server is the only intended caller.
func (c *Cache) LocalObject(key string) (*ObjectEntry, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		if e, isObj := el.Value.(*entry).val.(*ObjectEntry); isObj {
			c.ll.MoveToFront(el)
			c.stats.PeerServed++
			c.mu.Unlock()
			return e, true
		}
	}
	c.mu.Unlock()
	if e, ok := c.diskLoad(key); ok {
		c.mu.Lock()
		c.stats.PeerServed++
		c.insertLocked(key, e, e.Cost())
		c.mu.Unlock()
		return e, true
	}
	return nil, false
}

// ObjectDigests lists the key digests (KeyDigest) of every object-tier
// entry this cache can serve — resident in memory or present on disk —
// deduplicated. This is the raw material of the peer protocol's Bloom
// summary; disk entries contribute their digests straight from filenames,
// so a freshly scanned warm directory is advertisable without reading any
// record.
func (c *Cache) ObjectDigests() [][sha256.Size]byte {
	seen := make(map[[sha256.Size]byte]bool)
	c.mu.Lock()
	for key := range c.items {
		if strings.HasPrefix(key, "obj:") {
			seen[KeyDigest(key)] = true
		}
	}
	d := c.disk
	c.mu.Unlock()
	if d != nil {
		for _, dg := range d.digests() {
			seen[dg] = true
		}
	}
	out := make([][sha256.Size]byte, 0, len(seen))
	for dg := range seen {
		out = append(out, dg)
	}
	return out
}

// ObjectGen is a monotonic stamp of the object tier's contents: it ticks on
// every new memory insert and disk write of an object entry. Peers
// piggyback it on fetch replies; a client seeing a different gen than the
// one captured with the peer's summary knows the summary is stale.
func (c *Cache) ObjectGen() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.objectGen
}
