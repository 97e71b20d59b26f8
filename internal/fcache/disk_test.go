package fcache

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func diskCache(t *testing.T, dir string, maxBytes int64) *Cache {
	t.Helper()
	c := New(1 << 20)
	if err := c.AttachDisk(dir, maxBytes); err != nil {
		t.Fatalf("AttachDisk(%s): %v", dir, err)
	}
	return c
}

func storeObj(t *testing.T, c *Cache, label string, size int) *ObjectEntry {
	t.Helper()
	e, err := c.Object(fh(label), "default", func() (*ObjectEntry, error) {
		return &ObjectEntry{Name: label, ObjectBytes: bytes.Repeat([]byte{7}, size)}, nil
	})
	if err != nil {
		t.Fatalf("Object(%s): %v", label, err)
	}
	return e
}

// TestDiskPersistsAcrossProcesses is the tier's reason to exist: a second
// cache (a fresh process, in effect) over the same directory must answer from
// disk without ever invoking the builder.
func TestDiskPersistsAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	a := diskCache(t, dir, 0)
	want := storeObj(t, a, "f", 100)
	if s := a.Stats(); s.DiskWrites != 1 {
		t.Fatalf("disk writes = %d, want 1", s.DiskWrites)
	}

	b := diskCache(t, dir, 0)
	got, err := b.Object(fh("f"), "default", func() (*ObjectEntry, error) {
		return nil, errors.New("builder must not run on a disk hit")
	})
	if err != nil {
		t.Fatalf("warm Object: %v", err)
	}
	if got.Name != want.Name || !bytes.Equal(got.ObjectBytes, want.ObjectBytes) {
		t.Error("disk round-trip changed the entry")
	}
	if s := b.Stats(); s.DiskHits != 1 || s.ObjectMisses != 1 {
		t.Errorf("stats = %+v, want 1 disk hit under 1 object miss", s)
	}

	// PeekObject reaches the disk tier too — this is the master's probe path.
	c := diskCache(t, dir, 0)
	if _, ok := c.PeekObject(fh("f"), "default"); !ok {
		t.Error("peek missed a persisted entry")
	}
	if _, ok := c.PeekObject(fh("f"), "no-opt"); ok {
		t.Error("peek hit across options variants")
	}
}

// TestDiskCrashSafety: a partial write is left as a tmp-* file which readers
// never consult, and opening the directory garbage-collects it.
func TestDiskCrashSafety(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "tmp-1234")
	if err := os.WriteFile(stale, []byte("half a record"), 0o666); err != nil {
		t.Fatal(err)
	}

	c := diskCache(t, dir, 0)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("interrupted-write leftover survived open")
	}
	storeObj(t, c, "f", 50)
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("directory holds %d files after store, want exactly 1", len(entries))
	}
}

// TestDiskCorruptEntryRecompiles: a flipped byte must surface as a counted
// error plus a rebuild, never as a wrong artifact, and the bad file must go.
func TestDiskCorruptEntryRecompiles(t *testing.T) {
	dir := t.TempDir()
	a := diskCache(t, dir, 0)
	storeObj(t, a, "f", 200)

	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("want 1 cache file, have %d", len(entries))
	}
	path := filepath.Join(dir, entries[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}

	b := diskCache(t, dir, 0)
	rebuilt := false
	e, err := b.Object(fh("f"), "default", func() (*ObjectEntry, error) {
		rebuilt = true
		return &ObjectEntry{Name: "f"}, nil
	})
	if err != nil || e.Name != "f" {
		t.Fatalf("Object after corruption: %v", err)
	}
	if !rebuilt {
		t.Error("corrupt entry was served instead of recompiled")
	}
	if s := b.Stats(); s.DiskErrors != 1 {
		t.Errorf("disk errors = %d, want 1", s.DiskErrors)
	}
	// The rebuild writes through, replacing the corrupt file with a good one.
	fresh := diskCache(t, dir, 0)
	if _, ok := fresh.PeekObject(fh("f"), "default"); !ok {
		t.Error("rebuilt entry was not re-persisted")
	}
	if s := fresh.Stats(); s.DiskErrors != 0 {
		t.Error("re-persisted entry is still corrupt")
	}
}

// TestDiskSizeCapEvictsOldest: when the directory exceeds its byte cap the
// least recently accessed entries leave first.
func TestDiskSizeCapEvictsOldest(t *testing.T) {
	dir := t.TempDir()
	// Each entry is ~4KiB of payload plus a few hundred bytes of record
	// framing; a 10KiB cap fits two.
	a := diskCache(t, dir, 10<<10)
	storeObj(t, a, "old", 4<<10)
	// Age the first file well past any later one (the index keys eviction by
	// access time; same-process time.Now calls could in principle tie).
	entries, _ := os.ReadDir(dir)
	past := time.Now().Add(-time.Hour)
	os.Chtimes(filepath.Join(dir, entries[0].Name()), past, past)
	a.disk.mu.Lock()
	f := a.disk.files[entries[0].Name()]
	f.atime = past
	a.disk.files[entries[0].Name()] = f
	a.disk.mu.Unlock()

	storeObj(t, a, "mid", 4<<10)
	storeObj(t, a, "new", 4<<10)
	if s := a.Stats(); s.DiskEvictions == 0 {
		t.Fatalf("no disk evictions after exceeding the cap: %+v", s)
	}

	b := diskCache(t, dir, 0)
	if _, ok := b.PeekObject(fh("old"), "default"); ok {
		t.Error("oldest entry survived the size cap")
	}
	if _, ok := b.PeekObject(fh("new"), "default"); !ok {
		t.Error("newest entry was evicted")
	}
}

// TestDiskLeavesForeignFilesAlone: the tier owns only the o-*.wfc
// namespace. Any other file in the directory — here a cost-samples.wfc
// file like the one older binaries wrote beside the objects — is neither
// indexed, counted in used, nor evicted, across opens and eviction pressure
// alike.
func TestDiskLeavesForeignFilesAlone(t *testing.T) {
	dir := t.TempDir()
	foreign := filepath.Join(dir, "cost-samples.wfc")
	want := bytes.Repeat([]byte{3}, 3<<10)
	if err := os.WriteFile(foreign, want, 0o666); err != nil {
		t.Fatal(err)
	}
	check := func(c *Cache, when string) {
		t.Helper()
		c.disk.mu.Lock()
		_, indexed := c.disk.files["cost-samples.wfc"]
		var sum int64
		for _, f := range c.disk.files {
			sum += f.size
		}
		used := c.disk.used
		c.disk.mu.Unlock()
		if indexed {
			t.Errorf("%s: the foreign file is in the object index", when)
		}
		if used != sum {
			t.Errorf("%s: used = %d, but the indexed objects total %d", when, used, sum)
		}
		got, err := os.ReadFile(foreign)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: the foreign file was removed or changed (err %v)", when, err)
		}
	}

	// A 6KiB cap holds one ~4KiB object, so every later store evicts.
	c := diskCache(t, dir, 6<<10)
	check(c, "open")
	for _, label := range []string{"a", "b", "c", "d"} {
		storeObj(t, c, label, 4<<10)
	}
	if s := c.Stats(); s.DiskEvictions == 0 {
		t.Fatalf("no disk evictions after filling past the cap: %+v", s)
	}
	check(c, "after eviction")
	check(diskCache(t, dir, 6<<10), "reopen")
}

// TestDiskSharedDirConcurrent simulates several masters/workers sharing one
// cache directory: concurrent stores and loads of overlapping keys must stay
// error-free and converge to every key being a hit everywhere.
func TestDiskSharedDirConcurrent(t *testing.T) {
	dir := t.TempDir()
	caches := []*Cache{diskCache(t, dir, 0), diskCache(t, dir, 0), diskCache(t, dir, 0)}
	labels := []string{"a", "b", "c", "d", "e", "f", "g", "h"}

	var wg sync.WaitGroup
	for _, c := range caches {
		for _, l := range labels {
			wg.Add(1)
			go func(c *Cache, l string) {
				defer wg.Done()
				e, err := c.Object(fh(l), "default", func() (*ObjectEntry, error) {
					return &ObjectEntry{Name: l, ObjectBytes: []byte(l)}, nil
				})
				if err != nil || e.Name != l {
					t.Errorf("Object(%s): %v", l, err)
				}
			}(c, l)
		}
	}
	wg.Wait()

	var errs int64
	for _, c := range caches {
		errs += c.Stats().DiskErrors
	}
	if errs != 0 {
		t.Errorf("concurrent sharing produced %d disk errors", errs)
	}
	fresh := diskCache(t, dir, 0)
	for _, l := range labels {
		if e, ok := fresh.PeekObject(fh(l), "default"); !ok || e.Name != l {
			t.Errorf("key %s missing or wrong after concurrent population", l)
		}
	}
}

// TestDiskSameKeyConcurrentWriters: several caches (several daemon
// processes sharing one WARP_CACHE_DIR, in effect) racing to persist the
// very same key must converge on exactly one valid file — entries are
// deterministic, so last-rename-wins is harmless — with no disk errors.
func TestDiskSameKeyConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	caches := []*Cache{diskCache(t, dir, 0), diskCache(t, dir, 0), diskCache(t, dir, 0), diskCache(t, dir, 0)}

	var wg sync.WaitGroup
	for _, c := range caches {
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(c *Cache) {
				defer wg.Done()
				e, err := c.Object(fh("hot"), "default", func() (*ObjectEntry, error) {
					return &ObjectEntry{Name: "hot", ObjectBytes: bytes.Repeat([]byte{3}, 64)}, nil
				})
				if err != nil || e.Name != "hot" {
					t.Errorf("Object(hot): %v", err)
				}
			}(c)
		}
	}
	wg.Wait()

	for i, c := range caches {
		if n := c.Stats().DiskErrors; n != 0 {
			t.Errorf("cache %d saw %d disk errors under same-key races", i, n)
		}
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("directory holds %d files after same-key races, want exactly 1", len(entries))
	}
	fresh := diskCache(t, dir, 0)
	e, ok := fresh.PeekObject(fh("hot"), "default")
	if !ok || !bytes.Equal(e.ObjectBytes, bytes.Repeat([]byte{3}, 64)) {
		t.Error("surviving record is missing or wrong")
	}
}

// TestDiskEvictionRacesReader: one cache's size-cap eviction removing a
// file out from under another cache (a co-tenant daemon whose index still
// lists it) must surface as a plain miss-and-recompile on the reader,
// never as an error or a wrong artifact.
func TestDiskEvictionRacesReader(t *testing.T) {
	dir := t.TempDir()
	seed := diskCache(t, dir, 0)
	storeObj(t, seed, "victim", 4<<10)

	// reader opens now, so "victim" is in its scan index but only on disk.
	reader := diskCache(t, dir, 0)

	// evictor runs under a cap that two new entries will blow; age the
	// victim's file (and its index entry) so it leaves first.
	evictor := diskCache(t, dir, 10<<10)
	entries, _ := os.ReadDir(dir)
	past := time.Now().Add(-time.Hour)
	os.Chtimes(filepath.Join(dir, entries[0].Name()), past, past)
	evictor.disk.mu.Lock()
	f := evictor.disk.files[entries[0].Name()]
	f.atime = past
	evictor.disk.files[entries[0].Name()] = f
	evictor.disk.mu.Unlock()
	storeObj(t, evictor, "new1", 4<<10)
	storeObj(t, evictor, "new2", 4<<10)
	if evictor.Stats().DiskEvictions == 0 {
		t.Fatal("evictor removed nothing; the race under test never happened")
	}

	rebuilt := false
	e, err := reader.Object(fh("victim"), "default", func() (*ObjectEntry, error) {
		rebuilt = true
		return &ObjectEntry{Name: "victim"}, nil
	})
	if err != nil || e.Name != "victim" {
		t.Fatalf("Object(victim) after cross-process eviction: %v", err)
	}
	if !rebuilt {
		t.Error("evicted entry was served from nowhere instead of recompiled")
	}
	if s := reader.Stats(); s.DiskErrors != 0 {
		t.Errorf("cross-process eviction counted as %d disk errors, want 0 (plain miss)", s.DiskErrors)
	}
	// The rebuild wrote through, so the key is persistent again.
	if _, ok := diskCache(t, dir, 0).PeekObject(fh("victim"), "default"); !ok {
		t.Error("rebuilt entry was not re-persisted")
	}
}

// TestDiskCorruptRecordSharedDir: with two caches over one directory, the
// first reader of a corrupted record detects it, deletes it, and rebuilds
// (write-through); the second then reads the repaired record cleanly.
func TestDiskCorruptRecordSharedDir(t *testing.T) {
	dir := t.TempDir()
	seed := diskCache(t, dir, 0)
	storeObj(t, seed, "f", 200)

	a, b := diskCache(t, dir, 0), diskCache(t, dir, 0)

	entries, _ := os.ReadDir(dir)
	path := filepath.Join(dir, entries[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}

	rebuilt := false
	if _, err := a.Object(fh("f"), "default", func() (*ObjectEntry, error) {
		rebuilt = true
		return &ObjectEntry{Name: "f", ObjectBytes: bytes.Repeat([]byte{7}, 200)}, nil
	}); err != nil {
		t.Fatalf("first reader over corrupt record: %v", err)
	}
	if !rebuilt {
		t.Error("first reader served the corrupt record instead of recompiling")
	}
	if s := a.Stats(); s.DiskErrors != 1 {
		t.Errorf("first reader counted %d disk errors, want 1", s.DiskErrors)
	}

	got, err := b.Object(fh("f"), "default", func() (*ObjectEntry, error) {
		return nil, errors.New("second reader must hit the repaired record")
	})
	if err != nil {
		t.Fatalf("second reader after repair: %v", err)
	}
	if got.Name != "f" || !bytes.Equal(got.ObjectBytes, bytes.Repeat([]byte{7}, 200)) {
		t.Error("second reader got a wrong artifact")
	}
	if s := b.Stats(); s.DiskErrors != 0 || s.DiskHits != 1 {
		t.Errorf("second reader stats = %+v, want a clean disk hit", s)
	}
}

// TestNewEnvAttachesDiskTier: WARP_CACHE_DIR wires a persistent tier into
// every pool and worker without code changes.
func TestNewEnvAttachesDiskTier(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(EnvCacheDir, dir)
	c := NewEnv(0)
	if c.DiskDir() != dir {
		t.Fatalf("DiskDir = %q, want %q", c.DiskDir(), dir)
	}
	storeObj(t, c, "f", 10)
	if s := c.Stats(); s.DiskWrites != 1 {
		t.Errorf("disk writes = %d, want 1", s.DiskWrites)
	}

	t.Setenv(EnvCacheDir, "")
	if d := NewEnv(0).DiskDir(); d != "" {
		t.Errorf("DiskDir without env = %q, want empty", d)
	}
}
