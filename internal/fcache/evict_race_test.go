package fcache

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
)

// TestDiskEvictionRacesSharedDirLoad pins the atomicity contract between
// one process's disk eviction and another process's load of the same key
// from a shared directory: the load (diskLoad) must observe either the
// complete record or a plain miss — never a partial record, never a counted
// corruption. Eviction unlinks whole files and writes go through
// rename-into-place, so a reader's os.ReadFile is all-or-nothing; this test
// hammers that invariant under -race with a cap small enough that every
// store evicts.
func TestDiskEvictionRacesSharedDirLoad(t *testing.T) {
	dir := t.TempDir()

	// The writer owns eviction: a tier so small that each ~4 KiB entry
	// pushes older ones out almost immediately.
	writer := New(1 << 20)
	if err := writer.AttachDisk(dir, 16<<10); err != nil {
		t.Fatal(err)
	}
	// The reader is a separate Cache over the same directory: eviction by
	// one process racing a load by another.
	reader := New(1 << 20)
	if err := reader.AttachDisk(dir, DefaultDiskMaxBytes); err != nil {
		t.Fatal(err)
	}

	entryFor := func(i int) (string, *ObjectEntry) {
		fh := FuncHash(sha256.Sum256([]byte(fmt.Sprintf("evict-race-%d", i))))
		return objectKey(fh, "default"), &ObjectEntry{
			Name:        fmt.Sprintf("f%d", i),
			Section:     1,
			Lines:       i + 1,
			ObjectBytes: bytes.Repeat([]byte{byte(i)}, 4<<10),
		}
	}

	const total = 200
	var (
		mu     sync.Mutex
		recent []string // keys stored so far, oldest first
		done   = make(chan struct{})
		wg     sync.WaitGroup
	)

	// Writer: store fresh entries, each store running the eviction pass.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < total; i++ {
			key, e := entryFor(i)
			writer.diskStore(key, e)
			mu.Lock()
			recent = append(recent, key)
			mu.Unlock()
		}
	}()

	// Readers: load the most recently stored keys through the disk tier,
	// racing the writer's eviction of those same files.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				n := len(recent)
				var keys []string
				if n > 0 {
					lo := n - 8
					if lo < 0 {
						lo = 0
					}
					keys = append(keys, recent[lo:n]...)
				}
				mu.Unlock()
				for _, key := range keys {
					if e, ok := reader.diskLoad(key); ok {
						// A hit must be the complete entry: right name,
						// right body. DecodeEntry already rejected any
						// torn read; this checks nothing was aliased.
						var want byte
						fmt.Sscanf(e.Name, "f%d", &want)
						if len(e.ObjectBytes) != 4<<10 || e.ObjectBytes[0] != want {
							t.Errorf("load of %s returned a mangled entry (name %s, %d bytes)",
								key, e.Name, len(e.ObjectBytes))
						}
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()

	// An eviction racing a load must read as a plain miss, never as a
	// corrupt record: DiskErrors counts only checksum/decode failures, and
	// there must be none.
	if s := reader.Stats(); s.DiskErrors != 0 {
		t.Errorf("reader counted %d corrupt disk records during eviction races (want 0): %s",
			s.DiskErrors, s)
	}
	if s := writer.Stats(); s.DiskErrors != 0 {
		t.Errorf("writer counted %d corrupt disk records (want 0): %s", s.DiskErrors, s)
	}
	if s := writer.Stats(); s.DiskEvictions == 0 {
		t.Error("no eviction ever ran — the race under test never happened")
	}
}
