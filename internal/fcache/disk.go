package fcache

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultDiskMaxBytes is the default size cap of a disk-backed object tier.
const DefaultDiskMaxBytes = 1 << 30

// diskTier persists object-tier entries as content-addressed files so a
// fresh process over the same directory starts warm. Layout and protocol:
//
//   - Each entry is one file named o-<sha256hex(cache key)>.wfc holding the
//     entry's checksummed record (EncodeEntry, record.go), which names its
//     full cache key (so a filename collision can never alias). A record
//     that fails DecodeEntry — bad magic, checksum or key — is corrupt: it
//     is deleted and reported as a miss, and the function is recompiled.
//   - Writes go to an os.CreateTemp("tmp-*") file in the same directory and
//     are renamed into place, so readers only ever observe complete records.
//     A crash mid-write leaves a tmp-* file that no reader looks at; opening
//     the directory removes such leftovers.
//   - There is no separate index file: open rebuilds the index by scanning
//     the directory, which makes the tier safe to share between processes
//     (entries are deterministic, so concurrent writers of the same key
//     produce identical content and last-rename-wins is harmless).
//   - The file mtime doubles as the access time: hits touch it, and when the
//     directory exceeds its byte cap the oldest-mtime files are removed
//     first.
type diskTier struct {
	mu    sync.Mutex
	dir   string
	max   int64
	used  int64
	files map[string]diskFile // filename -> size and last access
}

type diskFile struct {
	size  int64
	atime time.Time
}

func diskFileName(key string) string {
	sum := KeyDigest(key)
	return "o-" + hex.EncodeToString(sum[:]) + ".wfc"
}

// openDiskTier opens (creating if needed) dir as a persistent object tier:
// it removes leftovers of interrupted writes, rebuilds the index by
// scanning, and enforces the size cap immediately.
func openDiskTier(dir string, maxBytes int64) (*diskTier, error) {
	if maxBytes < 1 {
		maxBytes = DefaultDiskMaxBytes
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	d := &diskTier{dir: dir, max: maxBytes, files: make(map[string]diskFile)}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "tmp-"):
			os.Remove(filepath.Join(dir, name))
		case strings.HasPrefix(name, "o-") && strings.HasSuffix(name, ".wfc"):
			info, err := e.Info()
			if err != nil {
				continue
			}
			d.files[name] = diskFile{size: info.Size(), atime: info.ModTime()}
			d.used += info.Size()
		}
	}
	d.mu.Lock()
	d.evictLocked()
	d.mu.Unlock()
	return d, nil
}

// load reads the entry stored under key. ok=false with a nil error is a
// plain miss; a non-nil error means a corrupt entry was found and deleted.
func (d *diskTier) load(key string) (*ObjectEntry, bool, error) {
	name := diskFileName(key)
	path := filepath.Join(d.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		d.forget(name)
		return nil, false, nil // miss (possibly evicted by another process)
	}
	e, err := DecodeEntry(key, data)
	if err != nil {
		d.discard(name)
		return nil, false, fmt.Errorf("disk cache: %s: %v", name, err)
	}
	now := time.Now()
	os.Chtimes(path, now, now) // mtime is the access time for eviction
	d.mu.Lock()
	if f, ok := d.files[name]; ok {
		f.atime = now
		d.files[name] = f
	} else {
		d.files[name] = diskFile{size: int64(len(data)), atime: now}
		d.used += int64(len(data))
	}
	d.mu.Unlock()
	return e, true, nil
}

// store writes the entry for key unless already present. It returns whether
// a new file was written and how many files eviction removed.
func (d *diskTier) store(key string, e *ObjectEntry) (written bool, evicted int64, err error) {
	name := diskFileName(key)
	path := filepath.Join(d.dir, name)
	d.mu.Lock()
	_, have := d.files[name]
	d.mu.Unlock()
	if have {
		return false, 0, nil
	}
	if _, statErr := os.Stat(path); statErr == nil {
		return false, 0, nil // another process beat us to it
	}

	data := EncodeEntry(key, e)
	if int64(len(data)) > d.max {
		return false, 0, nil // larger than the whole tier: never persisted
	}

	if err := atomicWrite(d.dir, path, data); err != nil {
		return false, 0, err
	}

	d.mu.Lock()
	d.files[name] = diskFile{size: int64(len(data)), atime: time.Now()}
	d.used += int64(len(data))
	evicted = d.evictLocked()
	d.mu.Unlock()
	return true, evicted, nil
}

// forget drops name from the index without touching the file (used when the
// file turned out not to exist).
func (d *diskTier) forget(name string) {
	d.mu.Lock()
	if f, ok := d.files[name]; ok {
		d.used -= f.size
		delete(d.files, name)
	}
	d.mu.Unlock()
}

// discard deletes a corrupt entry from disk and index.
func (d *diskTier) discard(name string) {
	os.Remove(filepath.Join(d.dir, name))
	d.forget(name)
}

// evictLocked removes the least recently accessed files until the tier fits
// its byte cap, returning the number removed. Caller holds d.mu.
func (d *diskTier) evictLocked() int64 {
	if d.used <= d.max {
		return 0
	}
	type aged struct {
		name string
		f    diskFile
	}
	all := make([]aged, 0, len(d.files))
	for name, f := range d.files {
		all = append(all, aged{name, f})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].f.atime.Before(all[j].f.atime) })
	var n int64
	for _, a := range all {
		if d.used <= d.max {
			break
		}
		os.Remove(filepath.Join(d.dir, a.name))
		d.used -= a.f.size
		delete(d.files, a.name)
		n++
	}
	return n
}
