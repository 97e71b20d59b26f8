package fcache_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cluster"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/fcache"
	"repro/internal/source"
	"repro/internal/wgen"
)

type keyedEntry struct {
	key string
	e   *fcache.ObjectEntry
}

// compiledEntries builds the object entry of every function of src as the
// function master would: the encoded object plus the function's warnings.
func compiledEntries(tb testing.TB, src []byte) []keyedEntry {
	tb.Helper()
	res, err := compiler.CompileModule("seed.w2", src, compiler.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	var out []keyedEntry
	for _, fr := range res.Funcs {
		e := &fcache.ObjectEntry{Name: fr.Name, Section: fr.Section, IsEntry: fr.IsEntry, Lines: fr.Lines, ObjectBytes: asm.Encode(fr.Object)}
		for _, d := range fr.Diags.All() {
			if d.Severity == source.Warn {
				e.Warnings = append(e.Warnings, d.String())
			}
		}
		out = append(out, keyedEntry{"obj:" + fr.Name + ":default", e})
	}
	return out
}

// checkDecode asserts the decoder's properties on one input: an accepted
// record re-encodes to exactly its own bytes, and with any of its length
// prefixes raised past the bytes left (checksum recomputed) it is rejected.
func checkDecode(t *testing.T, key string, data []byte) {
	e, err := fcache.DecodeEntry(key, data)
	if err != nil {
		return
	}
	if again := fcache.EncodeEntry(key, e); !bytes.Equal(again, data) {
		t.Fatalf("accepted record re-encodes differently:\n got %x\nwant %x", again, data)
	}
	for _, off := range fcache.LengthPrefixOffsets(key, e) {
		bad := bytes.Clone(data)
		binary.LittleEndian.PutUint32(bad[off:], uint32(len(data)-sha256.Size-off-4+1))
		fcache.Resum(bad)
		if _, err := fcache.DecodeEntry(key, bad); err == nil {
			t.Fatalf("length prefix at %d raised past the bytes left was accepted", off)
		}
	}
}

// FuzzDecodeEntry: DecodeEntry never panics on hostile bytes, what it
// accepts is canonical, and no length prefix may claim more than is left.
// Each input is tried as given and with its checksum recomputed, so the
// fuzzer reaches the field checks behind the checksum. The seeds are the
// records of every function of a few small wgen programs.
func FuzzDecodeEntry(f *testing.F) {
	for _, src := range [][]byte{
		wgen.SmallFuncsProgram(4),
		wgen.SyntheticProgram(wgen.Tiny, 2),
		wgen.MultiSectionProgram(wgen.Tiny, 2),
	} {
		for _, ke := range compiledEntries(f, src) {
			f.Add(ke.key, fcache.EncodeEntry(ke.key, ke.e))
		}
	}
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		checkDecode(t, key, data)
		resummed := bytes.Clone(data)
		fcache.Resum(resummed)
		checkDecode(t, key, resummed)
	})
}

// TestEntryAllocations pins the record's cost on a representative entry:
// the largest function of MultiSectionProgram(Tiny, 2), about 0.8 KB of
// object, given one warning. Encoding allocates the record and nothing else.
// Decoding allocates the entry, its name, the warning slice and the warning;
// the object bytes alias the record.
func TestEntryAllocations(t *testing.T) {
	entries := compiledEntries(t, wgen.MultiSectionProgram(wgen.Tiny, 2))
	ke := entries[0]
	for _, c := range entries {
		if len(c.e.ObjectBytes) > len(ke.e.ObjectBytes) {
			ke = c
		}
	}
	ke.e.Warnings = []string{"seed.w2:4:9: warning: variable t is never used"}
	rec := fcache.EncodeEntry(ke.key, ke.e)
	if n := testing.AllocsPerRun(100, func() { fcache.EncodeEntry(ke.key, ke.e) }); n != 1 {
		t.Errorf("EncodeEntry: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { fcache.DecodeEntry(ke.key, rec) }); n != 4 {
		t.Errorf("DecodeEntry: %v allocations, want 4", n)
	}
}

// gobEraRecord is the record older binaries wrote for e under key: a gob
// {Key, Payload, Sum} whose payload is the gob-encoded entry.
func gobEraRecord(t *testing.T, key string, e *fcache.ObjectEntry) []byte {
	var payload, rec bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(e); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(append([]byte(key), payload.Bytes()...))
	type diskRecord struct {
		Key     string
		Payload []byte
		Sum     [sha256.Size]byte
	}
	if err := gob.NewEncoder(&rec).Encode(&diskRecord{key, payload.Bytes(), sum}); err != nil {
		t.Fatal(err)
	}
	return rec.Bytes()
}

// TestGobEraDirectoryRecompiles: a cache directory written in the gob-era
// record layout is not read. Every such file is a corrupt entry: counted,
// removed, a miss; the functions recompile, the output is word-identical to
// the build that wrote the directory, and the files written back are the
// same records that build wrote.
func TestGobEraDirectoryRecompiles(t *testing.T) {
	t.Setenv(fcache.EnvCacheDir, "")
	src := wgen.SyntheticProgram(wgen.Small, 4)
	dir := t.TempDir()
	build := func() (*compiler.Result, fcache.Stats) {
		t.Helper()
		pool := cluster.NewLocalPool(2)
		if err := pool.Cache().AttachDisk(dir, 0); err != nil {
			t.Fatal(err)
		}
		res, _, err := core.ParallelCompile("prog.w2", src, pool, compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res, pool.CacheStats()
	}
	records := func() map[string][]byte {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, "o-*.wfc"))
		if err != nil || len(names) == 0 {
			t.Fatalf("no object records in the cache directory (%v)", err)
		}
		out := make(map[string][]byte)
		for _, name := range names {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = data
		}
		return out
	}

	cold, _ := build()
	written := records()
	for name, data := range written {
		key := fcache.StoredKey(data)
		e, err := fcache.DecodeEntry(key, data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := os.WriteFile(name, gobEraRecord(t, key, e), 0o666); err != nil {
			t.Fatal(err)
		}
	}

	warm, s := build()
	if s.DiskHits != 0 || s.DiskErrors != int64(len(written)) {
		t.Errorf("gob-era directory: %d disk hits and %d disk errors, want 0 and %d", s.DiskHits, s.DiskErrors, len(written))
	}
	if err := core.VerifySameOutput(cold.Module, warm.Module); err != nil {
		t.Errorf("recompiled output differs from the build that wrote the directory: %v", err)
	}
	rewritten := records()
	if len(rewritten) != len(written) {
		t.Errorf("%d records after the rebuild, want %d", len(rewritten), len(written))
	}
	for name, data := range written {
		if !bytes.Equal(rewritten[name], data) {
			t.Errorf("%s: the gob-era file was not replaced by the original record", strings.TrimPrefix(name, dir))
		}
	}
}
