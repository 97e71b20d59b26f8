package fcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// recordCases are entries that exercise every field of the record: empty
// and long strings, negative and large integers, no warnings and several.
var recordCases = []struct {
	key string
	e   *ObjectEntry
}{
	{"obj:abc:default", &ObjectEntry{Name: "f", Section: 1, Lines: 12, ObjectBytes: []byte("hello object bytes")}},
	{"", &ObjectEntry{}},
	{"obj:e:nopipe", &ObjectEntry{Name: "main", Section: -3, IsEntry: true, Lines: 1 << 40,
		ObjectBytes: []byte{0, 1, 2, 255}, Warnings: []string{"w.w2:3:1: warning: unused", "", "second"}}},
	{strings.Repeat("k", 4096), &ObjectEntry{Name: strings.Repeat("n", 300), ObjectBytes: bytes.Repeat([]byte{0xAA}, 1<<16)}},
}

// sameEntry compares the persisted fields of two entries.
func sameEntry(a, b *ObjectEntry) bool {
	return a.Name == b.Name && a.Section == b.Section && a.IsEntry == b.IsEntry && a.Lines == b.Lines &&
		bytes.Equal(a.ObjectBytes, b.ObjectBytes) && slices.Equal(a.Warnings, b.Warnings)
}

func TestRecordRoundTrip(t *testing.T) {
	for _, tc := range recordCases {
		data := EncodeEntry(tc.key, tc.e)
		got, err := DecodeEntry(tc.key, data)
		if err != nil {
			t.Fatalf("DecodeEntry(%.20q): %v", tc.key, err)
		}
		if !sameEntry(got, tc.e) {
			t.Errorf("key %.20q: decoded %+v, want %+v", tc.key, got, tc.e)
		}
		if again := EncodeEntry(tc.key, got); !bytes.Equal(again, data) {
			t.Errorf("key %.20q: the decoded entry re-encodes to different bytes", tc.key)
		}
	}
}

// TestRecordDetectsCorruption: the checksum covers every byte of the
// record, so every single-byte change at every position is rejected.
func TestRecordDetectsCorruption(t *testing.T) {
	tc := recordCases[2]
	data := EncodeEntry(tc.key, tc.e)
	for i := range data {
		for flip := 1; flip < 256; flip++ {
			bad := bytes.Clone(data)
			bad[i] ^= byte(flip)
			if _, err := DecodeEntry(tc.key, bad); err == nil {
				t.Fatalf("byte %d xor %#x accepted", i, flip)
			}
		}
	}
}

func TestRecordDetectsTruncation(t *testing.T) {
	tc := recordCases[2]
	data := EncodeEntry(tc.key, tc.e)
	for n := range data {
		if _, err := DecodeEntry(tc.key, data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(data))
		}
	}
	if _, err := DecodeEntry(tc.key, append(bytes.Clone(data), 0)); err == nil {
		t.Fatal("a trailing byte was accepted")
	}
}

// TestRecordRejectsWrongKey: an intact record stored under one key does not
// answer a lookup of another, so a filename collision or a record copied
// under another name is a miss.
func TestRecordRejectsWrongKey(t *testing.T) {
	data := EncodeEntry("obj:other:default", &ObjectEntry{Name: "x"})
	if _, err := DecodeEntry("obj:other:default", data); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"obj:mine:default", "obj:other:defaul", ""} {
		if _, err := DecodeEntry(key, data); err == nil {
			t.Errorf("record for obj:other:default accepted under %q", key)
		}
	}
}

// TestRecordRejectsOverlongLengths: with the checksum recomputed, as a
// hostile writer would, a length prefix or warning count larger than the
// bytes left is still rejected, and without allocating for it.
func TestRecordRejectsOverlongLengths(t *testing.T) {
	for _, tc := range recordCases {
		data := EncodeEntry(tc.key, tc.e)
		for _, off := range LengthPrefixOffsets(tc.key, tc.e) {
			left := len(data) - sha256.Size - off - 4
			for _, n := range []uint32{uint32(left) + 1, 1<<32 - 1} {
				bad := bytes.Clone(data)
				binary.LittleEndian.PutUint32(bad[off:], n)
				Resum(bad)
				if _, err := DecodeEntry(tc.key, bad); err == nil {
					t.Errorf("key %.20q: length %d at offset %d (%d bytes left) accepted", tc.key, n, off, left)
				}
			}
		}
	}
}

func TestKeyDigestMatchesDiskName(t *testing.T) {
	key := "obj:deadbeef:default"
	want := sha256.Sum256([]byte(key))
	if got := KeyDigest(key); got != want {
		t.Fatalf("KeyDigest = %x, want %x", got, want)
	}
	if name, wantName := diskFileName(key), "o-"+hex.EncodeToString(want[:])+".wfc"; name != wantName {
		t.Fatalf("diskFileName(%q) = %q, want %q", key, name, wantName)
	}
}

func TestAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := atomicWrite(dir, path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := atomicWrite(dir, path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Fatalf("content = %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}
