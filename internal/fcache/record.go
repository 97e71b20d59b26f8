package fcache

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
)

// The object record is the one byte form of a finished function (an
// ObjectEntry): the disk tier's file contents. The record binds the entry
// to the full cache key it was stored under and ends in a checksum over
// every byte before it, so a filename collision, a torn write or a flipped
// bit is rejected before any field is trusted, and degrades to a cache miss
// instead of poisoning a compilation.
//
// Layout (integers little-endian, every length a uint32 byte count):
//
//	"W2E1"
//	len key, key
//	len Name, Name
//	Section int64, Lines int64, IsEntry byte (0 or 1)
//	count Warnings, then len w, w for each warning
//	len ObjectBytes, ObjectBytes
//	SHA-256 of everything above
//
// A file in any other layout, including the gob records of older binaries,
// fails the magic check and is handled like any other corrupt entry.
const recordMagic = "W2E1"

// EncodeEntry writes e as the record stored under key, in one allocation.
func EncodeEntry(key string, e *ObjectEntry) []byte {
	n := len(recordMagic) + 4 + len(key) + 4 + len(e.Name) + 8 + 8 + 1 + 4 + 4 + len(e.ObjectBytes) + sha256.Size
	for _, w := range e.Warnings {
		n += 4 + len(w)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, recordMagic...)
	buf = appendBytes(buf, key)
	buf = appendBytes(buf, e.Name)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Section))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Lines))
	if e.IsEntry {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Warnings)))
	for _, w := range e.Warnings {
		buf = appendBytes(buf, w)
	}
	buf = appendBytes(buf, e.ObjectBytes)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

func appendBytes[T string | []byte](buf []byte, b T) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// DecodeEntry reads a record written by EncodeEntry and returns its entry,
// provided the record is intact and was stored under key. Every length
// prefix is checked against the bytes left before anything is allocated
// for it. The entry's ObjectBytes alias data, which the caller must not
// modify afterwards.
func DecodeEntry(key string, data []byte) (*ObjectEntry, error) {
	end := len(data) - sha256.Size
	if end < len(recordMagic) || string(data[:len(recordMagic)]) != recordMagic {
		return nil, errors.New("fcache: not an object record")
	}
	if sha256.Sum256(data[:end]) != [sha256.Size]byte(data[end:]) {
		return nil, errors.New("fcache: record checksum mismatch")
	}
	rest, bad := data[len(recordMagic):end], false
	next := func(n uint64) []byte {
		if bad || n > uint64(len(rest)) {
			bad = true
			return nil
		}
		b := rest[:n:n]
		rest = rest[n:]
		return b
	}
	num := func(width uint64) (v uint64) { // little-endian
		for i, c := range next(width) {
			v |= uint64(c) << (8 * i)
		}
		return v
	}
	field := func() []byte { return next(num(4)) }

	if string(field()) != key {
		return nil, fmt.Errorf("fcache: record is not stored under %q", key)
	}
	e := &ObjectEntry{Name: string(field()), Section: int(num(8)), Lines: int(num(8))}
	flag := num(1)
	e.IsEntry = flag == 1
	// A warning takes at least its 4-byte length, so a count beyond the
	// bytes left is rejected before the slice is made.
	if nw := num(4); nw > uint64(len(rest)/4) {
		bad = true
	} else if nw > 0 {
		e.Warnings = make([]string, nw)
		for i := range e.Warnings {
			e.Warnings[i] = string(field())
		}
	}
	e.ObjectBytes = field()
	if bad || flag > 1 || len(rest) != 0 {
		return nil, errors.New("fcache: malformed object record")
	}
	return e, nil
}

// KeyDigest is the content address of a cache key itself: the SHA-256 the
// disk tier derives filenames from.
func KeyDigest(key string) [sha256.Size]byte {
	return sha256.Sum256([]byte(key))
}

// atomicWrite writes data to path via an os.CreateTemp("tmp-*") file in dir
// and an atomic rename, so concurrent readers only ever observe complete
// records; a crash mid-write leaves a tmp-* leftover that openDiskTier
// removes. dir must be the directory containing path.
func atomicWrite(dir, path string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
