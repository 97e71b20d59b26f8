package fcache

import (
	"crypto/sha256"
	"encoding/binary"
)

// Resum recomputes a record's trailing checksum in place, as a writer who
// knows the layout and means harm would, so the field checks behind the
// checksum can be tested on their own.
func Resum(rec []byte) {
	if len(rec) < len(recordMagic)+sha256.Size {
		return
	}
	sum := sha256.Sum256(rec[:len(rec)-sha256.Size])
	copy(rec[len(rec)-sha256.Size:], sum[:])
}

// LengthPrefixOffsets lists the offsets in EncodeEntry(key, e) of every
// uint32 length prefix and of the warning count, in record order.
func LengthPrefixOffsets(key string, e *ObjectEntry) []int {
	off := len(recordMagic)
	offs := []int{off}
	off += 4 + len(key)
	offs = append(offs, off)
	off += 4 + len(e.Name) + 8 + 8 + 1
	offs = append(offs, off)
	off += 4
	for _, w := range e.Warnings {
		offs = append(offs, off)
		off += 4 + len(w)
	}
	return append(offs, off)
}

// StoredKey returns the key a record names, without verifying the record.
func StoredKey(rec []byte) string {
	key := rec[len(recordMagic)+4:]
	return string(key[:binary.LittleEndian.Uint32(rec[len(recordMagic):])])
}
