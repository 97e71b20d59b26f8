package fcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"os"
)

// Checksummed record framing, shared by everything that persists or ships a
// cache artifact as one opaque blob: the disk tier's object files (disk.go)
// and the peer-cache fetch replies (internal/peercache). A record binds a
// payload to the full cache key it was stored under and carries a checksum
// over both, so a filename collision, a misaddressed fetch reply, or a
// flipped bit is detected as corruption at the frame — before any payload
// bytes are interpreted — and degrades to a cache miss instead of
// poisoning a compilation.
//
// The frame is a gob-encoded diskRecord{Key, Payload, Sum} with
// Sum = SHA-256(Key || Payload). The name predates the peer protocol: the
// same frame now travels the wire unchanged, which is exactly the point —
// a peer reply is verified with the same code that verifies a disk read.
type diskRecord struct {
	Key     string
	Payload []byte
	Sum     [sha256.Size]byte
}

// recordSum computes the frame checksum binding key and payload.
func recordSum(key string, payload []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(key))
	h.Write(payload)
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// EncodeRecord frames payload under key: the returned bytes decode with
// DecodeRecord on any process (or host) and fail loudly if damaged.
func EncodeRecord(key string, payload []byte) ([]byte, error) {
	rec := diskRecord{Key: key, Payload: payload}
	rec.Sum = recordSum(rec.Key, rec.Payload)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&rec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeRecord verifies a frame produced by EncodeRecord and returns the
// key it was stored under and the payload. Any mismatch — undecodable gob,
// checksum failure — is an error; the caller must additionally check that
// the returned key is the one it asked for (a valid record can still answer
// the wrong question, e.g. after a filename collision).
func DecodeRecord(data []byte) (key string, payload []byte, err error) {
	var rec diskRecord
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&rec); err != nil {
		return "", nil, fmt.Errorf("fcache: undecodable record: %v", err)
	}
	if rec.Sum != recordSum(rec.Key, rec.Payload) {
		return "", nil, fmt.Errorf("fcache: record checksum mismatch for key %q", rec.Key)
	}
	return rec.Key, rec.Payload, nil
}

// KeyDigest is the content address of a cache key itself: the SHA-256 the
// disk tier derives filenames from and the peer protocol summarizes in
// Bloom filters. Both sides computing it from the key alone is what lets a
// peer test membership against a remote summary without shipping key lists.
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
