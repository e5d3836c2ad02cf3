// Package store is the persistent, content-addressed result store behind
// uveserve. Entries are keyed by wire.Hash — the SHA-256 of a job's
// canonical program encoding plus its canonical machine/sim configuration
// (bench.FingerprintJob) — so a key names a simulation's *content*, never
// a kernel's name or a process's pointers, and results written by one
// daemon are valid for every future one.
//
// On disk, an entry lives at <root>/<hh>/<hex64>.uvesr (hh = the key's
// first hex byte, sharding directories the way git's object store does):
//
//	magic "UVES" | version uvarint | key 32B | payload-len uvarint |
//	payload | SHA-256(payload) 32B
//
// Entries are written to a temp file in the same directory and atomically
// renamed into place, so a crash can leave a torn temp file but never a
// torn entry under its final name. Reads re-verify everything anyway —
// magic, version, embedded key, length, payload digest — and a file that
// fails any check is quarantined (renamed aside with a .corrupt suffix)
// and reported as a miss, so one torn or bit-rotted entry re-executes
// exactly one simulation and can never poison its neighbours.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/wire"
)

const (
	magic   = "UVES"
	version = 1
	// entrySuffix names committed entries; quarantined files get
	// corruptSuffix appended so they are never read as entries again.
	entrySuffix   = ".uvesr"
	corruptSuffix = ".corrupt"
)

// Stats counts store traffic since Open.
type Stats struct {
	Hits    int `json:"hits"`    // Get found a valid entry
	Misses  int `json:"misses"`  // Get found nothing
	Puts    int `json:"puts"`    // entries committed
	Corrupt int `json:"corrupt"` // entries rejected and quarantined on Get
}

// Store is a content-addressed entry store rooted at one directory.
// All methods are safe for concurrent use; on-disk atomicity comes from
// write-then-rename, in-memory consistency from a counter mutex.
type Store struct {
	root string

	mu    sync.Mutex
	stats Stats
}

// Open roots a store at dir, creating it if needed. Existing entries are
// not scanned — validation happens per-entry on Get, which is what lets a
// store with one torn entry open instantly and heal lazily.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Store{root: dir}, nil
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// path returns an entry's final on-disk location.
func (s *Store) path(key wire.Hash) string {
	hex := key.String()
	return filepath.Join(s.root, hex[:2], hex+entrySuffix)
}

// encodeEntry renders the versioned on-disk form.
func encodeEntry(key wire.Hash, payload []byte) []byte {
	out := make([]byte, 0, len(magic)+1+len(key)+binary.MaxVarintLen64+len(payload)+sha256.Size)
	out = append(out, magic...)
	out = binary.AppendUvarint(out, version)
	out = append(out, key[:]...)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = append(out, payload...)
	sum := sha256.Sum256(payload)
	return append(out, sum[:]...)
}

// decodeEntry validates every field of an on-disk entry and returns its
// payload. Any deviation — short file, wrong magic or version, embedded
// key mismatch, length mismatch, digest mismatch, trailing bytes — is an
// error; the caller treats all of them as corruption.
func decodeEntry(key wire.Hash, b []byte) ([]byte, error) {
	if len(b) < len(magic) || string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("bad magic")
	}
	b = b[len(magic):]
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("truncated version")
	}
	if v != version {
		return nil, fmt.Errorf("unsupported version %d", v)
	}
	b = b[n:]
	if len(b) < len(key) {
		return nil, fmt.Errorf("truncated key")
	}
	var k wire.Hash
	copy(k[:], b)
	if k != key {
		return nil, fmt.Errorf("embedded key %s does not match file name", k)
	}
	b = b[len(key):]
	plen, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("truncated payload length")
	}
	b = b[n:]
	// Compare against the bytes that remain, never plen+sha256.Size: a
	// length near 2^64 would wrap that sum onto a short file's size.
	if len(b) < sha256.Size || plen != uint64(len(b)-sha256.Size) {
		return nil, fmt.Errorf("payload length %d does not match file size", plen)
	}
	payload := b[:plen]
	var want [sha256.Size]byte
	copy(want[:], b[plen:])
	if sha256.Sum256(payload) != want {
		return nil, fmt.Errorf("payload digest mismatch")
	}
	return payload, nil
}

// Get returns the payload stored under key. A missing entry is
// (nil, false, nil); a corrupt one is quarantined, counted, and reported
// as a miss so the caller simply re-executes. Only environmental failures
// (permissions, I/O errors) surface as errors.
func (s *Store) Get(key wire.Hash) ([]byte, bool, error) {
	p := s.path(key)
	b, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: get %s: %w", key, err)
	}
	payload, derr := decodeEntry(key, b)
	if derr != nil {
		// Quarantine, never delete: the bytes stay around for post-mortem,
		// but under a name Get will not read again.
		_ = os.Rename(p, p+corruptSuffix)
		s.count(func(st *Stats) { st.Corrupt++; st.Misses++ })
		return nil, false, nil
	}
	s.count(func(st *Stats) { st.Hits++ })
	return payload, true, nil
}

// Put commits payload under key: temp file in the entry's own shard
// directory, then atomic rename. Re-putting an existing key rewrites it
// (the content-addressed invariant makes both bodies identical anyway).
func (s *Store) Put(key wire.Hash, payload []byte) error {
	p := s.path(key)
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(encodeEntry(key, payload)); err != nil {
		tmp.Close()
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	s.count(func(st *Stats) { st.Puts++ })
	return nil
}

// Len walks the store and counts committed entries (quarantined and temp
// files excluded). It is an audit helper, not a hot path.
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(s.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == entrySuffix {
			n++
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("store: len: %w", err)
	}
	return n, nil
}

func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}
