package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/wire"
)

func key(s string) wire.Hash { return wire.Hash(sha256.Sum256([]byte(s))) }

// TestRoundTrip: Put then Get returns the exact payload; missing keys are
// misses, not errors.
func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := key("a")
	payload := []byte(`{"cycles": 123}`)
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get = (%v, %v, %v), want hit", got, ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get returned %q, want %q", got, payload)
	}
	if _, ok, err := s.Get(key("missing")); ok || err != nil {
		t.Fatalf("missing key: ok=%v err=%v, want clean miss", ok, err)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 put / 0 corrupt", st)
	}
}

// TestRestartPersistence: a second store over the same directory serves
// the first store's entries — the disk is the source of truth.
func TestRestartPersistence(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s1.Put(key(fmt.Sprint(i)), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		got, ok, err := s2.Get(key(fmt.Sprint(i)))
		if err != nil || !ok {
			t.Fatalf("entry %d lost across restart (ok=%v err=%v)", i, ok, err)
		}
		if want := fmt.Sprintf("payload-%d", i); string(got) != want {
			t.Fatalf("entry %d: got %q want %q", i, got, want)
		}
	}
	if n, err := s2.Len(); err != nil || n != 8 {
		t.Fatalf("Len = (%d, %v), want 8", n, err)
	}
}

// corruptEntry mutilates the on-disk file for key k in the given way.
func corruptEntry(t *testing.T, s *Store, k wire.Hash, mutate func([]byte) []byte) {
	t.Helper()
	p := s.path(k)
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, mutate(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// crashMutations are the ways a crash or bit rot can mangle an entry
// file. TestCrashSafety applies each to a committed entry, and
// FuzzDecodeEntry starts from them.
var crashMutations = []struct {
	name   string
	mutate func([]byte) []byte
}{
	{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
	{"bit-flip-payload", func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[len(c)-sha256.Size-2] ^= 0x40 // inside the payload
		return c
	}},
	{"bad-magic", func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[0] = 'X'
		return c
	}},
	{"empty", func([]byte) []byte { return nil }},
	// The header (magic, one-byte version, key), then a payload length of
	// 2^64-32+3 and 3 bytes: adding the digest size to that length wraps
	// it onto the 3 bytes that remain.
	{"wrapped-length", func(b []byte) []byte {
		c := append([]byte(nil), b[:len(magic)+1+len(wire.Hash{})]...)
		c = binary.AppendUvarint(c, math.MaxUint64-sha256.Size+1+3)
		return append(c, "abc"...)
	}},
}

// TestCrashSafety is the store's headline property: after a simulated
// crash leaves one entry torn, a restarted store rejects and quarantines
// exactly that entry (re-executing it is a Put away) while every other
// entry still hits.
func TestCrashSafety(t *testing.T) {
	for _, tc := range crashMutations {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s1, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			torn, intact := key("torn-"+tc.name), key("intact-"+tc.name)
			if err := s1.Put(torn, []byte("torn payload")); err != nil {
				t.Fatal(err)
			}
			if err := s1.Put(intact, []byte("intact payload")); err != nil {
				t.Fatal(err)
			}
			corruptEntry(t, s1, torn, tc.mutate)

			// "Restart": a fresh store over the same directory.
			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok, err := s2.Get(torn); ok || err != nil {
				t.Fatalf("torn entry: ok=%v err=%v, want clean miss", ok, err)
			}
			if st := s2.Stats(); st.Corrupt != 1 {
				t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
			}
			// The torn file is quarantined, not still in place.
			if _, err := os.Stat(s2.path(torn)); !os.IsNotExist(err) {
				t.Fatalf("torn entry still at its committed path (err=%v)", err)
			}
			if _, err := os.Stat(s2.path(torn) + corruptSuffix); err != nil {
				t.Fatalf("quarantined copy missing: %v", err)
			}
			// Re-execution re-commits under the same key and hits again.
			if err := s2.Put(torn, []byte("torn payload")); err != nil {
				t.Fatal(err)
			}
			got, ok, err := s2.Get(torn)
			if err != nil || !ok || string(got) != "torn payload" {
				t.Fatalf("re-put entry: (%q, %v, %v)", got, ok, err)
			}
			// The neighbour was never disturbed.
			got, ok, err = s2.Get(intact)
			if err != nil || !ok || string(got) != "intact payload" {
				t.Fatalf("intact entry: (%q, %v, %v)", got, ok, err)
			}
		})
	}
}

// TestWrongKeyFile: an entry copied under another key's file name fails
// the embedded-key check — content addressing is verified, not assumed.
func TestWrongKeyFile(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := key("a"), key("b")
	if err := s.Put(ka, []byte("payload a")); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(s.path(kb)), 0o755); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(s.path(ka))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(kb), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(kb); ok {
		t.Fatal("entry with mismatched embedded key served as a hit")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
	}
}

// TestConcurrentPutGet: racing writers and readers over a shared key set
// never observe torn state (run under -race in CI).
func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const keys = 8
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				k := key(fmt.Sprint(i % keys))
				want := []byte(fmt.Sprintf("payload-%d", i%keys))
				if err := s.Put(k, want); err != nil {
					t.Error(err)
					return
				}
				got, ok, err := s.Get(k)
				if err != nil || !ok || !bytes.Equal(got, want) {
					t.Errorf("worker %d: Get(%d) = (%q, %v, %v)", w, i%keys, got, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.Corrupt != 0 {
		t.Fatalf("concurrent access produced %d corrupt rejections", st.Corrupt)
	}
}

// FuzzDecodeEntry drives arbitrary bytes through the entry decoder. It
// must never panic, and whatever it accepts must decode again, to the
// same payload, from that payload's own encoding.
func FuzzDecodeEntry(f *testing.F) {
	k := key("fuzz")
	for _, payload := range [][]byte{nil, []byte("short payload"), bytes.Repeat([]byte{0xa5}, 1024)} {
		e := encodeEntry(k, payload)
		f.Add(e)
		for _, m := range crashMutations {
			f.Add(m.mutate(e))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		payload, err := decodeEntry(k, b)
		if err != nil {
			return
		}
		again, err := decodeEntry(k, encodeEntry(k, payload))
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload %q does not round-trip (got %q, err %v)", payload, again, err)
		}
	})
}
