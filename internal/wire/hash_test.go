// Hashing property tests. External test package like corpus_test.go, so
// the unit-hash properties can range over the full kernel corpus.
package wire_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/wire"
)

// TestHashConfigDeterministic: equal values hash equal; the domain string
// namespaces otherwise-identical values; field changes change the hash.
func TestHashConfigDeterministic(t *testing.T) {
	type cfg struct {
		A int
		B string
		M map[string]int
		P *arch.CacheLevel
	}
	mk := func() cfg {
		return cfg{A: 7, B: "x", M: map[string]int{"k1": 1, "k2": 2, "k3": 3}}
	}
	h1, err := wire.HashConfig("d", mk())
	if err != nil {
		t.Fatal(err)
	}
	h2, err := wire.HashConfig("d", mk())
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("equal values hashed differently")
	}
	if hd, _ := wire.HashConfig("other", mk()); hd == h1 {
		t.Fatal("domain string did not separate digests")
	}
	c := mk()
	c.A = 8
	if hc, _ := wire.HashConfig("d", c); hc == h1 {
		t.Fatal("field change did not change the hash")
	}
	lv := arch.LevelL2
	c = mk()
	c.P = &lv
	hp, err := wire.HashConfig("d", c)
	if err != nil {
		t.Fatal(err)
	}
	if hp == h1 {
		t.Fatal("nil pointer and set pointer hashed equal")
	}
	lv2 := arch.LevelL2
	c2 := mk()
	c2.P = &lv2
	if hp2, _ := wire.HashConfig("d", c2); hp2 != hp {
		t.Fatal("pointer identity leaked into the hash: equal pointees hashed differently")
	}
}

// TestHashConfigRejectsFuncs: values that cannot be canonically encoded
// are an error, not a silent pointer hash.
func TestHashConfigRejectsFuncs(t *testing.T) {
	type bad struct{ F func() }
	if _, err := wire.HashConfig("d", bad{F: func() {}}); err == nil {
		t.Fatal("func-valued field hashed without error")
	}
	type iface struct{ I any }
	if _, err := wire.HashConfig("d", iface{I: 3}); err == nil {
		t.Fatal("non-nil interface field hashed without error")
	}
	if _, err := wire.HashConfig("d", iface{}); err != nil {
		t.Fatalf("nil interface field should hash as nil: %v", err)
	}
}

// TestEncodeUnitDistinguishesCorpus: every corpus entry encodes to
// distinct bytes — programs, argument registers and extents all
// participate — and a digest renders as 64 hex digits.
func TestEncodeUnitDistinguishesCorpus(t *testing.T) {
	seen := make(map[string]string)
	for _, e := range corpus(t) {
		b, err := wire.EncodeUnit(e.Unit())
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if prev, dup := seen[string(b)]; dup {
			t.Fatalf("%s and %s encode equal", prev, e.Name())
		}
		seen[string(b)] = e.Name()
	}
	if s := (wire.Hash{0xab}).String(); len(s) != 64 || s[:2] != "ab" {
		t.Fatalf("digest renders as %q, want 64 hex digits", s)
	}
}
