package engine

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/isa"
)

// TestPropRandomAffineStreams generates random affine descriptors, streams
// them through a full engine+hierarchy, and checks three invariants:
// the consumed element count matches the descriptor's exact sequence, every
// consumed lane equals the backing-memory value at the corresponding
// address, and chunks never cross a dimension-0 boundary.
func TestPropRandomAffineStreams(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		r := newRig(t, DefaultConfig())

		// Random geometry over a dedicated arena.
		widths := []arch.ElemWidth{arch.W4, arch.W8}
		w := widths[rng.Intn(len(widths))]
		arena := r.h.Mem.Alloc(1<<16, arch.LineSize)
		for i := 0; i < (1<<16)/8; i++ {
			r.h.Mem.Write(arena+uint64(8*i), arch.W8, rng.Uint64())
		}
		b := descriptor.New(arena, w, descriptor.Load)
		dims := 1 + rng.Intn(3)
		span := int64(1)
		for k := 0; k < dims; k++ {
			size := int64(1 + rng.Intn(20))
			stride := int64(rng.Intn(5))
			if k == 0 && stride == 0 {
				stride = 1
			}
			b.Dim(int64(rng.Intn(3)), size, stride)
			span = span*size + 64
		}
		if span*int64(w) >= 1<<15 {
			continue // keep patterns inside the arena
		}
		d, err := b.Build()
		if err != nil {
			continue
		}
		want := descriptor.Sequence(d, nil)

		r.configure(0, d)
		slot, _ := r.e.StreamFor(0)
		var consumed int64
		lanes := arch.LanesFor(DefaultConfig().VecBytes, w)
		for {
			v := r.consume(0)
			if !v.Consumed {
				break
			}
			if v.N > lanes {
				t.Fatalf("trial %d: chunk with %d lanes > %d", trial, v.N, lanes)
			}
			for l := 0; l < v.N; l++ {
				e := want[consumed+int64(l)]
				if got, exp := v.Data.Lane(l), r.h.Mem.Read(e.Addr, w); got != exp {
					t.Fatalf("trial %d (%s): elem %d lane %d = %#x, want mem[%#x]=%#x",
						trial, d, consumed+int64(l), l, got, e.Addr, exp)
				}
				// A dim-0 boundary inside a chunk (before its final lane)
				// violates the padding rule.
				if e.EndsDim(0) && l != v.N-1 {
					t.Fatalf("trial %d (%s): dim-0 boundary inside a chunk at elem %d",
						trial, d, consumed+int64(l))
				}
			}
			consumed += int64(v.N)
			r.e.CommitConsume(slot, v.Seq)
			if v.Last {
				break
			}
		}
		if consumed != int64(len(want)) {
			t.Fatalf("trial %d (%s): consumed %d elements, want %d", trial, d, consumed, len(want))
		}
	}
}

// TestPropConsumeUnconsumeFuzz interleaves speculative consumes, random
// rollbacks and commits; the committed element sequence must equal the
// descriptor's exact sequence regardless of the speculation pattern.
func TestPropConsumeUnconsumeFuzz(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		r := newRig(t, DefaultConfig())
		n := 64 + rng.Intn(256)
		base := r.h.Mem.Alloc(4*n, arch.LineSize)
		for i := 0; i < n; i++ {
			r.h.Mem.Write(base+uint64(4*i), arch.W4, uint64(i)*3+1)
		}
		d := descriptor.New(base, arch.W4, descriptor.Load).Linear(int64(n), 1).MustBuild()
		r.configure(0, d)
		slot, _ := r.e.StreamFor(0)

		type rec struct {
			v ChunkView
		}
		var spec []rec // consumed, uncommitted
		var committed []uint64
		deadline := 0
		for len(committed) < n && deadline < 200000 {
			deadline++
			switch rng.Intn(4) {
			case 0, 1: // consume
				if v, ok := r.e.ConsumeChunk(slot); ok && v.Consumed {
					spec = append(spec, rec{v})
				} else {
					r.tick()
				}
			case 2: // squash the youngest speculative consume
				if len(spec) > 0 {
					last := spec[len(spec)-1]
					spec = spec[:len(spec)-1]
					r.e.Unconsume(slot, last.v.PrevEnd, last.v.PrevLast)
				}
			case 3: // commit the oldest
				if len(spec) > 0 {
					oldest := spec[0]
					spec = spec[1:]
					r.e.CommitConsume(slot, oldest.v.Seq)
					for l := 0; l < oldest.v.N; l++ {
						committed = append(committed, oldest.v.Data.Lane(l))
					}
				} else {
					r.tick()
				}
			}
		}
		if len(committed) != n {
			t.Fatalf("trial %d: committed %d of %d elements", trial, len(committed), n)
		}
		for i, got := range committed {
			if want := uint64(i)*3 + 1; got != want {
				t.Fatalf("trial %d: committed[%d] = %d, want %d", trial, i, got, want)
			}
		}
	}
}

// TestPropStoreStreamRoundTrip drives random store patterns: writing
// ascending values through a store stream must land them at exactly the
// descriptor's addresses.
func TestPropStoreStreamRoundTrip(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(11000 + trial)))
		r := newRig(t, DefaultConfig())
		arena := r.h.Mem.Alloc(1<<14, arch.LineSize)
		rows := int64(1 + rng.Intn(8))
		rowLen := int64(1 + rng.Intn(40))
		stride := rowLen + int64(rng.Intn(8))
		d := descriptor.New(arena, arch.W4, descriptor.Store).
			Dim(0, rowLen, 1).
			Dim(0, rows, stride).
			MustBuild()
		want := descriptor.Addresses(d, nil)
		r.configure(0, d)
		slot, _ := r.e.StreamFor(0)
		var next uint64
		for {
			v, ok := r.e.ReserveStore(slot)
			if !ok {
				r.tick()
				continue
			}
			if !v.Consumed {
				break
			}
			lanes := make([]uint64, v.N)
			for l := range lanes {
				lanes[l] = next
				next++
			}
			r.e.WriteStoreData(slot, v.Seq, vecFromRaw(lanes))
			r.e.CommitStore(slot, v.Seq, r.now)
			if v.Last {
				break
			}
		}
		if next != uint64(len(want)) {
			t.Fatalf("trial %d: stored %d elements, want %d", trial, next, len(want))
		}
		for i, a := range want {
			if got := r.h.Mem.Read(a, arch.W4); got != uint64(i) {
				t.Fatalf("trial %d: mem[%#x] = %d, want %d", trial, a, got, i)
			}
		}
	}
}

func vecFromRaw(lanes []uint64) *isa.VecVal {
	v := isa.VecFrom(arch.W4, lanes)
	return &v
}
