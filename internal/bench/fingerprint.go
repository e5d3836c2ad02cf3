package bench

import (
	"crypto/sha256"
	"fmt"
	"io"

	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/wire"
)

// FingerprintJob returns the job's content-addressed identity: the SHA-256
// digest of the built program's canonical wire encoding (instructions,
// argument registers, buffer extents), the initial content of every
// allocated extent (the kernel's input data), configHash of the resolved
// variant, size and options — the hash the in-process memo key uses too —
// and the kernel ID, which the stored report names. A kernel's name is not
// an input: a name and its ID resolve to one ID, so aliases share an entry.
// A binary whose kernel builds different input data, or renames an ID,
// therefore misses instead of serving another binary's stored report.
//
// Building the program is required to hash it; the build is hermetic
// (fresh hierarchy) and discarded, so FingerprintJob never perturbs the
// runner's memo table. A size of 0 resolves to the kernel's DefaultSize,
// matching what execution would run.
func FingerprintJob(j Job) (wire.Hash, error) {
	o := j.options()
	size := j.Size
	if size == 0 && j.Kernel != nil {
		size = j.Kernel.DefaultSize
	}
	h := mem.NewHierarchy(o.Hier)
	var inst *kernels.Instance
	if j.Build != nil {
		inst = j.Build(h)
	} else if j.Kernel != nil {
		inst = j.Kernel.Build(h, j.Variant, size)
	} else {
		return wire.Hash{}, fmt.Errorf("bench: fingerprint: job has neither Kernel nor Build")
	}
	if inst.Err != nil {
		return wire.Hash{}, fmt.Errorf("bench: fingerprint: %s/%s n=%d: %w", j.id(), j.Variant, size, inst.Err)
	}
	extents := h.Mem.Extents()
	unitBytes, err := wire.EncodeUnit(kernels.UnitOf(inst, extents))
	if err != nil {
		return wire.Hash{}, fmt.Errorf("bench: fingerprint: %s/%s n=%d: %w", j.id(), j.Variant, size, err)
	}
	cfg := configHash(j.Variant, size, o)

	// The unit fixes every extent's size, and the config digest has a fixed
	// length, so the parts need no framing.
	d := sha256.New()
	d.Write(unitBytes)
	for _, e := range extents {
		d.Write(h.Mem.Bytes(e))
	}
	d.Write(cfg[:])
	io.WriteString(d, j.id())
	var out wire.Hash
	d.Sum(out[:0])
	return out, nil
}
