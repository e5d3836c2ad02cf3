package bench

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/wire"
)

// FingerprintJob returns the job's content-addressed identity: the SHA-256
// digest of the built program's canonical wire encoding (instructions,
// argument registers, buffer extents) concatenated with configHash of the
// resolved variant, size and options — the hash the in-process memo key
// uses too. The kernel's *name* is not an input — two jobs that build
// byte-identical programs under equal configurations fingerprint equal,
// which is exactly the key the persistent result store wants: results
// survive kernel renames and deduplicate aliases.
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
	unitBytes, err := wire.EncodeUnit(kernels.UnitOf(inst, h.Mem.Extents()))
	if err != nil {
		return wire.Hash{}, fmt.Errorf("bench: fingerprint: %s/%s n=%d: %w", j.id(), j.Variant, size, err)
	}
	cfg := configHash(j.Variant, size, o)

	d := sha256.New()
	d.Write(unitBytes)
	d.Write(cfg[:])
	var out wire.Hash
	d.Sum(out[:0])
	return out, nil
}
