package wire

import (
	"math"

	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/isa"
	"repro/internal/program"
)

// reader is a decoding stream over one blob: a position and
// bounds-checked, canonical-form reads that return plain values. A read
// that fails panics with a decodeError carrying an *Error positioned where
// decoding stopped; decode recovers that type and nothing else, so any
// other panic is still a crash the fuzzers see.
type reader struct {
	b   []byte
	pos int
}

// decodeError is the panic value of a failed read.
type decodeError struct{ err *Error }

// fail stops decoding with an error positioned at byte offset off.
func (r *reader) fail(off int, format string, args ...any) {
	panic(decodeError{&Error{Offset: off, PC: -1, Msg: sprintf(format, args...)}})
}

// decode runs body over a reader on b and returns the first failed read
// as its *Error. Every other panic propagates.
func decode[T any](b []byte, body func(*reader) (T, error)) (v T, err error) {
	defer func() {
		if x := recover(); x != nil {
			de, ok := x.(decodeError)
			if !ok {
				panic(x)
			}
			err = de.err
		}
	}()
	return body(&reader{b: b})
}

func (r *reader) remaining() int { return len(r.b) - r.pos }

func (r *reader) u8(what string) byte {
	if r.pos >= len(r.b) {
		r.fail(r.pos, "truncated %s", what)
	}
	b := r.b[r.pos]
	r.pos++
	return b
}

// uvarint reads a minimal-length unsigned LEB128 value. Padded encodings
// (a redundant trailing zero group) and runs past 64 bits are rejected:
// each value has exactly one valid byte string.
func (r *reader) uvarint(what string) uint64 {
	start := r.pos
	var x uint64
	var shift uint
	for i := 0; ; i++ {
		if r.pos >= len(r.b) {
			r.fail(start, "truncated %s varint", what)
		}
		b := r.b[r.pos]
		r.pos++
		if shift == 63 && b > 1 {
			r.fail(start, "%s varint overflows 64 bits", what)
		}
		x |= uint64(b&0x7f) << shift
		if b&0x80 == 0 {
			if b == 0 && i > 0 {
				r.fail(start, "non-minimal %s varint", what)
			}
			return x
		}
		shift += 7
		if shift > 63 {
			r.fail(start, "%s varint longer than 10 bytes", what)
		}
	}
}

// uvarintMax reads an unsigned varint and bounds it, so the value can be
// cast to a narrower type without silent truncation.
func (r *reader) uvarintMax(max uint64, what string) uint64 {
	start := r.pos
	v := r.uvarint(what)
	if v > max {
		r.fail(start, "%s %d out of range (max %d)", what, v, max)
	}
	return v
}

// int reads an unsigned varint bounded to MaxInt32, the range of every
// int-valued and enum field; range validation proper happens in the
// validate pass.
func (r *reader) int(what string) int { return int(r.uvarintMax(math.MaxInt32, what)) }

func (r *reader) varint(what string) int64 { return unzigzag(r.uvarint(what)) }

func (r *reader) str(what string) string {
	start := r.pos
	n := r.uvarint(what + " length")
	if n > uint64(r.remaining()) {
		r.fail(start, "%s length %d exceeds the %d remaining bytes", what, n, r.remaining())
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

// count reads an element count for entries of at least minEntry bytes and
// rejects counts the section cannot possibly hold, bounding allocations
// before any entry is parsed.
func (r *reader) count(minEntry int, what string) int {
	start := r.pos
	n := r.uvarint(what + " count")
	if n > uint64(r.remaining()/minEntry) {
		r.fail(start, "%s count %d exceeds section capacity", what, n)
	}
	return int(n)
}

// optional reads the entry count of an optional section. The encoder
// omits an empty one, so a present section with no entries would be a
// second encoding of the same value.
func (r *reader) optional(minEntry int, what string) int {
	n := r.count(minEntry, what)
	if n == 0 {
		r.fail(r.pos, "empty optional section (must be omitted)")
	}
	return n
}

// header checks the magic and the format version.
func (r *reader) header(magic string) {
	if len(r.b) < len(magic) {
		r.fail(0, "blob shorter than the %q magic", magic)
	}
	if string(r.b[:len(magic)]) != magic {
		r.fail(0, "bad magic %q, want %q", r.b[:len(magic)], magic)
	}
	r.pos = len(magic)
	if ver := r.uvarint("version"); ver != Version {
		r.fail(len(magic), "unsupported format version %d (this decoder reads %d)", ver, Version)
	}
}

// DecodeUnit parses a program blob, rejecting anything that is not the
// canonical encoding of a valid unit. On success,
// EncodeUnit(DecodeUnit(b)) reproduces b byte for byte.
func DecodeUnit(b []byte) (*Unit, error) {
	return decode(b, func(r *reader) (*Unit, error) {
		r.header(MagicProgram)
		nsec := r.uvarintMax(6, "section count")

		u := &Unit{}
		var insts []isa.Inst
		var instOffs []int
		var labels map[string]int
		name := ""
		var seen [secExtents + 1]bool
		prevID := byte(0)
		for s := uint64(0); s < nsec; s++ {
			idOff := r.pos
			id := r.u8("section id")
			if id <= prevID {
				r.fail(idOff, "section id %d not after section %d (ids must strictly increase)", id, prevID)
			}
			if id > secExtents {
				r.fail(idOff, "unknown section id %d", id)
			}
			prevID = id
			seen[id] = true
			lenOff := r.pos
			length := r.uvarint("section length")
			if length > uint64(r.remaining()) {
				r.fail(lenOff, "section %d length %d exceeds the %d remaining bytes", id, length, r.remaining())
			}
			// The sub-reader shares the blob's indexing, so its failures
			// report whole-blob offsets.
			end := r.pos + int(length)
			sub := &reader{b: r.b[:end], pos: r.pos}
			switch id {
			case secName:
				name = string(sub.b[sub.pos:end])
				sub.pos = end
			case secInsts:
				insts, instOffs = decodeInsts(sub)
			case secLabels:
				labels = decodeLabels(sub)
			case secIntArgs:
				u.IntArgs = decodeIntArgs(sub)
			case secFPArgs:
				u.FPArgs = decodeFPArgs(sub)
			case secExtents:
				u.Extents = decodeExtents(sub)
			}
			if sub.pos != end {
				r.fail(sub.pos, "section %d payload has %d unread bytes", id, end-sub.pos)
			}
			r.pos = end
		}
		for _, id := range [...]byte{secName, secInsts, secLabels} {
			if !seen[id] {
				r.fail(r.pos, "missing mandatory section %d", id)
			}
		}
		if r.pos != len(r.b) {
			r.fail(r.pos, "%d bytes of trailing garbage after the last section", len(r.b)-r.pos)
		}

		u.Prog = &program.Program{Name: name, Insts: insts, Labels: labels}
		pos := func(pc int) int {
			if pc >= 0 && pc < len(instOffs) {
				return instOffs[pc]
			}
			return -1
		}
		if err := validateUnit(u, pos); err != nil {
			return nil, err
		}
		return u, nil
	})
}

// DecodeProgram parses a program blob and returns the program alone.
func DecodeProgram(b []byte) (*program.Program, error) {
	u, err := DecodeUnit(b)
	if err != nil {
		return nil, err
	}
	return u.Prog, nil
}

// decodeInsts parses the instruction section and records each
// instruction's start offset for positioned validation errors.
func decodeInsts(r *reader) ([]isa.Inst, []int) {
	// The smallest instruction encoding is 11 bytes: opcode, five
	// registers, immediate, width, target, empty label and the
	// configuration-absent flag, one byte each.
	n := r.count(11, "instruction")
	insts := make([]isa.Inst, 0, n)
	offs := make([]int, 0, n)
	for pc := 0; pc < n; pc++ {
		offs = append(offs, r.pos)
		insts = append(insts, decodeInst(r))
	}
	return insts, offs
}

func decodeInst(r *reader) isa.Inst {
	var in isa.Inst
	in.Op = isa.Op(r.uvarintMax(math.MaxUint16, "opcode"))
	for _, dst := range [...]*isa.Reg{&in.Dst, &in.Src1, &in.Src2, &in.Src3, &in.Pred} {
		// class<<5 | n: five low bits of register number under the class.
		v := r.uvarintMax(uint64(isa.ClassPred)<<5|31, "register")
		*dst = isa.Reg{Class: isa.RegClass(v >> 5), N: uint8(v & 31)}
	}
	in.Imm = r.varint("immediate")
	in.W = arch.ElemWidth(r.int("element width"))
	in.Target = r.int("branch target")
	in.Label = r.str("label")
	flagOff := r.pos
	switch flag := r.u8("configuration flag"); flag {
	case 0:
	case 1:
		in.Cfg = decodeCfgPart(r)
	default:
		r.fail(flagOff, "configuration flag %d is neither 0 nor 1", flag)
	}
	return in
}

func decodeCfgPart(r *reader) *isa.StreamCfgPart {
	c := &isa.StreamCfgPart{}
	c.Stream = r.int("stream number")
	flagOff := r.pos
	flags := r.u8("part flags")
	if flags > 3 {
		r.fail(flagOff, "part flags %#x have bits beyond start/end set", flags)
	}
	c.Start = flags&1 != 0
	c.End = flags&2 != 0
	if c.Start {
		c.Kind = descriptor.Kind(r.int("stream kind"))
		c.Width = arch.ElemWidth(r.int("element width"))
		c.Level = arch.CacheLevel(r.int("cache level"))
		c.Base = r.uvarint("base address")
	}
	kindOff := r.pos
	switch kind := r.u8("part payload kind"); kind {
	case partDim:
		c.Dim = decodeDim(r)
	case partMod:
		c.Mod = decodeStaticMod(r)
	case partIndirect:
		c.Ind = decodeIndirectMod(r)
	default:
		r.fail(kindOff, "unknown part payload kind %d", kind)
	}
	return c
}

func decodeDim(r *reader) descriptor.Dim {
	var d descriptor.Dim
	d.Offset = r.varint("dim offset")
	d.Size = r.varint("dim size")
	d.Stride = r.varint("dim stride")
	return d
}

func decodeStaticMod(r *reader) *descriptor.StaticMod {
	m := &descriptor.StaticMod{}
	m.Bound = r.int("modifier bound")
	m.Target = descriptor.Target(r.int("modifier target"))
	m.Behav = descriptor.Behavior(r.int("modifier behavior"))
	m.Disp = r.varint("modifier displacement")
	m.Count = r.varint("modifier count")
	return m
}

func decodeIndirectMod(r *reader) *descriptor.IndirectMod {
	m := &descriptor.IndirectMod{}
	m.Bound = r.int("modifier bound")
	m.Target = descriptor.Target(r.int("modifier target"))
	m.Behav = descriptor.Behavior(r.int("modifier behavior"))
	m.Origin = r.int("origin stream")
	return m
}

// decodeLabels parses the label table, enforcing the canonical strict
// lexicographic order (which also rules out duplicates).
func decodeLabels(r *reader) map[string]int {
	// Smallest entry: one-byte name length, one name byte, one pc byte.
	n := r.count(3, "label")
	labels := make(map[string]int, n)
	prev := ""
	for i := 0; i < n; i++ {
		nameOff := r.pos
		name := r.str("label name")
		if i > 0 && name <= prev {
			r.fail(nameOff, "label %q not sorted after %q", name, prev)
		}
		prev = name
		labels[name] = r.int("label pc")
	}
	return labels
}

func decodeIntArgs(r *reader) []IntArg {
	n := r.optional(2, "int arg")
	args := make([]IntArg, 0, n)
	for i := 0; i < n; i++ {
		var a IntArg
		a.Reg = r.int("int arg register")
		a.Val = r.uvarint("int arg value")
		args = append(args, a)
	}
	return args
}

func decodeFPArgs(r *reader) []FPArg {
	n := r.optional(3, "fp arg")
	args := make([]FPArg, 0, n)
	for i := 0; i < n; i++ {
		var a FPArg
		a.Reg = r.int("fp arg register")
		a.Width = arch.ElemWidth(r.int("fp arg width"))
		a.Val = math.Float64frombits(r.uvarint("fp arg value"))
		args = append(args, a)
	}
	return args
}

func decodeExtents(r *reader) []Extent {
	n := r.optional(2, "extent")
	exts := make([]Extent, 0, n)
	for i := 0; i < n; i++ {
		var e Extent
		e.Base = r.uvarint("extent base")
		e.Size = r.varint("extent size")
		exts = append(exts, e)
	}
	return exts
}

// DecodeDescriptor parses a standalone descriptor blob.
func DecodeDescriptor(b []byte) (*descriptor.Descriptor, error) {
	return decode(b, func(r *reader) (*descriptor.Descriptor, error) {
		r.header(MagicDescriptor)
		d := &descriptor.Descriptor{}
		d.Kind = descriptor.Kind(r.int("stream kind"))
		d.Width = arch.ElemWidth(r.int("element width"))
		d.Level = arch.CacheLevel(r.int("cache level"))
		d.Base = r.uvarint("base address")
		ndims := r.count(3, "dimension")
		for i := 0; i < ndims; i++ {
			d.Dims = append(d.Dims, decodeDim(r))
		}
		nstatic := r.count(5, "static modifier")
		for i := 0; i < nstatic; i++ {
			d.Static = append(d.Static, *decodeStaticMod(r))
		}
		nind := r.count(4, "indirect modifier")
		for i := 0; i < nind; i++ {
			d.Indirect = append(d.Indirect, *decodeIndirectMod(r))
		}
		if r.pos != len(r.b) {
			r.fail(r.pos, "%d bytes of trailing garbage after the descriptor", len(r.b)-r.pos)
		}
		if err := validateDescriptor(d); err != nil {
			return nil, err
		}
		return d, nil
	})
}
