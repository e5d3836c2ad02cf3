package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/descriptor"
	"repro/internal/isa"
	"repro/internal/program"
)

// testUnit builds a unit exercising every wire feature at once: labels
// (two on one pc), branches, a multi-part stream configuration with a
// static and an indirect modifier, and all three context sections.
func testUnit(t *testing.T) *Unit {
	t.Helper()
	d := descriptor.New(0x1000, arch.W4, descriptor.Load).
		Dim(0, 8, 1).
		Dim(2, 4, 8).
		Mod(descriptor.TargetOffset, descriptor.Add, 3, 5).
		Indirect(descriptor.TargetSize, descriptor.SetValue, 2).
		MustBuild()
	p, err := program.NewBuilder("wire-test").
		Label("top").
		Label("also-top").
		ConfigStream(1, d).
		I(isa.Li(isa.X(1), -42)).
		Label("loop").
		I(isa.AddI(isa.X(1), isa.X(1), 1)).
		I(isa.Blt(isa.X(1), isa.X(2), "loop")).
		I(isa.Halt()).
		Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return &Unit{
		Prog:    p,
		IntArgs: []IntArg{{Reg: 2, Val: 96}, {Reg: 10, Val: 0x2000}},
		FPArgs:  []FPArg{{Reg: 0, Width: arch.W4, Val: 2.5}, {Reg: 3, Width: arch.W8, Val: -1.0}},
		Extents: []Extent{{Base: 0x1000, Size: 4096}, {Base: 0x2000, Size: 64}},
	}
}

func mustEncode(t *testing.T, u *Unit) []byte {
	t.Helper()
	b, err := EncodeUnit(u)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b
}

func TestUnitRoundTrip(t *testing.T) {
	u := testUnit(t)
	b := mustEncode(t, u)
	b2 := mustEncode(t, u)
	if !bytes.Equal(b, b2) {
		t.Fatal("two encodings of the same unit differ")
	}
	got, err := DecodeUnit(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, u) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, u)
	}
	b3, err := EncodeUnit(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(b, b3) {
		t.Fatal("Encode(Decode(b)) differs from b")
	}
}

func TestProgramRoundTripBare(t *testing.T) {
	u := testUnit(t)
	b, err := EncodeProgram(u.Prog)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	p, err := DecodeProgram(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(p, u.Prog) {
		t.Fatalf("program mismatch:\ngot  %+v\nwant %+v", p, u.Prog)
	}
	if p.String() != u.Prog.String() {
		t.Fatal("decoded program renders differently")
	}
}

// TestBranchTargetAtEndAccepted pins the boundary of the branch-target
// range check: target == len(insts) is the implicit halt at program end
// (lint's CFG treats it as exit) and must decode.
func TestBranchTargetAtEndAccepted(t *testing.T) {
	p := &program.Program{
		Name:   "end-branch",
		Insts:  []isa.Inst{{Op: isa.OpJ, Target: 1}},
		Labels: map[string]int{},
	}
	b, err := EncodeProgram(p)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := DecodeProgram(b); err != nil {
		t.Fatalf("target == len must be accepted (implicit halt): %v", err)
	}
}

// TestBranchTargetPastEndRejected is the negative-corpus case for the
// decode-time branch-range check: Program.At would silently mask a corrupt
// target as a halt, so the decoder must catch it with a positioned error.
func TestBranchTargetPastEndRejected(t *testing.T) {
	p := &program.Program{
		Name:   "t",
		Insts:  []isa.Inst{{Op: isa.OpJ, Target: 1}},
		Labels: map[string]int{},
	}
	b, err := EncodeProgram(p)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// The j instruction's tail is target, label length, cfg flag — one byte
	// each — followed by the labels section (id, length 1, count 0).
	ti := len(b) - 6
	if b[ti] != 1 {
		t.Fatalf("blob layout changed: byte %d = %#x, want the target byte 0x01", ti, b[ti])
	}
	b[ti] = 9
	_, err = DecodeProgram(b)
	if err == nil {
		t.Fatal("corrupt branch target decoded without error")
	}
	var werr *Error
	if !errors.As(err, &werr) {
		t.Fatalf("error type %T, want *wire.Error", err)
	}
	if werr.PC != 0 || werr.Op != "j" || werr.Offset < 0 {
		t.Fatalf("error not anchored to the branch: %+v", werr)
	}
	if want := "branch target 9 past the end of the 1-inst program"; !strings.Contains(werr.Msg, want) {
		t.Fatalf("message %q missing %q", werr.Msg, want)
	}
}

// --- hand-assembled blobs for byte-level negative cases ---

func sec(id byte, payload []byte) []byte {
	out := []byte{id}
	out = appendUvarint(out, uint64(len(payload)))
	return append(out, payload...)
}

func rawBlob(secs ...[]byte) []byte {
	out := append([]byte(nil), MagicProgram...)
	out = appendUvarint(out, Version)
	out = appendUvarint(out, uint64(len(secs)))
	for _, s := range secs {
		out = append(out, s...)
	}
	return out
}

func instsPayload(insts ...isa.Inst) []byte {
	var b []byte
	b = appendUvarint(b, uint64(len(insts)))
	for i := range insts {
		b = appendInst(b, &insts[i])
	}
	return b
}

func labelsPayload(pairs ...any) []byte {
	b := appendUvarint(nil, uint64(len(pairs)/2))
	for i := 0; i < len(pairs); i += 2 {
		b = appendString(b, pairs[i].(string))
		b = appendUvarint(b, uint64(pairs[i+1].(int)))
	}
	return b
}

func minimalSecs() (name, insts, labels []byte) {
	return []byte("t"), instsPayload(isa.Halt()), appendUvarint(nil, 0)
}

func TestDecodeRejects(t *testing.T) {
	name, insts, labels := minimalSecs()
	valid := rawBlob(sec(secName, name), sec(secInsts, insts), sec(secLabels, labels))
	if _, err := DecodeUnit(valid); err != nil {
		t.Fatalf("baseline blob must decode: %v", err)
	}

	scfg := isa.SCfgParts(1, descriptor.New(0x100, arch.W4, descriptor.Load).Dim(0, 8, 1).MustBuild())

	cases := []struct {
		name string
		blob []byte
		want string
	}{
		{"empty blob", nil, `wire: offset 0x0: error: blob shorter than the "UVEW" magic`},
		{"short blob", []byte("UV"), `wire: offset 0x0: error: blob shorter than the "UVEW" magic`},
		{"bad magic", append([]byte("XXXX"), valid[4:]...), `wire: offset 0x0: error: bad magic "XXXX", want "UVEW"`},
		{"descriptor magic on a program", append([]byte(MagicDescriptor), valid[4:]...), `wire: offset 0x0: error: bad magic "UVED", want "UVEW"`},
		{"future version", append(append([]byte(MagicProgram), 2), valid[5:]...), `wire: offset 0x4: error: unsupported format version 2 (this decoder reads 1)`},
		{"padded version varint", append(append([]byte(MagicProgram), 0x81, 0x00), valid[5:]...), `wire: offset 0x4: error: non-minimal version varint`},
		{"trailing garbage", append(append([]byte(nil), valid...), 0), `wire: offset 0x1a: error: 1 bytes of trailing garbage after the last section`},
		{"unknown section id", rawBlob(sec(secName, name), sec(secInsts, insts), sec(secLabels, labels), sec(7, nil)), `wire: offset 0x1a: error: unknown section id 7`},
		{"duplicate section id", rawBlob(sec(secName, name), sec(secName, name)), `wire: offset 0x9: error: section id 1 not after section 1 (ids must strictly increase)`},
		{"decreasing section ids", rawBlob(sec(secInsts, insts), sec(secName, name)), `wire: offset 0x14: error: section id 1 not after section 2 (ids must strictly increase)`},
		{"missing mandatory section", rawBlob(sec(secName, name), sec(secInsts, insts)), `wire: offset 0x17: error: missing mandatory section 3`},
		{"section length overrun", append(append([]byte(nil), valid[:len(valid)-len(labels)-2]...), secLabels, 100), `wire: offset 0x18: error: section 3 length 100 exceeds the 0 remaining bytes`},
		{"section payload underread", rawBlob(sec(secName, name), sec(secInsts, insts), sec(secLabels, append(appendUvarint(nil, 0), 0xff))), `wire: offset 0x1a: error: section 3 payload has 1 unread bytes`},
		{"inst count over capacity", rawBlob(sec(secName, name), sec(secInsts, appendUvarint(nil, 1000)), sec(secLabels, labels)), `wire: offset 0xb: error: instruction count 1000 exceeds section capacity`},
		{"invalid opcode", rawBlob(sec(secName, name), sec(secInsts, append(appendUvarint(nil, 1), make([]byte, 11)...)), sec(secLabels, labels)), `wire: offset 0xc: inst 0: error: invalid opcode 0`},
		{"label on non-branch", rawBlob(sec(secName, name), sec(secInsts, instsPayload(isa.Inst{Op: isa.OpHalt, Label: "x"})), sec(secLabels, labelsPayload("x", 0))), `wire: offset 0xc: inst 0: error: label "x" on a non-branch instruction [halt]`},
		{"branch label unresolved", rawBlob(sec(secName, name), sec(secInsts, instsPayload(isa.Inst{Op: isa.OpJ, Label: "gone"})), sec(secLabels, labels)), `wire: offset 0xc: inst 0: error: branch label "gone" not in the label table [j]`},
		{"branch label/target mismatch", rawBlob(sec(secName, name), sec(secInsts, instsPayload(isa.Inst{Op: isa.OpJ, Label: "l", Target: 0})), sec(secLabels, labelsPayload("l", 1))), `wire: offset 0xc: inst 0: error: branch label "l" resolves to pc 1 but target is 0 [j]`},
		{"scfg without payload", rawBlob(sec(secName, name), sec(secInsts, instsPayload(isa.Inst{Op: isa.OpSCfg})), sec(secLabels, labels)), `wire: offset 0xc: inst 0: error: stream configuration instruction without a payload [ss.cfg]`},
		{"cfg on non-scfg", rawBlob(sec(secName, name), sec(secInsts, instsPayload(isa.Inst{Op: isa.OpNop, Cfg: scfg[0].Cfg})), sec(secLabels, labels)), `wire: offset 0xc: inst 0: error: configuration payload on a non-configuration instruction [nop]`},
		{"unsorted labels", rawBlob(sec(secName, name), sec(secInsts, insts), sec(secLabels, labelsPayload("b", 0, "a", 0))), `wire: offset 0x1d: error: label "a" not sorted after "b"`},
		{"duplicate labels", rawBlob(sec(secName, name), sec(secInsts, insts), sec(secLabels, labelsPayload("a", 0, "a", 0))), `wire: offset 0x1d: error: label "a" not sorted after "a"`},
		{"empty label name", rawBlob(sec(secName, name), sec(secInsts, insts), sec(secLabels, labelsPayload("", 0, "ab", 0))), `wire: error: empty label name`},
		{"label pc out of range", rawBlob(sec(secName, name), sec(secInsts, insts), sec(secLabels, labelsPayload("a", 9))), `wire: error: label "a" bound to pc 9, outside the 1-inst program`},
		{"empty optional int args", rawBlob(sec(secName, name), sec(secInsts, insts), sec(secLabels, labels), sec(secIntArgs, appendUvarint(nil, 0))), `wire: offset 0x1d: error: empty optional section (must be omitted)`},
		{"empty optional fp args", rawBlob(sec(secName, name), sec(secInsts, insts), sec(secLabels, labels), sec(secFPArgs, appendUvarint(nil, 0))), `wire: offset 0x1d: error: empty optional section (must be omitted)`},
		{"empty optional extents", rawBlob(sec(secName, name), sec(secInsts, insts), sec(secLabels, labels), sec(secExtents, appendUvarint(nil, 0))), `wire: offset 0x1d: error: empty optional section (must be omitted)`},
		{"unsorted int args", rawBlob(sec(secName, name), sec(secInsts, insts), sec(secLabels, labels), sec(secIntArgs, append(appendUvarint(append(appendUvarint(appendUvarint(nil, 2), 5), 0), 5), 0))), `wire: error: int args not sorted by register`},
		{"int arg register out of range", rawBlob(sec(secName, name), sec(secInsts, insts), sec(secLabels, labels), sec(secIntArgs, appendUvarint(appendUvarint(appendUvarint(nil, 1), 40), 0))), `wire: error: int arg register x40 out of range`},
		{"NaN fp arg", rawBlob(sec(secName, name), sec(secInsts, insts), sec(secLabels, labels), sec(secFPArgs, appendUvarint(appendUvarint(appendUvarint(appendUvarint(nil, 1), 0), 4), math.Float64bits(math.NaN())))), `wire: error: fp arg f0 is NaN`},
		{"negative extent size", rawBlob(sec(secName, name), sec(secInsts, insts), sec(secLabels, labels), sec(secExtents, appendVarint(appendUvarint(appendUvarint(nil, 1), 0x100), -1))), `wire: error: extent 0 has negative size -1`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeUnit(tc.blob)
			if err == nil {
				t.Fatal("invalid blob decoded without error")
			}
			var werr *Error
			if !errors.As(err, &werr) {
				t.Fatalf("error type %T, want *wire.Error (%v)", err, err)
			}
			if err.Error() != tc.want {
				t.Fatalf("error %q, want %q", err, tc.want)
			}
		})
	}
}

// TestDecodeRejectsCorruptCfgPart patches single bytes inside an encoded
// stream-configuration µOp: a bad presence flag, stray part-flag bits and
// unknown payload kinds must all be positioned errors.
func TestDecodeRejectsCorruptCfgPart(t *testing.T) {
	d := descriptor.New(0x100, arch.W4, descriptor.Load).Dim(0, 8, 1).MustBuild()
	in := isa.SCfgParts(1, d)[0]
	name := []byte("t")
	labels := appendUvarint(nil, 0)

	// Encode the instruction head and the cfg payload separately so the
	// bytes to corrupt have known indices.
	var head []byte
	head = appendUvarint(head, uint64(in.Op))
	for _, r := range [...]isa.Reg{in.Dst, in.Src1, in.Src2, in.Src3, in.Pred} {
		head = appendReg(head, r)
	}
	head = appendVarint(head, in.Imm)
	head = appendUvarint(head, uint64(in.W))
	head = appendUvarint(head, uint64(in.Target))
	head = appendString(head, in.Label)
	cfgBytes := appendCfgPart(nil, in.Cfg)

	assemble := func(presence byte, mutate func(cfg []byte)) []byte {
		cfg := append([]byte(nil), cfgBytes...)
		if mutate != nil {
			mutate(cfg)
		}
		payload := appendUvarint(nil, 1)
		payload = append(payload, head...)
		payload = append(payload, presence)
		payload = append(payload, cfg...)
		return rawBlob(sec(secName, name), sec(secInsts, payload), sec(secLabels, labels))
	}

	if _, err := DecodeUnit(assemble(1, nil)); err != nil {
		t.Fatalf("baseline scfg blob must decode: %v", err)
	}

	// cfg layout: stream varint (1 byte here), flags byte, start fields
	// (kind, width, level, base), payload kind byte, dim (3 varints, 1 byte
	// each for this descriptor).
	flagsIdx := 1
	kindIdx := len(cfgBytes) - 4

	cases := []struct {
		name string
		blob []byte
		want string
	}{
		{"presence flag 2", assemble(2, nil), `wire: offset 0x16: error: configuration flag 2 is neither 0 nor 1`},
		{"part flags beyond start/end", assemble(1, func(c []byte) { c[flagsIdx] = 7 }), `wire: offset 0x18: error: part flags 0x7 have bits beyond start/end set`},
		{"unknown payload kind", assemble(1, func(c []byte) { c[kindIdx] = 3 }), `wire: offset 0x1e: error: unknown part payload kind 3`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeUnit(tc.blob)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("err %v, want %q", err, tc.want)
			}
		})
	}
}

func TestEncodeRejectsInvalidUnits(t *testing.T) {
	cases := []struct {
		name string
		unit *Unit
		want string
	}{
		{"nil unit", nil, "nil program"},
		{"nil program", &Unit{}, "nil program"},
		{"branch past end", &Unit{Prog: &program.Program{Name: "t", Insts: []isa.Inst{{Op: isa.OpJ, Target: 7}}, Labels: map[string]int{}}}, "branch target 7 past the end"},
		{"negative target", &Unit{Prog: &program.Program{Name: "t", Insts: []isa.Inst{{Op: isa.OpJ, Target: -1}}, Labels: map[string]int{}}}, "negative branch target"},
		{"unsorted fp args", &Unit{Prog: &program.Program{Name: "t", Labels: map[string]int{}}, FPArgs: []FPArg{{Reg: 3, Width: arch.W4}, {Reg: 1, Width: arch.W4}}}, "not sorted by register"},
		{"invalid fp width", &Unit{Prog: &program.Program{Name: "t", Labels: map[string]int{}}, FPArgs: []FPArg{{Reg: 1, Width: 3}}}, "invalid width 3"},
		{"absent operand with number", &Unit{Prog: &program.Program{Name: "t", Insts: []isa.Inst{{Op: isa.OpNop, Dst: isa.Reg{Class: isa.ClassNone, N: 4}}}, Labels: map[string]int{}}}, "absent operand with nonzero register number"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := EncodeUnit(tc.unit)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err %v, want %q", err, tc.want)
			}
			var werr *Error
			if !errors.As(err, &werr) {
				t.Fatalf("error type %T, want *wire.Error", err)
			}
			if werr.Offset != -1 {
				t.Fatalf("encode-side error carries blob offset %d", werr.Offset)
			}
		})
	}
}

func TestVarintCanonical(t *testing.T) {
	// readAll decodes b as exactly one varint.
	readAll := func(b []byte) (uint64, error) {
		return decode(b, func(r *reader) (uint64, error) {
			v := r.uvarint("test")
			if r.pos != len(b) {
				return 0, fmt.Errorf("read %d of %d bytes", r.pos, len(b))
			}
			return v, nil
		})
	}
	for _, v := range []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<63 - 1, math.MaxUint64} {
		if got, err := readAll(appendUvarint(nil, v)); err != nil || got != v {
			t.Fatalf("uvarint(%d): got %d err %v", v, got, err)
		}
	}
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, math.MinInt64, math.MaxInt64} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("zigzag(%d) round-trips to %d", v, got)
		}
	}
	bad := map[string][]byte{
		"padded zero":        {0x80, 0x00},
		"padded value":       {0xff, 0x00},
		"overflow 64 bits":   {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"11-byte run":        {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"truncated mid-cont": {0x80},
		"empty":              {},
	}
	for name, b := range bad {
		if _, err := readAll(b); err == nil {
			t.Errorf("%s: non-canonical varint % x accepted", name, b)
		}
	}
}

// TestDecodeRepanicsForeignPanics: decode recovers only a failed read, so
// a bug that panics inside a decoder still crashes, and a fuzzer still
// reports it.
func TestDecodeRepanicsForeignPanics(t *testing.T) {
	x := func() (x any) {
		defer func() { x = recover() }()
		_, _ = decode([]byte{1}, func(r *reader) (byte, error) { return r.b[r.pos+1], nil })
		return nil
	}()
	if _, ok := x.(runtime.Error); !ok {
		t.Fatalf("decode ended with %v, want the body's index panic re-raised", x)
	}
}

func TestDescriptorRoundTrip(t *testing.T) {
	descs := []*descriptor.Descriptor{
		descriptor.New(0x100, arch.W4, descriptor.Load).Dim(0, 8, 1).MustBuild(),
		descriptor.New(0x200, arch.W8, descriptor.Store).
			Dim(-4, 16, 2).Dim(0, 3, 32).
			Mod(descriptor.TargetSize, descriptor.Sub, 1, 0).
			MustBuild(),
		descriptor.New(0x300, arch.W4, descriptor.Load).
			Dim(0, 8, 1).
			Indirect(descriptor.TargetOffset, descriptor.SetAdd, 3).
			MustBuild(),
		descriptor.New(0x400, arch.W2, descriptor.Load).AtLevel(arch.LevelMem).
			Dim(0, 8, 1).Dim(0, 2, 8).
			IndirectOuter(descriptor.TargetOffset, descriptor.SetValue, 1).
			MustBuild(),
	}
	for _, d := range descs {
		b, err := EncodeDescriptor(d)
		if err != nil {
			t.Fatalf("%s: encode: %v", d, err)
		}
		got, err := DecodeDescriptor(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", d, err)
		}
		if !reflect.DeepEqual(got, d) {
			t.Fatalf("descriptor mismatch:\ngot  %s\nwant %s", got, d)
		}
		b2, err := EncodeDescriptor(got)
		if err != nil || !bytes.Equal(b, b2) {
			t.Fatalf("%s: re-encode not byte-identical (err %v)", d, err)
		}
		// Every strict prefix must be rejected, never crash.
		for i := 0; i < len(b); i++ {
			if _, err := DecodeDescriptor(b[:i]); err == nil {
				t.Fatalf("%s: %d-byte prefix decoded without error", d, i)
			}
		}
		if _, err := DecodeDescriptor(append(append([]byte(nil), b...), 0)); err == nil ||
			!strings.Contains(err.Error(), "trailing garbage") {
			t.Fatalf("%s: trailing garbage accepted (err %v)", d, err)
		}
	}
}

func TestDescriptorDecodeRejects(t *testing.T) {
	body := func(fields ...uint64) []byte {
		out := append([]byte(nil), MagicDescriptor...)
		out = appendUvarint(out, Version)
		for _, f := range fields {
			out = appendUvarint(out, f)
		}
		return out
	}
	zz := func(v int64) uint64 { return zigzag(v) }
	cases := []struct {
		name string
		blob []byte
		want string
	}{
		{"bad magic", []byte("UVEWxxxx"), `wire: offset 0x0: error: bad magic "UVEW", want "UVED"`},
		{"program magic on a descriptor", append([]byte(MagicProgram), 1), `wire: offset 0x0: error: bad magic "UVEW", want "UVED"`},
		{"bad version", append([]byte(MagicDescriptor), 9), `wire: offset 0x4: error: unsupported format version 9 (this decoder reads 1)`},
		{"invalid kind", body(7, 4, 0, 0, 1, zz(0), zz(8), zz(1), 0, 0), `wire: error: invalid stream kind 7`},
		{"invalid width", body(0, 3, 0, 0, 1, zz(0), zz(8), zz(1), 0, 0), `wire: error: descriptor: invalid element width 3`},
		{"invalid level", body(0, 4, 5, 0, 1, zz(0), zz(8), zz(1), 0, 0), `wire: error: invalid cache level 5`},
		{"no dims", body(0, 4, 0, 0, 0, 0, 0), `wire: error: descriptor: no dimensions`},
		{"static mod bad behavior", body(0, 4, 0, 0, 2, zz(0), zz(8), zz(1), zz(0), zz(2), zz(8), 1, 1, 0, 3, zz(1), zz(0), 0), `wire: error: static modifier with non-static behavior 3`},
		{"indirect mod bad behavior", body(0, 4, 0, 0, 1, zz(0), zz(8), zz(1), 0, 1, 0, 0, 1, 2), `wire: error: indirect modifier with non-indirect behavior 1`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeDescriptor(tc.blob)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("err %v, want %q", err, tc.want)
			}
		})
	}
}

func TestErrorRendering(t *testing.T) {
	cases := []struct {
		err  Error
		want string
	}{
		{Error{Offset: 0x2a, PC: 3, Op: "j", Msg: "boom"}, "wire: offset 0x2a: inst 3: error: boom [j]"},
		{Error{Offset: -1, PC: 3, Msg: "boom"}, "wire: inst 3: error: boom"},
		{Error{Offset: 7, PC: -1, Msg: "boom"}, "wire: offset 0x7: error: boom"},
		{Error{Offset: -1, PC: -1, Msg: "boom"}, "wire: error: boom"},
	}
	for _, tc := range cases {
		if got := tc.err.Error(); got != tc.want {
			t.Errorf("got %q, want %q", got, tc.want)
		}
	}
}
