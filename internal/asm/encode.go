package asm

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/machine"
)

// Binary object-file format ("W2OB"):
//
//	magic "W2OB", version u16
//	name string, section u16, isEntry u8
//	code: u32 count, then per word 6 slots of (op u8, dst u8, a u8, b u8, imm i32)
//	labels: u32 count of (string, u32 offset)
//	relocs: u32 count of (u32 word, u8 unit, u8 kind, string sym)
//	data:   u32 count of (string name, u32 words)
//
// Strings are u16 length + bytes. All integers are little-endian.

var magic = [4]byte{'W', '2', 'O', 'B'}

const version uint16 = 1

var le = binary.LittleEndian

// Minimum encoded sizes, which bound a record's counts by its length.
const (
	wordBytes  = int(machine.NumUnits) * 8 // (op, dst, a, b, imm i32) per unit
	labelBytes = 2 + 4                     // empty name, offset
	relocBytes = 4 + 1 + 1 + 2             // word, unit, kind, empty symbol
	dataBytes  = 2 + 4                     // empty name, words
)

// Encode serializes the object to its binary form. The size of every field
// is fixed or a string length, so the buffer is allocated once at its exact
// size and filled by appending.
func Encode(o *Object) []byte {
	names := sortedLabelNames(o)
	size := len(magic) + 2 + strSize(o.Name) + 2 + 1 +
		4 + len(o.Code)*wordBytes + 4 + 4 + 4
	for _, name := range names {
		size += strSize(name) + 4
	}
	for _, r := range o.Relocs {
		size += 4 + 1 + 1 + strSize(r.Sym)
	}
	for _, d := range o.Data {
		size += strSize(d.Name) + 4
	}

	buf := make([]byte, 0, size)
	buf = append(buf, magic[:]...)
	buf = le.AppendUint16(buf, version)
	buf = appendString(buf, o.Name)
	buf = le.AppendUint16(buf, uint16(o.Section))
	if o.IsEntry {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}

	buf = le.AppendUint32(buf, uint32(len(o.Code)))
	for i := range o.Code {
		for u := range o.Code[i] {
			in := &o.Code[i][u]
			buf = append(buf, byte(in.Op), byte(in.Dst), byte(in.A), byte(in.B))
			buf = le.AppendUint32(buf, uint32(in.Imm))
		}
	}

	// Labels in deterministic order.
	buf = le.AppendUint32(buf, uint32(len(names)))
	for _, name := range names {
		buf = appendString(buf, name)
		buf = le.AppendUint32(buf, uint32(o.Labels[name]))
	}

	buf = le.AppendUint32(buf, uint32(len(o.Relocs)))
	for _, r := range o.Relocs {
		buf = le.AppendUint32(buf, uint32(r.Word))
		buf = append(buf, byte(r.Unit), byte(r.Kind))
		buf = appendString(buf, r.Sym)
	}

	buf = le.AppendUint32(buf, uint32(len(o.Data)))
	for _, d := range o.Data {
		buf = appendString(buf, d.Name)
		buf = le.AppendUint32(buf, uint32(d.Words))
	}
	return buf
}

// Decode parses a binary object file.
func Decode(data []byte) (*Object, error) {
	r := &reader{data: data}
	var m [4]byte
	r.bytes(m[:])
	if m != magic {
		return nil, fmt.Errorf("bad object magic %q", m)
	}
	if v := r.u16(); v != version {
		return nil, fmt.Errorf("unsupported object version %d", v)
	}
	o := &Object{}
	o.Name = r.str()
	o.Section = int(r.u16())
	o.IsEntry = r.u8() != 0

	nCode := int(r.u32())
	if nCode > machine.ProgMemWords {
		return nil, fmt.Errorf("object code %d words exceeds program memory", nCode)
	}
	// A count is trusted only as far as the bytes behind it: a short hostile
	// record must not make Decode allocate a program memory's worth of words.
	if err := r.need(nCode, wordBytes, "code words"); err != nil {
		return nil, err
	}
	o.Code = make([]machine.Word, nCode)
	for i := 0; i < nCode; i++ {
		for u := 0; u < int(machine.NumUnits); u++ {
			var in machine.Instr
			in.Op = machine.Opcode(r.u8())
			in.Dst = machine.Reg(r.u8())
			in.A = machine.Reg(r.u8())
			in.B = machine.Reg(r.u8())
			in.Imm = r.i32()
			if int(in.Op) >= machine.NumOpcodes() {
				return nil, fmt.Errorf("word %d: invalid opcode %d", i, in.Op)
			}
			// The simulator indexes its register file with these fields.
			if r := max(in.Dst, in.A, in.B); r >= machine.NumRegs {
				return nil, fmt.Errorf("word %d: register field %d out of range", i, r)
			}
			o.Code[i][u] = in
		}
	}

	nLabels := int(r.u32())
	if err := r.need(nLabels, labelBytes, "labels"); err != nil {
		return nil, err
	}
	o.Labels = make(map[string]int, nLabels)
	for i := 0; i < nLabels; i++ {
		if r.err != nil {
			return nil, r.err
		}
		name := r.str()
		off := int(r.u32())
		if off > nCode {
			return nil, fmt.Errorf("label %s offset %d out of range", name, off)
		}
		o.Labels[name] = off
	}

	nRelocs := int(r.u32())
	if err := r.need(nRelocs, relocBytes, "relocations"); err != nil {
		return nil, err
	}
	if nRelocs > 0 {
		o.Relocs = make([]Reloc, 0, nRelocs)
	}
	for i := 0; i < nRelocs; i++ {
		if r.err != nil {
			return nil, r.err
		}
		var rl Reloc
		rl.Word = int(r.u32())
		rl.Unit = machine.Unit(r.u8())
		rl.Kind = RelocKind(r.u8())
		rl.Sym = r.str()
		if rl.Word >= nCode || rl.Unit >= machine.NumUnits || rl.Kind > RelocData {
			return nil, fmt.Errorf("relocation %d out of range", i)
		}
		o.Relocs = append(o.Relocs, rl)
	}

	nData := int(r.u32())
	if err := r.need(nData, dataBytes, "data symbols"); err != nil {
		return nil, err
	}
	if nData > 0 {
		o.Data = make([]DataSym, 0, nData)
	}
	for i := 0; i < nData; i++ {
		if r.err != nil {
			return nil, r.err
		}
		var d DataSym
		d.Name = r.str()
		d.Words = int(r.u32())
		o.Data = append(o.Data, d)
	}
	if r.err != nil {
		return nil, r.err
	}
	return o, nil
}

func sortedLabelNames(o *Object) []string {
	names := make([]string, 0, len(o.Labels))
	for n := range o.Labels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// strSize is the encoded size of s: a u16 length and at most 0xffff bytes.
func strSize(s string) int {
	if len(s) > 0xffff {
		return 2 + 0xffff
	}
	return 2 + len(s)
}

func appendString(b []byte, s string) []byte {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	b = le.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

type reader struct {
	data []byte
	pos  int
	err  error
}

// need reports an error unless count records of at least each bytes can
// still follow, which bounds what the caller allocates for them.
func (r *reader) need(count, each int, what string) error {
	if r.err != nil {
		return r.err
	}
	if count < 0 || count > (len(r.data)-r.pos)/each {
		return fmt.Errorf("truncated object file: %d %s at offset %d of %d bytes", count, what, r.pos, len(r.data))
	}
	return nil
}

func (r *reader) bytes(out []byte) {
	if r.err != nil {
		return
	}
	if r.pos+len(out) > len(r.data) {
		r.err = fmt.Errorf("truncated object file at offset %d", r.pos)
		return
	}
	copy(out, r.data[r.pos:])
	r.pos += len(out)
}

func (r *reader) u8() uint8 {
	var b [1]byte
	r.bytes(b[:])
	return b[0]
}

func (r *reader) u16() uint16 {
	var b [2]byte
	r.bytes(b[:])
	return binary.LittleEndian.Uint16(b[:])
}

func (r *reader) u32() uint32 {
	var b [4]byte
	r.bytes(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (r *reader) i32() int32 { return int32(r.u32()) }

func (r *reader) str() string {
	n := int(r.u16())
	if r.err != nil {
		return ""
	}
	if r.pos+n > len(r.data) {
		r.err = fmt.Errorf("truncated object file at offset %d", r.pos)
		return ""
	}
	s := string(r.data[r.pos : r.pos+n])
	r.pos += n
	return s
}
