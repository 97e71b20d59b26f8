package asm

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/codegen"
	"repro/internal/ir"
	"repro/internal/machine"
)

func samplePFunc() *codegen.PFunc {
	return &codegen.PFunc{
		Name:    "f",
		Section: 2,
		IsEntry: true,
		Arrays:  []ir.ArrayVar{{Sym: "a$0", Words: 16}, {Sym: "spill$3", Words: 1}},
		Blocks: []*codegen.PBlock{
			{
				Label: "f.b0",
				Scheduled: []machine.Word{
					wordWith(machine.ALU, machine.Instr{Op: machine.LDI, Dst: 2, Imm: 5}),
					wordWith(machine.MEM, machine.Instr{Op: machine.STORE, A: 0, B: 2}),
					wordWith(machine.CTRL, machine.Instr{Op: machine.JMP}),
				},
				Syms: []codegen.SlotSym{
					{Word: 2, Unit: machine.CTRL, Sym: "f.b1"},
					{Word: 1, Unit: machine.MEM, Sym: "a$0"},
				},
			},
			{
				Label: "f.b1",
				Scheduled: []machine.Word{
					wordWith(machine.MEM, machine.Instr{Op: machine.LOAD, Dst: 3, A: 0}),
					wordWith(machine.CTRL, machine.Instr{Op: machine.HALT}),
				},
				Syms: []codegen.SlotSym{{Word: 0, Unit: machine.MEM, Sym: "a$0"}},
			},
		},
	}
}

func wordWith(u machine.Unit, in machine.Instr) machine.Word {
	var w machine.Word
	w[u] = in
	return w
}

func TestAssemble(t *testing.T) {
	obj, err := Assemble(samplePFunc())
	if err != nil {
		t.Fatal(err)
	}
	if obj.NumWords() != 5 {
		t.Errorf("code words = %d, want 5", obj.NumWords())
	}
	if obj.Labels["f.b0"] != 0 || obj.Labels["f.b1"] != 3 {
		t.Errorf("labels wrong: %v", obj.Labels)
	}
	// Each block's symbols become relocations at the block's base word, data
	// symbols qualified by the function, in (word, unit) order.
	want := []Reloc{
		{Word: 1, Unit: machine.MEM, Kind: RelocData, Sym: "f/a$0"},
		{Word: 2, Unit: machine.CTRL, Kind: RelocBranch, Sym: "f.b1"},
		{Word: 3, Unit: machine.MEM, Kind: RelocData, Sym: "f/a$0"},
	}
	if !reflect.DeepEqual(obj.Relocs, want) {
		t.Errorf("relocs = %v, want %v", obj.Relocs, want)
	}
	if obj.DataWords() != 17 {
		t.Errorf("data words = %d, want 17", obj.DataWords())
	}
	// The code is the blocks' scheduled words, copied whole.
	pf := samplePFunc()
	code := append(append([]machine.Word(nil), pf.Blocks[0].Scheduled...), pf.Blocks[1].Scheduled...)
	if !reflect.DeepEqual(obj.Code, code) {
		t.Errorf("code = %v, want the scheduled words %v", obj.Code, code)
	}
}

// TestAssembleRejectsBadSymbols: a symbol on a slot whose operation takes
// no relocation is an error.
func TestAssembleRejectsBadSymbols(t *testing.T) {
	for name, sym := range map[string]codegen.SlotSym{
		"ldi carries a symbol": {Word: 0, Unit: machine.ALU, Sym: "x"},
		"empty slot":           {Word: 0, Unit: machine.FMUL, Sym: "x"},
	} {
		pf := samplePFunc()
		pf.Blocks[0].Syms = append(pf.Blocks[0].Syms, sym)
		if _, err := Assemble(pf); err == nil {
			t.Errorf("%s: assembled without error", name)
		}
	}
}

func TestAssembleRejectsUnscheduled(t *testing.T) {
	pf := samplePFunc()
	pf.Blocks[0].Scheduled = nil
	if _, err := Assemble(pf); err == nil {
		t.Error("expected error for unscheduled block")
	}
}

func TestAssembleRejectsDuplicateLabels(t *testing.T) {
	pf := samplePFunc()
	pf.Blocks[1].Label = pf.Blocks[0].Label
	if _, err := Assemble(pf); err == nil {
		t.Error("expected error for duplicate label")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	obj, err := Assemble(samplePFunc())
	if err != nil {
		t.Fatal(err)
	}
	data := Encode(obj)
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(obj, back) {
		t.Errorf("round trip mismatch:\nfirst:  %+v\nsecond: %+v", obj, back)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("W2OB"),
		append([]byte("W2OB"), 0xFF, 0xFF), // bad version
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: expected decode error", i)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	obj, _ := Assemble(samplePFunc())
	data := Encode(obj)
	for _, cut := range []int{5, 10, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		// Must not panic, error or not.
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Mutations of a valid object must not panic either.
	obj, _ := Assemble(samplePFunc())
	data := Encode(obj)
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x55
		_, _ = Decode(mut)
	}
}

// TestAssembleCodeExactSize pins the exact-size allocation of the code array:
// capacity beyond the length would be bytes copied or reserved for nothing.
func TestAssembleCodeExactSize(t *testing.T) {
	obj, err := Assemble(samplePFunc())
	if err != nil {
		t.Fatal(err)
	}
	if len(obj.Code) == 0 || cap(obj.Code) != len(obj.Code) {
		t.Errorf("Code has len %d, cap %d; want cap == len > 0", len(obj.Code), cap(obj.Code))
	}
}

// TestDecodeHostileCounts feeds Decode records whose counts promise more
// than their bytes hold. Each must be an error, not a panic, and must not
// make Decode allocate for the promised count: a 30-byte record claiming a
// full program memory used to cost 2.3 MB before the first bounds check.
func TestDecodeHostileCounts(t *testing.T) {
	obj, err := Assemble(samplePFunc())
	if err != nil {
		t.Fatal(err)
	}
	valid := Encode(obj)
	u32 := func(v uint32) []byte { return le.AppendUint32(nil, v) }
	header := append(append([]byte("W2OB"), 1, 0), 1, 0, 'f', 1, 0, 0) // version, name "f", section 1, not entry
	// codeAt is where the valid record's code count sits; its code, labels,
	// relocations and data follow in that order.
	codeAt := len(magic) + 2 + strSize(obj.Name) + 2 + 1
	labelsAt := codeAt + 4 + len(obj.Code)*wordBytes
	withCount := func(at int, v uint32) []byte {
		out := append([]byte(nil), valid...)
		copy(out[at:], u32(v))
		return out
	}

	cases := map[string][]byte{
		"code count of a full program memory, no code":  append(append([]byte(nil), header...), u32(machine.ProgMemWords)...),
		"code count one word more than the bytes":       append(append(append([]byte(nil), header...), u32(2)...), make([]byte, wordBytes+wordBytes-1)...),
		"code count beyond program memory":              append(append([]byte(nil), header...), u32(machine.ProgMemWords+1)...),
		"code count inflated in a valid record":         withCount(codeAt, machine.ProgMemWords),
		"label count inflated in a valid record":        withCount(labelsAt, 1<<31),
		"label count 2^32-1 in a valid record":          withCount(labelsAt, 1<<32-1),
		"no code, relocation count inflated, no relocs": append(append(append(append([]byte(nil), header...), u32(0)...), u32(0)...), u32(1<<30)...),
		"no code, no relocs, data count inflated":       append(append(append(append(append([]byte(nil), header...), u32(0)...), u32(0)...), u32(0)...), u32(1<<30)...),
		"valid record cut inside its code":              valid[:codeAt+4+wordBytes/2],
		"valid record cut before its label count":       valid[:labelsAt],
		"valid record cut inside its last field":        valid[:len(valid)-1],
	}
	for name, data := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: Decode allocated %d bytes for a %d-byte record", name, grew, len(data))
		}
	}
}

func TestListing(t *testing.T) {
	obj, _ := Assemble(samplePFunc())
	l := obj.Listing()
	for _, want := range []string{"f.b0:", "f.b1:", "ldi", "halt", "data f/a$0"} {
		if !strings.Contains(l, want) {
			t.Errorf("listing missing %q:\n%s", want, l)
		}
	}
}
