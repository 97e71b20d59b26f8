package asm_test

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/machine"
	"repro/internal/wgen"
)

// slotAt returns the offset of the first byte (the opcode) of slot u of word
// i in an encoded object named name.
func slotAt(name string, i int, u machine.Unit) int {
	codeAt := 4 + 2 + 2 + len(name) + 2 + 1 // magic, version, name, section, isEntry
	return codeAt + 4 + (i*int(machine.NumUnits)+int(u))*8
}

// TestDecodeRejectsOutOfRangeRegisters: a register field at or beyond
// machine.NumRegs is an error, as an invalid opcode is. Such a field used to
// decode and link, and then the array simulator indexed its 64-entry
// register file with it and panicked.
func TestDecodeRejectsOutOfRangeRegisters(t *testing.T) {
	res, err := compiler.CompileModule("small4.w2", wgen.SmallFuncsProgram(4), compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var entry *asm.Object
	for _, fr := range res.Funcs {
		if fr.Object.IsEntry {
			entry = fr.Object
		}
	}
	enc := asm.Encode(entry)
	found := false
	for i, w := range entry.Code {
		for u := range w {
			if w[u].Op == machine.NOP {
				continue
			}
			found = true
			for field, name := range []string{"dst", "a", "b"} {
				for _, reg := range []byte{machine.NumRegs, 200, 255} {
					mut := append([]byte(nil), enc...)
					mut[slotAt(entry.Name, i, machine.Unit(u))+1+field] = reg
					if _, err := asm.Decode(mut); err == nil {
						t.Errorf("word %d slot %s: %s field %d decoded without error", i, machine.Unit(u), name, reg)
					}
				}
			}
		}
	}
	if !found {
		t.Fatal("entry object has no operation")
	}
	if _, err := asm.Decode(enc); err != nil {
		t.Fatalf("the unmodified object: %v", err)
	}
}

// FuzzDecode: Decode never panics, a decoded object is one the rest of the
// tool chain can index — valid opcodes and registers, relocations and labels
// inside its code — and re-encoding it gives bytes that decode to it again.
//
// The seeds are every object of a few small wgen programs: real code,
// relocations, labels and data symbols, each at most a few KB so that the
// fuzzer's minimization stays quick.
func FuzzDecode(f *testing.F) {
	for _, src := range [][]byte{
		wgen.SmallFuncsProgram(4),
		wgen.SyntheticProgram(wgen.Tiny, 2),
		wgen.MultiSectionProgram(wgen.Tiny, 2),
	} {
		res, err := compiler.CompileModule("seed.w2", src, compiler.Options{})
		if err != nil {
			f.Fatal(err)
		}
		for _, fr := range res.Funcs {
			f.Add(asm.Encode(fr.Object))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := asm.Decode(data)
		if err != nil {
			return
		}
		for i, w := range o.Code {
			for u, in := range w {
				if int(in.Op) >= machine.NumOpcodes() {
					t.Fatalf("word %d slot %d: opcode %d", i, u, in.Op)
				}
				if in.Dst >= machine.NumRegs || in.A >= machine.NumRegs || in.B >= machine.NumRegs {
					t.Fatalf("word %d slot %d: registers %d %d %d", i, u, in.Dst, in.A, in.B)
				}
			}
		}
		for i, r := range o.Relocs {
			if r.Word < 0 || r.Word >= len(o.Code) || r.Unit < 0 || r.Unit >= machine.NumUnits || r.Kind > asm.RelocData {
				t.Fatalf("relocation %d: %+v outside %d words", i, r, len(o.Code))
			}
		}
		for l, off := range o.Labels {
			if off < 0 || off > len(o.Code) {
				t.Fatalf("label %q at %d outside %d words", l, off, len(o.Code))
			}
		}
		back, err := asm.Decode(asm.Encode(o))
		if err != nil {
			t.Fatalf("re-encoded object does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, o) {
			t.Fatalf("re-encoded object decodes differently:\n%+v\n%+v", o, back)
		}
	})
}
