package machine

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestOpInfoComplete(t *testing.T) {
	for op := NOP; op < Opcode(NumOpcodes()); op++ {
		info := Info(op)
		if info.Name == "" || info.Name == "bad" {
			t.Errorf("opcode %d has no info", op)
		}
		if info.Latency < 1 {
			t.Errorf("op %s: latency %d < 1", info.Name, info.Latency)
		}
		if info.Unit < 0 || info.Unit >= NumUnits {
			t.Errorf("op %s: bad unit %d", info.Name, info.Unit)
		}
		if info.NumSrc < 0 || info.NumSrc > 2 {
			t.Errorf("op %s: bad NumSrc %d", info.Name, info.NumSrc)
		}
	}
}

func TestOpNamesUnique(t *testing.T) {
	seen := map[string]Opcode{}
	for op := NOP; op < Opcode(NumOpcodes()); op++ {
		name := Info(op).Name
		if prev, dup := seen[name]; dup {
			t.Errorf("opcodes %d and %d share the name %q", prev, op, name)
		}
		seen[name] = op
	}
}

func TestUnitAssignments(t *testing.T) {
	cases := []struct {
		op   Opcode
		unit Unit
	}{
		{IADD, ALU}, {ICMPLT, ALU}, {LDI, ALU},
		{FADDOP, FADD}, {CVTIF, FADD}, {FCMPGE, FADD},
		{FMULOP, FMUL}, {FDIV, FMUL}, {FSQRT, FMUL},
		{LOAD, MEM}, {STORE, MEM},
		{JMP, CTRL}, {CALL, CTRL}, {HALT, CTRL},
		{RECVX, IO}, {SENDY, IO},
	}
	for _, c := range cases {
		if got := Info(c.op).Unit; got != c.unit {
			t.Errorf("%s on unit %s, want %s", Info(c.op).Name, got, c.unit)
		}
	}
}

func TestBlockingOps(t *testing.T) {
	for _, op := range []Opcode{FDIV, FSQRT, IDIV, IREM} {
		if !Info(op).Blocking {
			t.Errorf("%s should be blocking (unpipelined)", Info(op).Name)
		}
	}
	for _, op := range []Opcode{FADDOP, FMULOP, LOAD, IADD} {
		if Info(op).Blocking {
			t.Errorf("%s should be pipelined", Info(op).Name)
		}
	}
}

func TestFloatPipelineDepthMotivatesScheduling(t *testing.T) {
	// The whole point of the machine model: float ops have multi-cycle
	// latency so naive code serializes and scheduled code overlaps.
	if Info(FADDOP).Latency < 3 || Info(FMULOP).Latency < 3 {
		t.Error("float pipeline too shallow to exercise software pipelining")
	}
	if Info(IADD).Latency != 1 {
		t.Error("integer add should be single-cycle")
	}
}

func TestIsBranch(t *testing.T) {
	for _, op := range []Opcode{JMP, BT, BF, CALL, RET, HALT} {
		if !IsBranch(op) {
			t.Errorf("%s should be a branch", Info(op).Name)
		}
	}
	for _, op := range []Opcode{IADD, LOAD, SENDY, NOP} {
		if IsBranch(op) {
			t.Errorf("%s should not be a branch", Info(op).Name)
		}
	}
}

func TestWordString(t *testing.T) {
	var w Word
	if !w.IsEmpty() || w.String() != "nop" {
		t.Errorf("zero word should be empty nop, got %q", w.String())
	}
	w[ALU] = Instr{Op: IADD, Dst: 3, A: 1, B: 2}
	w[MEM] = Instr{Op: LOAD, Dst: 4, A: 5, Imm: 16}
	if w.IsEmpty() {
		t.Error("word with ops is not empty")
	}
	s := w.String()
	if s != "ALU:iadd r3 r1 r2 ; MEM:load r4 r5 #16" {
		t.Errorf("unexpected word rendering: %q", s)
	}
}

func TestInstrSymbolicTarget(t *testing.T) {
	in := Instr{Op: CALL}
	if got := in.StringSym("helper"); got != "call @helper" {
		t.Errorf("got %q", got)
	}
	if got := in.StringSym(""); got != in.String() || got != "call #0" {
		t.Errorf("StringSym(\"\") = %q, String() = %q", got, in.String())
	}
	in2 := Instr{Op: JMP, Imm: 42}
	if in2.String() != "jmp #42" {
		t.Errorf("got %q", in2.String())
	}
}

func TestWordValRoundTrip(t *testing.T) {
	f := func(v int32) bool { return IntWord(v).Int() == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(v float32) bool {
		w := FloatWord(v)
		got := w.Float()
		return got == v || (math.IsNaN(float64(v)) && math.IsNaN(float64(got)))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
	if !BoolWord(true).Bool() || BoolWord(false).Bool() {
		t.Error("bool word round trip failed")
	}
	if BoolWord(true) != 1 || BoolWord(false) != 0 {
		t.Error("canonical bool encoding must be 0/1")
	}
}

func TestRegZero(t *testing.T) {
	if RZero != 0 || RZero.String() != "r0" {
		t.Error("r0 must be the zero register")
	}
}

// TestWordLayout pins the instruction word's size and keeps it pointer-free:
// a Word is exactly its NumUnits encoded 8-byte slots, so a code array is
// 48 bytes a word and the garbage collector never scans it.
func TestWordLayout(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got != 8 {
		t.Errorf("Instr is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(Word{}); got != 48 {
		t.Errorf("Word is %d bytes, want 48", got)
	}
	var walk func(reflect.Type, string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s, which may hold a pointer", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(Word{}), "Word")
}
