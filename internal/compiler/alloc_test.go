package compiler

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/asm"
	"repro/internal/machine"
	"repro/internal/wgen"
)

// allocatedBy returns the bytes one run of f allocates: the least of three
// TotalAlloc deltas, so that an allocation elsewhere in the process during
// one run is not charged to f. TotalAlloc counts every goroutine, so the
// callers run nothing else and are not parallel tests.
func allocatedBy(f func()) uint64 {
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d < best {
			best = d
		}
	}
	return best
}

// TestCompileAllocationBudget pins the bytes one sequential compile of each
// benchmark program allocates, so that the allocation rate of a build is a
// tested property and not only a benchmark row. A budget is the figure
// measured on go1.24 when it was committed, plus 10%; DESIGN.md §17 ("Where
// the bytes go") has the per-site breakdown behind the figures.
//
// The same compiles feed the encoder checks: for every object, asm.Encode
// must produce the bytes the reflective reference encoder below produces —
// disk-cache records written before the encoder was rewritten stay valid —
// and Decode must return the object it was given.
func TestCompileAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		name     string
		src      []byte
		measured uint64 // bytes, when the budget was committed
	}{
		{"mixed12", wgen.MixedProgram(12), 5_822_880},
		{"wide12x4", wgen.WideProgram(12, 4), 14_803_584},
		{"smallfuncs256", wgen.SmallFuncsProgram(256), 16_195_888},
	} {
		t.Run(tc.name, func(t *testing.T) {
			budget := tc.measured + tc.measured/10
			var res *Result
			got := allocatedBy(func() {
				var err error
				if res, err = CompileModule(tc.name+".w2", tc.src, Options{}); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%d bytes (%.2f MB) allocated, budget %d", got, float64(got)/(1<<20), budget)
			if got > budget {
				t.Errorf("one compile allocated %d bytes, over its budget of %d", got, budget)
			}
			for _, fr := range res.Funcs {
				enc := asm.Encode(fr.Object)
				if want := referenceEncode(fr.Object); !bytes.Equal(enc, want) {
					t.Errorf("%s: asm.Encode differs from the reference encoder (%d vs %d bytes)", fr.Name, len(enc), len(want))
				}
				if cap(enc) != len(enc) {
					t.Errorf("%s: encoded object has len %d, cap %d", fr.Name, len(enc), cap(enc))
				}
				back, err := asm.Decode(enc)
				if err != nil {
					t.Errorf("%s: decoding its own encoding: %v", fr.Name, err)
				} else if !reflect.DeepEqual(normalized(back), normalized(fr.Object)) {
					t.Errorf("%s: Decode(Encode(o)) != o", fr.Name)
				}
			}
		})
	}
}

// TestCompileModuleAllocationIsLinear: the sequential compiler lowers and
// inlines each function once, so doubling a module's functions at most about
// doubles what a compile allocates. A compiler that re-lowers a function's
// section prefix for every function grows quadratically (18.5 MB at 64
// small functions, 250 MB at 256). 256 is the largest SmallFuncsProgram
// whose one section fits a cell's program memory.
func TestCompileModuleAllocationIsLinear(t *testing.T) {
	measure := func(n int) uint64 {
		src := wgen.SmallFuncsProgram(n)
		return allocatedBy(func() {
			if _, err := CompileModule("small.w2", src, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	b128, b256 := measure(128), measure(256)
	t.Logf("CompileModule: %d bytes at 128 functions, %d at 256", b128, b256)
	if float64(b256) > 2.2*float64(b128) {
		t.Errorf("allocated bytes grow faster than linearly: %d at 256 functions > 2.2 × %d at 128", b256, b128)
	}
}

// normalized returns o with empty slices as nil, which is all that may differ
// between an assembled object and its decoded encoding.
func normalized(o *asm.Object) *asm.Object {
	c := *o
	if len(c.Code) == 0 {
		c.Code = nil
	}
	if len(c.Relocs) == 0 {
		c.Relocs = nil
	}
	if len(c.Data) == 0 {
		c.Data = nil
	}
	return &c
}

// referenceEncode is the object encoder as it was before it sized its buffer
// exactly: a bytes.Buffer grown on demand and a reflective binary.Write per
// integer. It is kept as the oracle for the W2OB format.
func referenceEncode(o *asm.Object) []byte {
	var buf bytes.Buffer
	u16 := func(v uint16) { binary.Write(&buf, binary.LittleEndian, v) }
	u32 := func(v uint32) { binary.Write(&buf, binary.LittleEndian, v) }
	str := func(s string) {
		if len(s) > 0xffff {
			s = s[:0xffff]
		}
		u16(uint16(len(s)))
		buf.WriteString(s)
	}
	buf.WriteString("W2OB")
	u16(1)
	str(o.Name)
	u16(uint16(o.Section))
	if o.IsEntry {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	u32(uint32(len(o.Code)))
	for _, w := range o.Code {
		for u := 0; u < int(machine.NumUnits); u++ {
			in := w[u]
			buf.WriteByte(byte(in.Op))
			buf.WriteByte(byte(in.Dst))
			buf.WriteByte(byte(in.A))
			buf.WriteByte(byte(in.B))
			binary.Write(&buf, binary.LittleEndian, in.Imm)
		}
	}
	names := make([]string, 0, len(o.Labels))
	for n := range o.Labels {
		names = append(names, n)
	}
	sort.Strings(names)
	u32(uint32(len(names)))
	for _, n := range names {
		str(n)
		u32(uint32(o.Labels[n]))
	}
	u32(uint32(len(o.Relocs)))
	for _, r := range o.Relocs {
		u32(uint32(r.Word))
		buf.WriteByte(byte(r.Unit))
		buf.WriteByte(byte(r.Kind))
		str(r.Sym)
	}
	u32(uint32(len(o.Data)))
	for _, d := range o.Data {
		str(d.Name)
		u32(uint32(d.Words))
	}
	return buf.Bytes()
}
