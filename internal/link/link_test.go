package link

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/machine"
)

func obj(name string, section int, entry bool, nwords int, labels map[string]int, relocs []asm.Reloc, data []asm.DataSym) *asm.Object {
	code := make([]machine.Word, nwords)
	for i := range code {
		code[i][machine.CTRL] = machine.Instr{Op: machine.HALT}
	}
	return &asm.Object{
		Name: name, Section: section, IsEntry: entry,
		Code: code, Labels: labels, Relocs: relocs, Data: data,
	}
}

func TestLinkSectionLayout(t *testing.T) {
	entry := obj("cell", 1, true, 4,
		map[string]int{"cell.b0": 0, "cell.b1": 2},
		[]asm.Reloc{{Word: 1, Unit: machine.CTRL, Kind: asm.RelocBranch, Sym: "helper.b0"}},
		[]asm.DataSym{{Name: "cell/a$0", Words: 8}})
	helper := obj("helper", 1, false, 3,
		map[string]int{"helper.b0": 0},
		[]asm.Reloc{{Word: 0, Unit: machine.MEM, Kind: asm.RelocData, Sym: "helper/buf$0"}},
		[]asm.DataSym{{Name: "helper/buf$0", Words: 5}})

	// Entry listed second: the linker must still place it first.
	img, err := LinkSection([]*asm.Object{helper, entry})
	if err != nil {
		t.Fatal(err)
	}
	if img.Entry != 0 {
		t.Errorf("entry pc = %d, want 0", img.Entry)
	}
	if len(img.Code) != 7 {
		t.Errorf("code = %d words, want 7", len(img.Code))
	}
	// The branch in entry word 1 must point at helper's base (4).
	if got := img.Code[1][machine.CTRL].Imm; got != 4 {
		t.Errorf("branch reloc = %d, want 4", got)
	}
	// Data layout: entry's symbols first.
	if img.DataSyms["cell/a$0"] != 0 || img.DataSyms["helper/buf$0"] != 8 {
		t.Errorf("data layout wrong: %v", img.DataSyms)
	}
	if img.DataWords != 13 {
		t.Errorf("data words = %d, want 13", img.DataWords)
	}
	// The MEM reloc in helper word 0 (image word 4) must carry base 8.
	if got := img.Code[4][machine.MEM].Imm; got != 8 {
		t.Errorf("data reloc = %d, want 8", got)
	}
}

// TestLinkSectionExactSizeSharedObjects pins the image's one exact
// allocation, and that laying data out in name order never reorders an
// object's own symbol list: objects are shared cache entries.
func TestLinkSectionExactSizeSharedObjects(t *testing.T) {
	entry := obj("cell", 1, true, 4, map[string]int{"cell.b0": 0}, nil,
		[]asm.DataSym{{Name: "cell/z", Words: 2}, {Name: "cell/a", Words: 3}})
	helper := obj("helper", 1, false, 3, map[string]int{"helper.b0": 0}, nil,
		[]asm.DataSym{{Name: "helper/a", Words: 1}})
	img, err := LinkSection([]*asm.Object{helper, entry})
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Code) != 7 || cap(img.Code) != len(img.Code) {
		t.Errorf("Code has len %d, cap %d; want 7 and 7", len(img.Code), cap(img.Code))
	}
	if img.DataSyms["cell/a"] != 0 || img.DataSyms["cell/z"] != 3 || img.DataSyms["helper/a"] != 5 {
		t.Errorf("data not laid out in name order per object: %v", img.DataSyms)
	}
	if entry.Data[0].Name != "cell/z" || entry.Data[1].Name != "cell/a" {
		t.Errorf("linking reordered the entry object's own data list: %v", entry.Data)
	}
}

func TestLinkErrors(t *testing.T) {
	if _, err := LinkSection(nil); err == nil {
		t.Error("empty link must fail")
	}
	noEntry := obj("a", 1, false, 1, map[string]int{}, nil, nil)
	if _, err := LinkSection([]*asm.Object{noEntry}); err == nil {
		t.Error("link without entry must fail")
	}
	e1 := obj("a", 1, true, 1, map[string]int{}, nil, nil)
	e2 := obj("b", 1, true, 1, map[string]int{}, nil, nil)
	if _, err := LinkSection([]*asm.Object{e1, e2}); err == nil {
		t.Error("two entries must fail")
	}
	undef := obj("u", 1, true, 1, map[string]int{},
		[]asm.Reloc{{Word: 0, Unit: machine.CTRL, Kind: asm.RelocBranch, Sym: "nowhere"}}, nil)
	if _, err := LinkSection([]*asm.Object{undef}); err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Errorf("undefined label not reported: %v", err)
	}
	dupLabel1 := obj("x", 1, true, 1, map[string]int{"same": 0}, nil, nil)
	dupLabel2 := obj("y", 1, false, 1, map[string]int{"same": 0}, nil, nil)
	if _, err := LinkSection([]*asm.Object{dupLabel1, dupLabel2}); err == nil {
		t.Error("duplicate labels must fail")
	}
	bigData := obj("big", 1, true, 1, map[string]int{}, nil,
		[]asm.DataSym{{Name: "big/huge", Words: machine.DataMemWords + 1}})
	if _, err := LinkSection([]*asm.Object{bigData}); err == nil {
		t.Error("oversized data must fail")
	}
}

func TestLinkModule(t *testing.T) {
	s1 := obj("c1", 1, true, 2, map[string]int{}, nil, nil)
	s2 := obj("c2", 2, true, 3, map[string]int{}, nil, nil)
	m, err := LinkModule("demo", map[int][]*asm.Object{2: {s2}, 1: {s1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(m.Cells))
	}
	// Section order must follow section index regardless of map order.
	if m.Cells[0].Section != 1 || m.Cells[1].Section != 2 {
		t.Errorf("section order wrong: %d, %d", m.Cells[0].Section, m.Cells[1].Section)
	}
	if m.TotalWords() != 5 {
		t.Errorf("total words = %d, want 5", m.TotalWords())
	}
	if _, err := LinkModule("empty", nil); err == nil {
		t.Error("empty module must fail")
	}
}
