// Package asm implements phase 4's assembler: it turns scheduled machine
// code into relocatable object files with a binary encoding, symbol tables
// and relocation records, ready for the linker.
package asm

import (
	"fmt"
	"sort"

	"repro/internal/codegen"
	"repro/internal/machine"
)

// RelocKind distinguishes branch-target from data-address relocations.
type RelocKind uint8

const (
	// RelocBranch patches a CTRL instruction's Imm with a code word index.
	RelocBranch RelocKind = iota
	// RelocData patches a MEM instruction's Imm with a data base address.
	RelocData
)

// Reloc is one relocation record.
type Reloc struct {
	Word int // instruction word index within the object's code
	Unit machine.Unit
	Kind RelocKind
	Sym  string
}

// DataSym is a data-memory allocation request (a function-local array or
// spill slot).
type DataSym struct {
	Name  string
	Words int
}

// Object is one assembled function.
type Object struct {
	Name    string
	Section int
	IsEntry bool
	Code    []machine.Word
	// Labels maps code labels to word offsets within Code.
	Labels map[string]int
	Relocs []Reloc
	Data   []DataSym
}

// Assemble converts scheduled machine code into an object file. Every block
// must already carry its final instruction words.
func Assemble(pf *codegen.PFunc) (*Object, error) {
	words := 0
	for _, b := range pf.Blocks {
		words += len(b.Scheduled)
	}
	obj := &Object{
		Name:    pf.Name,
		Section: pf.Section,
		IsEntry: pf.IsEntry,
		// The word count is known: one exact allocation, where append from
		// nil would copy the 48-byte words several times over as it grew.
		Code:   make([]machine.Word, 0, words),
		Labels: make(map[string]int, len(pf.Blocks)),
	}
	if len(pf.Arrays) > 0 {
		obj.Data = make([]DataSym, 0, len(pf.Arrays))
	}
	for _, a := range pf.Arrays {
		obj.Data = append(obj.Data, DataSym{Name: dataSymName(pf.Name, a.Sym), Words: a.Words})
	}
	for _, b := range pf.Blocks {
		if b.Scheduled == nil {
			return nil, fmt.Errorf("%s: block %s is unscheduled", pf.Name, b.Label)
		}
		if _, dup := obj.Labels[b.Label]; dup {
			return nil, fmt.Errorf("%s: duplicate label %s", pf.Name, b.Label)
		}
		base := len(obj.Code)
		obj.Labels[b.Label] = base
		// The symbolic operands become relocation records; the words carry
		// only the encodable fields, so they are copied whole.
		for _, s := range b.Syms {
			in := b.Scheduled[s.Word][s.Unit]
			switch {
			case machine.IsBranch(in.Op):
				obj.Relocs = append(obj.Relocs, Reloc{Word: base + s.Word, Unit: s.Unit, Kind: RelocBranch, Sym: s.Sym})
			case in.Op == machine.LOAD || in.Op == machine.STORE:
				obj.Relocs = append(obj.Relocs, Reloc{Word: base + s.Word, Unit: s.Unit, Kind: RelocData, Sym: dataSymName(pf.Name, s.Sym)})
			default:
				return nil, fmt.Errorf("%s: op %s carries a symbol but is not relocatable", pf.Name, in.StringSym(s.Sym))
			}
		}
		obj.Code = append(obj.Code, b.Scheduled...)
	}
	sort.Slice(obj.Relocs, func(i, j int) bool {
		if obj.Relocs[i].Word != obj.Relocs[j].Word {
			return obj.Relocs[i].Word < obj.Relocs[j].Word
		}
		return obj.Relocs[i].Unit < obj.Relocs[j].Unit
	})
	return obj, nil
}

// dataSymName qualifies a function-local data symbol with its function so
// that objects of one section can be linked together without collisions.
func dataSymName(fn, sym string) string { return fn + "/" + sym }

// NumWords returns the code size in instruction words.
func (o *Object) NumWords() int { return len(o.Code) }

// DataWords returns the total data allocation of the object.
func (o *Object) DataWords() int {
	n := 0
	for _, d := range o.Data {
		n += d.Words
	}
	return n
}

// Listing renders a human-readable assembly listing with labels, one word
// per line — the compiler's -S output.
func (o *Object) Listing() string {
	byOffset := make(map[int][]string)
	for l, off := range o.Labels {
		byOffset[off] = append(byOffset[off], l)
	}
	for _, ls := range byOffset {
		sort.Strings(ls)
	}
	s := fmt.Sprintf("; object %s (section %d, %d words, %d data words)\n",
		o.Name, o.Section, o.NumWords(), o.DataWords())
	for _, d := range o.Data {
		s += fmt.Sprintf("; data %s: %d words\n", d.Name, d.Words)
	}
	for i, w := range o.Code {
		for _, l := range byOffset[i] {
			s += l + ":\n"
		}
		s += fmt.Sprintf("  %04d  %s\n", i, w.String())
	}
	return s
}
