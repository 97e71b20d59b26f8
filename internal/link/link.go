// Package link implements the linker half of phase 4: it combines the
// assembled objects of one section into a cell image (resolving branch
// labels and laying out data memory), and combines the cell images of all
// sections into a download module for the Warp array.
package link

import (
	"fmt"
	"sort"

	"repro/internal/asm"
	"repro/internal/machine"
)

// CellImage is the fully linked program for one processing element.
type CellImage struct {
	Section int
	// Entry is the start PC (always 0: the entry object is placed first).
	Entry int
	Code  []machine.Word
	// DataWords is the data-memory high-water mark.
	DataWords int
	// DataSyms maps qualified data symbols to their base addresses, kept
	// for the debugger/listing tools.
	DataSyms map[string]int
}

// LinkSection links the objects of one section. Exactly one object must be
// marked as the entry; it is placed at address 0. The remaining objects
// follow in the given order (their code is part of the image, as in the
// real system, even when the entry never calls them after inlining).
func LinkSection(objs []*asm.Object) (*CellImage, error) {
	if len(objs) == 0 {
		return nil, fmt.Errorf("link: no objects")
	}
	var entry *asm.Object
	for _, o := range objs {
		if o.IsEntry {
			if entry != nil {
				return nil, fmt.Errorf("link: multiple entry objects (%s and %s)", entry.Name, o.Name)
			}
			entry = o
		}
	}
	if entry == nil {
		return nil, fmt.Errorf("link: no entry object among %d objects", len(objs))
	}
	ordered := make([]*asm.Object, 0, len(objs))
	ordered = append(ordered, entry)
	words, nLabels, nData := 0, 0, 0
	for _, o := range objs {
		if o != entry {
			ordered = append(ordered, o)
		}
		words += len(o.Code)
		nLabels += len(o.Labels)
		nData += len(o.Data)
	}

	// Every count is known before the first word is placed, so the image and
	// its tables are allocated once at their final size.
	img := &CellImage{
		Section:  entry.Section,
		Code:     make([]machine.Word, 0, words),
		DataSyms: make(map[string]int, nData),
	}

	// Pass 1: place code and build the global label and data tables.
	labels := make(map[string]int, nLabels)
	base := make([]int, len(ordered)) // base[k] is where ordered[k]'s code starts
	dataAddr := 0
	for k, o := range ordered {
		base[k] = len(img.Code)
		for l, off := range o.Labels {
			if _, dup := labels[l]; dup {
				return nil, fmt.Errorf("link: duplicate label %s", l)
			}
			labels[l] = base[k] + off
		}
		img.Code = append(img.Code, o.Code...)
		// Deterministic data layout: symbols in name order per object.
		for _, d := range inNameOrder(o.Data) {
			if _, dup := img.DataSyms[d.Name]; dup {
				return nil, fmt.Errorf("link: duplicate data symbol %s", d.Name)
			}
			img.DataSyms[d.Name] = dataAddr
			dataAddr += d.Words
		}
	}
	img.DataWords = dataAddr
	if len(img.Code) > machine.ProgMemWords {
		return nil, fmt.Errorf("link: section %d program (%d words) exceeds program memory (%d)",
			entry.Section, len(img.Code), machine.ProgMemWords)
	}
	if dataAddr > machine.DataMemWords {
		return nil, fmt.Errorf("link: section %d data (%d words) exceeds data memory (%d)",
			entry.Section, dataAddr, machine.DataMemWords)
	}

	// Pass 2: apply relocations.
	for k, o := range ordered {
		for _, r := range o.Relocs {
			wi := base[k] + r.Word
			in := &img.Code[wi][r.Unit]
			switch r.Kind {
			case asm.RelocBranch:
				target, ok := labels[r.Sym]
				if !ok {
					return nil, fmt.Errorf("link: undefined label %s (from %s)", r.Sym, o.Name)
				}
				in.Imm = int32(target)
			case asm.RelocData:
				addr, ok := img.DataSyms[r.Sym]
				if !ok {
					return nil, fmt.Errorf("link: undefined data symbol %s (from %s)", r.Sym, o.Name)
				}
				in.Imm = int32(addr)
			default:
				return nil, fmt.Errorf("link: unknown relocation kind %d", r.Kind)
			}
		}
	}
	return img, nil
}

// inNameOrder returns syms sorted by name. The list belongs to an object that
// may be a shared cache entry, so it is never reordered in place: it is
// returned as it is when already in order (the usual case) and copied
// otherwise.
func inNameOrder(syms []asm.DataSym) []asm.DataSym {
	byName := func(i, j int) bool { return syms[i].Name < syms[j].Name }
	if sort.SliceIsSorted(syms, byName) {
		return syms
	}
	syms = append([]asm.DataSym(nil), syms...)
	sort.Slice(syms, byName)
	return syms
}

// Module is a linked download module: one cell image per section, in
// section order, plus host-side stream metadata.
type Module struct {
	Name  string
	Cells []*CellImage
}

// Builder links a module incrementally: each section's objects are linked
// into a cell image the moment they are added (in any completion order), and
// Finish orders the images by section index into the final module. It is the
// streaming counterpart of LinkModule — the parallel master links each
// section's output while later sections are still compiling, so the link
// step overlaps the parallel region instead of extending the sequential
// tail. A Builder is not safe for concurrent use; the master calls it from
// its single combine loop.
type Builder struct {
	name  string
	cells map[int]*CellImage
}

// NewBuilder returns an empty incremental linker for the named module.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, cells: make(map[int]*CellImage)}
}

// Add links one section's objects now. The objects follow LinkSection's
// rules (exactly one entry, placed at address 0). Adding the same section
// index twice is an error.
func (b *Builder) Add(section int, objs []*asm.Object) error {
	if _, dup := b.cells[section]; dup {
		return fmt.Errorf("link: section %d linked twice", section)
	}
	img, err := LinkSection(objs)
	if err != nil {
		return err
	}
	b.cells[section] = img
	return nil
}

// Linked reports how many sections have been linked so far.
func (b *Builder) Linked() int { return len(b.cells) }

// Finish orders the linked cell images by section index into the download
// module. At least one section must have been added.
func (b *Builder) Finish() (*Module, error) {
	if len(b.cells) == 0 {
		return nil, fmt.Errorf("link: module %s has no sections", b.name)
	}
	idxs := make([]int, 0, len(b.cells))
	for i := range b.cells {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	m := &Module{Name: b.name}
	for _, i := range idxs {
		m.Cells = append(m.Cells, b.cells[i])
	}
	return m, nil
}

// LinkModule links every section's objects (grouped by section index) into
// a download module. sections maps section index -> objects.
func LinkModule(name string, sections map[int][]*asm.Object) (*Module, error) {
	b := NewBuilder(name)
	idxs := make([]int, 0, len(sections))
	for i := range sections {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		if err := b.Add(i, sections[i]); err != nil {
			return nil, fmt.Errorf("section %d: %w", i, err)
		}
	}
	return b.Finish()
}

// TotalWords is the module code size across all cells.
func (m *Module) TotalWords() int {
	n := 0
	for _, c := range m.Cells {
		n += len(c.Code)
	}
	return n
}
