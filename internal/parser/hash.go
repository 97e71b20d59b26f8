package parser

import (
	"crypto/sha256"
	"sort"

	"repro/internal/ast"
)

// FuncHash is the incremental content address of one function's compilation
// inputs (see FuncHashes). It shares its underlying type with
// fcache.FuncHash — the cache package cannot be imported from here without
// a cycle — and converts directly.
type FuncHash [sha256.Size]byte

// IsZero reports whether h is the zero (absent) hash.
func (h FuncHash) IsZero() bool { return h == FuncHash{} }

// FuncKey locates one function in a module: section number (1-based) and
// position within the section (0-based).
type FuncKey struct {
	Section int
	Index   int
}

// funcHashVersion domain-separates FuncHash values: bump it whenever the
// hashed inputs or normalization change, so stale persistent cache entries
// from an older scheme can never be returned.
const funcHashVersion = "w2-funchash-v1\x00"

// DirectCalls returns the indices (ascending, deduplicated) of the earlier
// same-section functions that sec.Funcs[i] calls directly. Only earlier
// functions are callable in W2 (the checker enforces declaration order), and
// only same-section calls exist, so these are exactly the functions whose
// bodies get inlined into sec.Funcs[i] during lowering — the reason a
// function's incremental hash must cover its callees. When several earlier
// functions share a name, the latest declaration wins, matching the name
// resolution used by lowering.
//
// It indexes the i earlier names for this one answer; HashFuncs returns every
// function's calls from an index built once per section.
func DirectCalls(sec *ast.Section, i int) []int {
	ix := newCallIndex(i)
	for j := 0; j < i; j++ {
		ix.declare(sec.Funcs[j].Name, j)
	}
	return ix.calls(sec.Funcs[i])
}

// sectionCalls returns DirectCalls(sec, i) for every i from one pass over
// the section and one name index: function i's calls are resolved before its
// own name is entered, so the index holds exactly the earlier functions, and
// a later declaration of a name overwrites an earlier one (latest wins).
func sectionCalls(sec *ast.Section) [][]int {
	ix := newCallIndex(len(sec.Funcs))
	out := make([][]int, len(sec.Funcs))
	for i, fn := range sec.Funcs {
		out[i] = ix.calls(fn)
		ix.declare(fn.Name, i)
	}
	return out
}

// callIndex resolves call names to the functions declared so far. It is
// scratch for one walk over one section, owned by the goroutine walking it.
type callIndex struct {
	byName map[string]int
	// seen[j] == stamp marks j as already collected for the function being
	// scanned; bumping stamp clears every mark at once.
	seen  []int
	stamp int
	found []int
}

func newCallIndex(n int) *callIndex {
	return &callIndex{byName: make(map[string]int, n), seen: make([]int, n)}
}

func (ix *callIndex) declare(name string, i int) { ix.byName[name] = i }

// calls returns the ascending indices of the declared functions fn calls.
func (ix *callIndex) calls(fn *ast.FuncDecl) []int {
	ix.stamp++
	ix.found = ix.found[:0]
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if j, ok := ix.byName[call.Fun.Name]; ok && ix.seen[j] != ix.stamp {
				ix.seen[j] = ix.stamp
				ix.found = append(ix.found, j)
			}
		}
		return true
	})
	return sortedCopy(ix.found)
}

// sortedCopy returns xs sorted ascending in a slice of its exact size (nil
// when empty), leaving the scratch xs free for reuse.
func sortedCopy(xs []int) []int {
	if len(xs) == 0 {
		return nil
	}
	out := append(make([]int, 0, len(xs)), xs...)
	sort.Ints(out)
	return out
}

// transitiveCalls returns, for every function of sec, the ascending indices
// of all earlier functions it transitively depends on (direct callees plus
// their callees, and so on), given the section's direct calls. Dependencies
// always point at strictly smaller indices, so one forward pass suffices.
func transitiveCalls(direct [][]int) [][]int {
	closure := make([][]int, len(direct))
	seen := make([]int, len(direct)) // seen[j] == i+1: j already in closure[i]
	var found []int
	for i := range direct {
		found = found[:0]
		add := func(j int) {
			if seen[j] != i+1 {
				seen[j] = i + 1
				found = append(found, j)
			}
		}
		for _, j := range direct[i] {
			add(j)
			for _, k := range closure[j] {
				add(k)
			}
		}
		closure[i] = sortedCopy(found)
	}
	return closure
}

// appendNorm appends the whitespace-normalized form of span to dst followed
// by a separator: each line with leading/trailing spaces, tabs, and carriage
// returns stripped, blank lines dropped, '\n' after every kept line. Edits
// to indentation or blank lines therefore leave every FuncHash unchanged.
// It appends at most len(span)+2 bytes.
func appendNorm(dst, span []byte) []byte {
	start := 0
	flush := func(end int) {
		lo, hi := start, end
		for lo < hi && (span[lo] == ' ' || span[lo] == '\t' || span[lo] == '\r') {
			lo++
		}
		for hi > lo && (span[hi-1] == ' ' || span[hi-1] == '\t' || span[hi-1] == '\r') {
			hi--
		}
		if lo < hi {
			dst = append(dst, span[lo:hi]...)
			dst = append(dst, '\n')
		}
	}
	for i, b := range span {
		if b == '\n' {
			flush(i)
			start = i + 1
		}
	}
	flush(len(span))
	return append(dst, 0)
}

// span extracts src[start:end], reporting whether the bounds are valid.
// Invalid bounds (a hand-built AST with zero positions, or error recovery)
// yield ok=false, which degrades the function to a zero — uncacheable —
// hash rather than a colliding one.
func span(src []byte, start, end int) ([]byte, bool) {
	if start < 0 || end < start || end > len(src) {
		return nil, false
	}
	return src[start:end], true
}

// funcSpan returns the byte span of one function declaration: the function
// keyword through its body's closing brace, inclusive.
func funcSpan(src []byte, fn *ast.FuncDecl) ([]byte, bool) {
	if fn.Body == nil {
		return nil, false
	}
	return span(src, fn.FuncPos.Offset, fn.Body.RbracePos.Offset+1)
}

// sectionHashes computes the FuncHash of every function in sec, and returns
// the section's direct calls alongside. moduleHeader is the module prelude
// (module declaration and stream parameters) that every function's
// compilation can observe through the checker. A function's hash covers, in
// order: the version tag, the module header, the section header (section
// keyword through its opening brace — the section index and count live
// here), the spans of its transitive callees in ascending index order, its
// own span, and its entry-function flag (the last function of a section
// compiles differently: it becomes the cell program); every span enters in
// its normalized form (appendNorm). Any span that cannot be extracted zeroes
// the hash for the affected functions, making them uncacheable rather than
// wrongly shared.
func sectionHashes(src []byte, moduleHeader []byte, sec *ast.Section) ([]FuncHash, [][]int) {
	n := len(sec.Funcs)
	hashes := make([]FuncHash, n)
	direct := sectionCalls(sec)
	header, headerOK := span(src, sec.SectionPos.Offset, sec.LbracePos.Offset+1)
	if !headerOK {
		return hashes, direct
	}

	// A span is hashed once for its own function and once more for every
	// caller above it, so each is normalized once, into one array sized for
	// all of them; norm[i] == nil marks a span that could not be extracted.
	spans := make([][]byte, n)
	spanOK := make([]bool, n)
	size := 0
	for i, fn := range sec.Funcs {
		if spans[i], spanOK[i] = funcSpan(src, fn); spanOK[i] {
			size += len(spans[i]) + 2
		}
	}
	norm := make([][]byte, n)
	slab := make([]byte, 0, size)
	for i, sp := range spans {
		if spanOK[i] {
			at := len(slab)
			slab = appendNorm(slab, sp)
			norm[i] = slab[at:len(slab):len(slab)]
		}
	}
	prefix := append([]byte(nil), funcHashVersion...)
	prefix = appendNorm(prefix, moduleHeader)
	prefix = appendNorm(prefix, header)

	closure := transitiveCalls(direct)
	hh := sha256.New()
	entryFlag := [2][]byte{[]byte("entry=false"), []byte("entry=true")}
	for i := range sec.Funcs {
		ok := norm[i] != nil
		for _, j := range closure[i] {
			ok = ok && norm[j] != nil
		}
		if !ok {
			continue
		}
		hh.Reset()
		hh.Write(prefix)
		for _, j := range closure[i] {
			hh.Write(norm[j])
		}
		hh.Write(norm[i])
		flag := entryFlag[0]
		if i == n-1 {
			flag = entryFlag[1]
		}
		hh.Write(flag)
		hh.Sum(hashes[i][:0])
	}
	return hashes, direct
}

// moduleHeaderSpan returns the module prelude: everything before the first
// section keyword.
func moduleHeaderSpan(src []byte, m *ast.Module) ([]byte, bool) {
	if len(m.Sections) == 0 {
		return nil, true
	}
	return span(src, 0, m.Sections[0].SectionPos.Offset)
}

// FuncHashes computes the incremental content address of every function of
// an already-parsed module against its exact source bytes. Functions whose
// byte spans cannot be recovered (hand-built ASTs without positions) get the
// zero hash, which every cache tier treats as uncacheable.
func FuncHashes(m *ast.Module, src []byte) map[FuncKey]FuncHash {
	hashes, _ := HashFuncs(m, src)
	return hashes
}

// HashFuncs is FuncHashes that also returns what it learned on the way: the
// direct calls (see DirectCalls) of every function, from the one name index
// per section that the hashes' callee closure was built on.
func HashFuncs(m *ast.Module, src []byte) (map[FuncKey]FuncHash, map[FuncKey][]int) {
	n := m.NumFunctions()
	hashes := make(map[FuncKey]FuncHash, n)
	calls := make(map[FuncKey][]int, n)
	hashSections(m, src, func(si, i int, h FuncHash, direct []int) {
		k := FuncKey{Section: m.Sections[si].Index, Index: i}
		hashes[k] = h
		calls[k] = direct
	})
	return hashes, calls
}

// hashSections computes what HashFuncs returns and hands it to f function
// by function: si is the section's position in m.Sections, i the function's
// index within it.
func hashSections(m *ast.Module, src []byte, f func(si, i int, h FuncHash, direct []int)) {
	header, ok := moduleHeaderSpan(src, m)
	if !ok {
		header = nil
	}
	for si, sec := range m.Sections {
		hs, direct := sectionHashes(src, header, sec)
		for i := range sec.Funcs {
			f(si, i, hs[i], direct[i])
		}
	}
}
