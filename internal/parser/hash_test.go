package parser

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/source"
)

func hashesOf(t *testing.T, src string) map[FuncKey]FuncHash {
	t.Helper()
	var bag source.DiagBag
	m := Parse("h.w2", []byte(src), &bag)
	if m == nil || bag.HasErrors() {
		t.Fatalf("parse: %s", bag.String())
	}
	return FuncHashes(m, []byte(src))
}

const hashModule = `
module m (out y: float[2])

section 1 of 1 {
    function helper(): float {
        return 1.5;
    }
    function mid() {
        var v: float = 2.5;
        send(Y, v);
    }
    function entry() {
        send(Y, helper() * 2.0);
    }
}
`

func TestFuncHashesStableAndDistinct(t *testing.T) {
	a := hashesOf(t, hashModule)
	b := hashesOf(t, hashModule)
	if len(a) != 3 {
		t.Fatalf("hashed %d functions, want 3", len(a))
	}
	seen := map[FuncHash]bool{}
	for k, h := range a {
		if h.IsZero() {
			t.Errorf("%+v: zero hash for a parseable function", k)
		}
		if h != b[k] {
			t.Errorf("%+v: hash not deterministic", k)
		}
		if seen[h] {
			t.Errorf("%+v: hash collides with another function", k)
		}
		seen[h] = true
	}
}

// TestFuncHashesIgnoreWhitespace: indentation, trailing spaces, and blank
// lines are normalized away — reformatting must not invalidate any cache
// entry.
func TestFuncHashesIgnoreWhitespace(t *testing.T) {
	reformatted := strings.ReplaceAll(hashModule, "    ", "\t  ")
	reformatted = strings.ReplaceAll(reformatted, ";\n", ";\n\n")
	a, b := hashesOf(t, hashModule), hashesOf(t, reformatted)
	for k, h := range a {
		if h != b[k] {
			t.Errorf("%+v: whitespace-only edit changed the hash", k)
		}
	}
}

// TestFuncHashesEditLocality is the incremental keying contract: editing one
// function's body changes its own hash and its (transitive) callers' — and
// nothing else.
func TestFuncHashesEditLocality(t *testing.T) {
	edited := strings.Replace(hashModule, "var v: float = 2.5;", "var v: float = 9.5;", 1)
	a, b := hashesOf(t, hashModule), hashesOf(t, edited)
	midKey := FuncKey{Section: 1, Index: 1}
	for k, h := range a {
		changed := h != b[k]
		if k == midKey && !changed {
			t.Error("edited function kept its hash")
		}
		if k != midKey && changed {
			t.Errorf("%+v: hash changed without an edit", k)
		}
	}

	// Editing a callee must also change its callers (the callee is inlined),
	// while unrelated functions keep their hashes.
	editedCallee := strings.Replace(hashModule, "return 1.5;", "return 4.5;", 1)
	c := hashesOf(t, editedCallee)
	if a[FuncKey{Section: 1, Index: 0}] == c[FuncKey{Section: 1, Index: 0}] {
		t.Error("edited callee kept its hash")
	}
	if a[FuncKey{Section: 1, Index: 2}] == c[FuncKey{Section: 1, Index: 2}] {
		t.Error("caller's hash survived a callee edit that changes its inlined body")
	}
	if a[midKey] != c[midKey] {
		t.Error("non-caller's hash changed on a callee edit")
	}
}

// TestFuncHashesCoverModuleAndSectionHeader: the module prelude and section
// header are compilation inputs (stream declarations, section index/count),
// so editing them must invalidate every function.
func TestFuncHashesCoverModuleAndSectionHeader(t *testing.T) {
	renamed := strings.Replace(hashModule, "module m ", "module n ", 1)
	a, b := hashesOf(t, hashModule), hashesOf(t, renamed)
	for k, h := range a {
		if h == b[k] {
			t.Errorf("%+v: hash survived a module-header edit", k)
		}
	}
}

// TestParseOutlineFillsSpansAndHashes: the master-facing entry point carries
// both the scheduling metrics and the incremental fields.
func TestParseOutlineFillsSpansAndHashes(t *testing.T) {
	src := []byte(hashModule)
	var bag source.DiagBag
	o := ParseOutline("h.w2", src, &bag)
	if o == nil || bag.HasErrors() {
		t.Fatalf("outline: %s", bag.String())
	}
	for _, fo := range o.AllFunctions() {
		if fo.Hash.IsZero() {
			t.Errorf("%s: outline hash is zero", fo.Name)
		}
		if fo.SpanEnd <= fo.SpanStart || fo.SpanEnd > len(src) {
			t.Errorf("%s: bad span [%d,%d)", fo.Name, fo.SpanStart, fo.SpanEnd)
		}
		decl := string(src[fo.SpanStart:fo.SpanEnd])
		if !strings.HasPrefix(decl, "function "+fo.Name) || !strings.HasSuffix(decl, "}") {
			t.Errorf("%s: span does not delimit the declaration: %q", fo.Name, decl)
		}
		if src[fo.BodyStart] != '{' {
			t.Errorf("%s: BodyStart %d is not the body brace", fo.Name, fo.BodyStart)
		}
	}
}

// TestDirectCallsLatestDeclarationWins: a call to a name declared more than
// once resolves to the latest declaration before the caller — never to a
// later one, never to the caller itself — and sectionCalls, which enters each
// name into one shared index only after its function has been scanned, gives
// the same answers as DirectCalls does from an index built per function.
func TestDirectCallsLatestDeclarationWins(t *testing.T) {
	const src = `
module m (out y: float[2])

section 1 of 1 {
    function helper(): float {
        return 1.0;
    }
    function other(): float {
        return helper();
    }
    function helper(): float {
        return helper() + 1.0;
    }
    function entry() {
        send(Y, helper() + other() + helper());
    }
}
`
	var bag source.DiagBag
	m := Parse("shadow.w2", []byte(src), &bag)
	if m == nil || bag.HasErrors() {
		t.Fatalf("parse: %s", bag.String())
	}
	sec := m.Sections[0]
	want := [][]int{nil, {0}, {0}, {1, 2}}
	all := sectionCalls(sec)
	for i := range sec.Funcs {
		if got := DirectCalls(sec, i); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("DirectCalls(%d) = %v, want %v", i, got, want[i])
		}
		if !reflect.DeepEqual(all[i], want[i]) {
			t.Errorf("sectionCalls()[%d] = %v, want %v", i, all[i], want[i])
		}
	}
}
