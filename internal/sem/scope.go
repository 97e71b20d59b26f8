// Package sem implements phase 1's semantic analysis for W2: name
// resolution, type checking, and the structural rules that make each
// function an independently compilable unit (scalar-only signatures, calls
// restricted to previously declared functions of the same section).
//
// Like the paper's compiler, all semantic errors are found here, before any
// parallel work is forked; the master aborts the compilation if the checker
// reports errors.
package sem

import (
	"repro/internal/ast"
	"repro/internal/source"
	"repro/internal/types"
)

// ObjKind classifies a declared entity.
type ObjKind int

const (
	// VarObj is a local variable.
	VarObj ObjKind = iota
	// ParamObj is a function parameter.
	ParamObj
	// FuncObj is a function of a section.
	FuncObj
	// StreamObj is a module-level stream.
	StreamObj
)

func (k ObjKind) String() string {
	switch k {
	case VarObj:
		return "variable"
	case ParamObj:
		return "parameter"
	case FuncObj:
		return "function"
	case StreamObj:
		return "stream"
	}
	return "object"
}

// Object is a declared entity: variable, parameter, function, or stream.
type Object struct {
	Name string
	Kind ObjKind
	Type types.Type
	Pos  source.Pos
	// Decl is the declaring node: *ast.VarDecl, *ast.Param, *ast.FuncDecl,
	// or *ast.StreamParam.
	Decl ast.Node

	// index is the object's position in the declaration order of the scope
	// it was inserted into (an object lives in one scope); a prefix view
	// compares it with its own length.
	index int
}

// Scope is a lexical scope mapping names to objects.
type Scope struct {
	parent *Scope
	objs   map[string]*Object
	// order preserves declaration order for deterministic iteration.
	order []*Object
	// view marks a read-only prefix view (prefixView): objs is shared with
	// the viewed scope, and only the objects in order are visible.
	view bool
}

// NewScope returns a scope nested in parent (parent may be nil).
func NewScope(parent *Scope) *Scope {
	return &Scope{parent: parent, objs: make(map[string]*Object)}
}

// prefixView returns a read-only view of s as it is now: it sees the
// objects inserted so far and none inserted later, without copying them.
// The view shares s's map, so s must not be mutated while a view is being
// read from another goroutine.
func (s *Scope) prefixView() *Scope {
	n := len(s.order)
	return &Scope{parent: s.parent, objs: s.objs, order: s.order[:n:n], view: true}
}

// Insert declares obj in s. It returns the previous object with the same
// name in this scope (not outer scopes) if any, in which case obj is NOT
// inserted.
func (s *Scope) Insert(obj *Object) *Object {
	if s.view {
		panic("sem: Insert into a read-only scope view")
	}
	if prev, ok := s.objs[obj.Name]; ok {
		return prev
	}
	obj.index = len(s.order)
	s.objs[obj.Name] = obj
	s.order = append(s.order, obj)
	return nil
}

// Lookup finds name in s or any enclosing scope.
func (s *Scope) Lookup(name string) *Object {
	for sc := s; sc != nil; sc = sc.parent {
		if obj := sc.LookupLocal(name); obj != nil {
			return obj
		}
	}
	return nil
}

// LookupLocal finds name in s only.
func (s *Scope) LookupLocal(name string) *Object {
	obj := s.objs[name]
	if s.view && obj != nil && obj.index >= len(s.order) {
		return nil // inserted after the view was taken
	}
	return obj
}

// Objects returns the objects declared directly in s, in declaration order.
func (s *Scope) Objects() []*Object {
	out := make([]*Object, len(s.order))
	copy(out, s.order)
	return out
}
