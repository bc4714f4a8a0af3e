package main

import (
	"go/ast"
	"go/types"
)

// atomicsafeAnalyzer enforces the registry/lifecycle swap discipline on
// every struct field that opted into atomics, in either style:
//
//   - a field declared as a sync/atomic type (atomic.Bool,
//     atomic.Pointer[T], ...) may only be touched through that type's
//     methods — assigning it, copying it out, or reading it bare
//     bypasses the atomic protocol the declaration promised;
//   - a field accessed through the sync/atomic package functions
//     (atomic.LoadInt64(&s.n)) anywhere must be accessed that way
//     everywhere — a plain read elsewhere, with or without some other
//     mutex held, does not synchronize with the atomic writers and is
//     a data race.
//
// The first style is what the repo uses (registry's atomic.Pointer
// snapshot swap, the lifecycle's closed flag and promotion counts, the
// obs counters); the second exists so a regression to the old mixed
// style is caught, not grandfathered.
var atomicsafeAnalyzer = &Analyzer{
	Name: "atomicsafe",
	Doc:  "struct fields used atomically in one place and plainly in another",
	Run:  runAtomicsafe,
}

func runAtomicsafe(p *Pass) {
	// First sweep: every field reached through a sync/atomic package
	// function (the &s.f argument) is atomic by contract everywhere.
	viaAtomicFn := map[*types.Var]bool{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicFnCall(p.Info, call) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok {
					continue
				}
				if fld := selectedField(p.Info, un.X); fld != nil {
					viaAtomicFn[fld] = true
				}
			}
			return true
		})
	}

	// Second sweep: classify every field selection by its context.
	for _, f := range p.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return
			}
			fld := selectedField(p.Info, sel)
			if fld == nil {
				return
			}
			switch {
			case isAtomicType(fld.Type()):
				if !isAtomicMethodContext(stack, sel) {
					p.Reportf(sel.Pos(), "field %s is %s: use its atomic methods, not a plain access (the declaration promises every reader the atomic protocol)", fld.Name(), fld.Type())
				}
			case viaAtomicFn[fld]:
				if !isAtomicFnContext(p.Info, stack) {
					p.Reportf(sel.Pos(), "field %s is accessed via sync/atomic elsewhere in this package; this plain access does not synchronize with those (a mutex here does not compose with atomics there)", fld.Name())
				}
			}
		})
	}
}

// selectedField resolves a selector (or any expression) to the struct
// field it selects, nil otherwise.
func selectedField(info *types.Info, e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return nil
	}
	v, ok := selection.Obj().(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v
}

// isAtomicType reports whether t is a named type from sync/atomic
// (atomic.Bool, atomic.Int64, atomic.Pointer[T], atomic.Value, ...).
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// isAtomicFnCall reports a call to a sync/atomic package-level function
// (atomic.LoadInt64, atomic.AddUint64, ...).
func isAtomicFnCall(info *types.Info, call *ast.CallExpr) bool {
	f := funcFor(info, call)
	return f != nil && !isMethod(f) && funcPkgPath(f) == "sync/atomic"
}

// isAtomicMethodContext reports whether sel (a selection of an
// atomic-typed field) sits in one of the two sanctioned contexts: the
// receiver of a method call (s.f.Load()) or an address-of (&s.f, a
// local alias that is itself used through methods).
func isAtomicMethodContext(stack []ast.Node, sel *ast.SelectorExpr) bool {
	if len(stack) == 0 {
		return false
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.SelectorExpr:
		// s.f.Load(): sel is the X of a method selector whose own parent
		// is the call. The method must belong to the atomic type, which
		// the type checker guarantees when the selection resolves — any
		// selector on an atomic type is one of its methods (the types
		// export no fields).
		if parent.X != sel {
			return false
		}
		if len(stack) < 2 {
			return false
		}
		call, ok := stack[len(stack)-2].(*ast.CallExpr)
		return ok && ast.Unparen(call.Fun) == parent
	case *ast.UnaryExpr:
		return parent.Op.String() == "&"
	case *ast.ParenExpr:
		// (s.f).Load() — rare, but recurse one level through the parens.
		return isAtomicMethodContext(stack[:len(stack)-1], sel)
	}
	return false
}

// isAtomicFnContext reports whether the ancestor chain shows the
// selection being passed as &s.f to a sync/atomic package function.
func isAtomicFnContext(info *types.Info, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.UnaryExpr:
			if anc.Op.String() != "&" {
				return false
			}
		case *ast.ParenExpr:
			// transparent
		case *ast.CallExpr:
			return isAtomicFnCall(info, anc)
		default:
			return false
		}
	}
	return false
}
