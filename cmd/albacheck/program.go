package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the cross-package layer of the driver: a whole-program
// view (every type-checked package of one run) plus the call graph the
// global analyzers (goroleak, hotalloc) walk. Per-package analyzers see
// a Pass; global analyzers see a GlobalPass wrapping a Program.

// PkgUnit is one type-checked package of a run.
type PkgUnit struct {
	// Files are the package's non-test files, sorted by file name.
	Files []*ast.File
	// Pkg is the type-checked package (possibly partial on type errors).
	Pkg *types.Package
	// Info holds the type-checker's fact tables for Files.
	Info *types.Info
	// Path is the module-qualified import path.
	Path string
}

// FuncNode is one function or method declaration in the call graph.
type FuncNode struct {
	// Key is the function's stable identity: "pkgpath.Name" for
	// functions, "pkgpath.Recv.Name" for methods (pointer receivers
	// stripped) — the same shape errsilent's allowlist uses.
	Key string
	// Decl is the declaration, body included.
	Decl *ast.FuncDecl
	// Unit is the package the declaration lives in.
	Unit *PkgUnit
	// Callees are the keys of every statically resolved call in the
	// body (function literals included), deduplicated, in source order.
	// Calls through interfaces or function values do not resolve and
	// are absent — traversals stop there, which is the documented
	// approximation.
	Callees []string
	// Hot marks a //albacheck:hotpath annotation: the function is a
	// root of the hot-allocation scan.
	Hot bool
	// Cold marks a //albacheck:coldpath annotation: reachability
	// traversals neither check nor descend through this function.
	Cold bool
	// ColdReason is the mandatory justification after
	// //albacheck:coldpath; empty means the annotation is malformed
	// (hotalloc reports it at the declaration).
	ColdReason string
}

// Program is the whole-program view handed to global analyzers.
type Program struct {
	// Fset positions every file of the run.
	Fset *token.FileSet
	// Units are the type-checked packages, in sweep order.
	Units []*PkgUnit
	// Funcs indexes every declared function and method by Key.
	Funcs map[string]*FuncNode
	// keys holds the function keys in deterministic (insertion) order,
	// for stable traversal.
	keys []string
}

// hotpathMarker and coldpathMarker are the annotation comments of the
// hot-allocation contract (see docs/STATIC_ANALYSIS.md): hotpath
// declares an always-on root checked by hotalloc, coldpath declares a
// reachable callee that is off the steady-state path (reason required).
const (
	hotpathMarker  = "//albacheck:hotpath"
	coldpathMarker = "//albacheck:coldpath"
)

// buildProgram assembles the call graph over every scanned package.
func buildProgram(fset *token.FileSet, units []*PkgUnit) *Program {
	prog := &Program{Fset: fset, Units: units, Funcs: map[string]*FuncNode{}}
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Body == nil {
					continue
				}
				obj, ok := u.Info.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Key: funcKey(obj), Decl: d, Unit: u}
				readAnnotations(node, d.Doc)
				node.Callees = calleeKeys(u.Info, d.Body)
				if _, dup := prog.Funcs[node.Key]; !dup {
					prog.keys = append(prog.keys, node.Key)
				}
				prog.Funcs[node.Key] = node
			}
		}
	}
	return prog
}

// readAnnotations scans a declaration's doc comment for the hotpath and
// coldpath markers.
func readAnnotations(node *FuncNode, doc *ast.CommentGroup) {
	if doc == nil {
		return
	}
	for _, c := range doc.List {
		switch {
		case strings.HasPrefix(c.Text, hotpathMarker):
			node.Hot = true
		case strings.HasPrefix(c.Text, coldpathMarker):
			node.Cold = true
			node.ColdReason = strings.TrimSpace(strings.TrimPrefix(c.Text, coldpathMarker))
		}
	}
}

// calleeKeys resolves every statically known call under root to its
// function key, deduplicated in source order. Function literals are
// attributed to the enclosing declaration.
func calleeKeys(info *types.Info, root ast.Node) []string {
	var keys []string
	seen := map[string]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := funcFor(info, call)
		if f == nil {
			return true
		}
		if k := funcKey(f); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
		return true
	})
	return keys
}

// funcKey renders a function's stable cross-package identity:
// "pkgpath.Name" for package functions, "pkgpath.Recv.Name" for methods
// with the pointer stripped from the receiver. Matches the declaration
// side (Info.Defs) and the call side (funcFor) alike.
func funcKey(f *types.Func) string {
	name := f.Name()
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		recvName := recv.String()
		if named, ok := recv.(*types.Named); ok {
			recvName = named.Obj().Name()
			if p := named.Obj().Pkg(); p != nil {
				recvName = p.Path() + "." + recvName
			}
		}
		return recvName + "." + name
	}
	if p := funcPkgPath(f); p != "" {
		return p + "." + name
	}
	return name
}

// reachEdge records how a function became reachable: the key of the
// caller one step closer to a root ("" for roots themselves).
type reachEdge struct {
	from string
	root string
}

// Reachable walks the call graph breadth-first from the given root keys
// and returns every non-cold function reachable without passing through
// a //albacheck:coldpath declaration. Roots absent from the graph are
// skipped (the caller decides whether that is an error).
func (prog *Program) Reachable(roots []string) map[string]reachEdge {
	out := map[string]reachEdge{}
	var queue []string
	for _, r := range roots {
		node, ok := prog.Funcs[r]
		if !ok || node.Cold {
			continue
		}
		if _, dup := out[r]; dup {
			continue
		}
		out[r] = reachEdge{root: r}
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, callee := range prog.Funcs[cur].Callees {
			node, ok := prog.Funcs[callee]
			if !ok || node.Cold {
				continue
			}
			if _, dup := out[callee]; dup {
				continue
			}
			out[callee] = reachEdge{from: cur, root: out[cur].root}
			queue = append(queue, callee)
		}
	}
	return out
}

// FuncKeys returns every declared function key in deterministic order.
func (prog *Program) FuncKeys() []string { return prog.keys }

// GlobalPass carries the whole program through one global analyzer run.
type GlobalPass struct {
	// Prog is the call-graph view over every scanned package.
	Prog *Program
	// RootDir is the module root.
	RootDir string

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (g *GlobalPass) Reportf(pos token.Pos, format string, args ...interface{}) {
	pp := g.Prog.Fset.Position(pos)
	*g.diags = append(*g.diags, Diagnostic{
		Analyzer: g.analyzer.Name,
		File:     pp.Filename,
		Line:     pp.Line,
		Col:      pp.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// sortedKeys returns a map's string keys in sorted order — global
// analyzers iterate maps through this so reports stay deterministic.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
