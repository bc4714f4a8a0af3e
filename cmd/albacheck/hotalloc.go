package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// hotallocAnalyzer makes PR 7's zero-alloc claims compile-time-checked:
// every function reachable from a declared hot root (the flat batch
// kernels, stream.Windower.PushAt, the server's classify call) or
// annotated //albacheck:hotpath is scanned for allocation sources —
// append growth, make/new, slice and map literals, closures and go/defer
// inside loops, and interface boxing at in-loop call sites.
// Reachability follows the cross-package call graph and stops at
// //albacheck:coldpath annotations, which must carry a reason (an
// unreasoned coldpath is itself a finding, like an unreasoned ignore).
//
// The point is drift detection, not prohibition: a deliberate
// allocation on a hot path stays, suppressed with a written reason that
// reviewers see; an accidental one fails the sweep before it fails the
// benchmark gate.
var hotallocAnalyzer = &Analyzer{
	Name:      "hotalloc",
	Doc:       "allocation sources in functions reachable from declared hot roots",
	RunGlobal: runHotalloc,
}

// hotRoots are the always-on roots of the scan: the serving-path
// kernels whose benchmarks BENCH_4/BENCH_7 gate. Annotating a function
// //albacheck:hotpath adds it to this set without editing the tool.
var hotRoots = []string{
	"albadross/internal/ml/flat.Forest.PredictProbaInto",
	"albadross/internal/ml/flat.GBM.PredictProbaInto",
	"albadross/internal/stream.Windower.PushAt",
	"albadross/internal/server.Server.classify",
}

func runHotalloc(g *GlobalPass) {
	// A missing built-in root means the kernel was renamed without
	// updating the tool — report it, but only when its package is in the
	// sweep (fixture runs see a single synthetic package).
	for _, root := range hotRoots {
		if _, ok := g.Prog.Funcs[root]; ok {
			continue
		}
		pkgPath := root[:strings.LastIndex(root[:strings.LastIndex(root, ".")], ".")]
		for _, u := range g.Prog.Units {
			if u.Path == pkgPath && len(u.Files) > 0 {
				g.Reportf(u.Files[0].Package, "declared hot root %s not found; the kernel moved — update hotRoots in cmd/albacheck", root)
			}
		}
	}

	roots := append([]string{}, hotRoots...)
	for _, key := range g.Prog.FuncKeys() {
		node := g.Prog.Funcs[key]
		if node.Hot {
			roots = append(roots, key)
		}
		if node.Cold && node.ColdReason == "" {
			g.Reportf(node.Decl.Pos(), "albacheck:coldpath needs a written reason (why is %s off the steady-state path?)", key)
		}
	}

	reach := g.Prog.Reachable(roots)
	for _, key := range sortedKeys(reach) {
		scanHotFunc(g, g.Prog.Funcs[key], reach[key])
	}
}

// scanHotFunc reports every allocation source in one hot function.
func scanHotFunc(g *GlobalPass, node *FuncNode, edge reachEdge) {
	info := node.Unit.Info
	uncapped := uncappedLocals(info, node.Decl.Body)
	via := ""
	if edge.from != "" && edge.from != edge.root {
		via = " via " + edge.from
	}
	inspectWithStack(node.Decl.Body, func(n ast.Node, stack []ast.Node) {
		inLoop := loopDepth(stack) > 0
		switch x := n.(type) {
		case *ast.CallExpr:
			switch builtinName(info, x) {
			case "append":
				classifyAppend(g, info, node, x, stack, uncapped, edge, via)
			case "make", "new":
				g.Reportf(x.Pos(), "hot path (reachable from %s%s): %s allocates every call", edge.root, via, builtinName(info, x))
			default:
				if inLoop {
					checkBoxing(g, info, x, edge, via)
				}
			}
		case *ast.CompositeLit:
			t := info.TypeOf(x)
			if t == nil {
				return
			}
			switch t.Underlying().(type) {
			case *types.Slice, *types.Map:
				g.Reportf(x.Pos(), "hot path (reachable from %s%s): composite literal allocates every call", edge.root, via)
			default:
				if len(stack) > 0 {
					if un, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && un.Op.String() == "&" {
						g.Reportf(x.Pos(), "hot path (reachable from %s%s): &composite literal heap-allocates every call", edge.root, via)
					}
				}
			}
		case *ast.FuncLit:
			if inLoop {
				g.Reportf(x.Pos(), "hot path (reachable from %s%s): closure inside a loop allocates per iteration", edge.root, via)
			}
		case *ast.GoStmt:
			if inLoop {
				g.Reportf(x.Pos(), "hot path (reachable from %s%s): goroutine spawn inside a loop allocates per iteration", edge.root, via)
			}
		case *ast.DeferStmt:
			if inLoop {
				g.Reportf(x.Pos(), "hot path (reachable from %s%s): defer inside a loop accumulates until the function returns", edge.root, via)
			}
		}
	})
}

// loopDepth counts for/range statements in the ancestor chain, stopping
// at a function-literal boundary only for nodes nested in a closure
// that is not itself in a loop (the closure runs when called, and hot
// closures are the per-row kernels — their bodies are still hot, so
// loops there count on their own).
func loopDepth(stack []ast.Node) int {
	depth := 0
	for _, anc := range stack {
		switch anc.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			depth++
		}
	}
	return depth
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
		return id.Name
	}
	return ""
}

// classifyAppend separates the self-append idiom (s = append(s, ...)
// on a slice with reserved capacity — free at steady state) from
// appends that must grow: results assigned elsewhere, results not
// reassigned at all, and self-appends to slices declared without
// capacity.
func classifyAppend(g *GlobalPass, info *types.Info, node *FuncNode, call *ast.CallExpr, stack []ast.Node, uncapped map[types.Object]bool, edge reachEdge, via string) {
	if len(call.Args) == 0 {
		return
	}
	base := appendBase(call.Args[0])

	lhs := assignTarget(call, stack)
	if lhs == nil {
		g.Reportf(call.Pos(), "hot path (reachable from %s%s): append result is not reassigned to %s — a growth here allocates a new backing array nobody keeps", edge.root, via, exprString(base))
		return
	}
	if exprString(lhs) != exprString(base) {
		g.Reportf(call.Pos(), "hot path (reachable from %s%s): append(%s, ...) assigned to %s allocates when it outgrows the shared backing array", edge.root, via, exprString(base), exprString(lhs))
		return
	}
	if id, ok := ast.Unparen(base).(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil && uncapped[obj] {
			g.Reportf(call.Pos(), "hot path (reachable from %s%s): append to %s, declared without capacity — every growth allocates; pre-size it", edge.root, via, id.Name)
		}
	}
}

// appendBase strips parens and slicing from append's first argument to
// the expression whose backing array the append reuses: append(s[:i],
// ...) reuses s.
func appendBase(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return e
		}
	}
}

// assignTarget finds the LHS expression the call's result lands in when
// the immediately enclosing statement is a same-arity assignment; nil
// otherwise (call used as an argument, return value, etc.).
func assignTarget(call *ast.CallExpr, stack []ast.Node) ast.Expr {
	// Walk out through parens to the first structural parent.
	i := len(stack) - 1
	for i >= 0 {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			i--
			continue
		}
		break
	}
	if i < 0 {
		return nil
	}
	a, ok := stack[i].(*ast.AssignStmt)
	if !ok || len(a.Lhs) != len(a.Rhs) {
		return nil
	}
	for j, rhs := range a.Rhs {
		if ast.Unparen(rhs) == call {
			return a.Lhs[j]
		}
	}
	return nil
}

// uncappedLocals collects local slice variables declared with no
// capacity: var s []T, s := []T{}, s := make([]T, 0). Appending to
// these grows from zero.
func uncappedLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	mark := func(id *ast.Ident) {
		if obj := info.Defs[id]; obj != nil {
			if _, ok := obj.Type().Underlying().(*types.Slice); ok {
				out[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ValueSpec:
			if len(x.Values) == 0 {
				for _, name := range x.Names {
					mark(name)
				}
			}
		case *ast.AssignStmt:
			if x.Tok.String() != ":=" || len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for j, rhs := range x.Rhs {
				id, ok := x.Lhs[j].(*ast.Ident)
				if !ok {
					continue
				}
				switch r := ast.Unparen(rhs).(type) {
				case *ast.CompositeLit:
					if len(r.Elts) == 0 {
						if t := info.TypeOf(r); t != nil {
							if _, isSlice := t.Underlying().(*types.Slice); isSlice {
								mark(id)
							}
						}
					}
				case *ast.CallExpr:
					if builtinName(info, r) == "make" && len(r.Args) == 2 {
						if lit, ok := ast.Unparen(r.Args[1]).(*ast.BasicLit); ok && lit.Value == "0" {
							mark(id)
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// checkBoxing reports concrete non-pointer values passed to interface
// parameters at in-loop call sites — each such pass may heap-allocate
// the box, once per iteration.
func checkBoxing(g *GlobalPass, info *types.Info, call *ast.CallExpr, edge reachEdge, via string) {
	f := funcFor(info, call)
	if f == nil {
		return
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramT types.Type
		switch {
		case i < params.Len()-1 || (i == params.Len()-1 && !sig.Variadic()):
			paramT = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if slice, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				paramT = slice.Elem()
			}
		}
		if paramT == nil || !types.IsInterface(paramT) {
			continue
		}
		argT := info.TypeOf(arg)
		if argT == nil || types.IsInterface(argT) {
			continue
		}
		if _, isPtr := argT.Underlying().(*types.Pointer); isPtr {
			continue
		}
		if argT == types.Typ[types.UntypedNil] {
			continue
		}
		g.Reportf(arg.Pos(), "hot path (reachable from %s%s): %s value boxed into %s parameter inside a loop — may allocate per iteration", edge.root, via, argT, paramT)
	}
}
