package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// goroleakAnalyzer flags goroutines with no join path: a `go` statement
// whose body — followed transitively through the call graph — never
// touches a sync.WaitGroup.Done, a channel operation (send, receive,
// close, select, range-over-channel), or a context cancellation check
// (ctx.Done / ctx.Err). Such a goroutine cannot be waited on or told to
// stop; under shutdown it either leaks or races teardown. The
// concurrency surface this guards grew across PRs 5–10 (the runner
// fan-out, the lifecycle shadow worker, the fleet shard workers), and
// every one of those loops is joinable by construction —
// this keeps the next one honest.
//
// Spawns whose callee cannot be resolved statically (interface methods,
// function values) are skipped rather than guessed at.
var goroleakAnalyzer = &Analyzer{
	Name:      "goroleak",
	Doc:       "goroutines with no reachable join path (WaitGroup.Done, channel op, or context cancellation)",
	RunGlobal: runGoroleak,
}

func runGoroleak(g *GlobalPass) {
	for _, u := range g.Prog.Units {
		for _, f := range u.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				checkSpawn(g, u, gs)
				return true
			})
		}
	}
}

// checkSpawn resolves one go statement's body and searches it (and
// every statically reachable repo function) for a join signal.
func checkSpawn(g *GlobalPass, u *PkgUnit, gs *ast.GoStmt) {
	visited := map[string]bool{}
	var pending []string

	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		if hasJoinSignal(u.Info, fun.Body) {
			return
		}
		pending = calleeKeys(u.Info, fun.Body)
	default:
		f := funcFor(u.Info, gs.Call)
		if f == nil {
			return // function value or interface method: unresolvable, skip
		}
		pending = append(pending, funcKey(f))
	}

	for len(pending) > 0 {
		key := pending[0]
		pending = pending[1:]
		if visited[key] {
			continue
		}
		visited[key] = true
		node, ok := g.Prog.Funcs[key]
		if !ok {
			continue // out-of-repo callee: bodies unavailable
		}
		if hasJoinSignal(node.Unit.Info, node.Decl.Body) {
			return
		}
		pending = append(pending, node.Callees...)
	}
	g.Reportf(gs.Pos(), "goroutine has no join path: no WaitGroup.Done, channel operation, or context cancellation is reachable from its body, so it cannot be waited on or stopped")
}

// hasJoinSignal reports whether the subtree contains a construct that
// lets the goroutine be joined or cancelled: a channel operation in any
// form, a WaitGroup.Done, or a context Done/Err check.
func hasJoinSignal(info *types.Info, root ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if isBuiltinClose(info, x) || isJoinCall(info, x) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isBuiltinClose reports a call to the close builtin.
func isBuiltinClose(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin && id.Name == "close"
}

// isJoinCall reports sync.WaitGroup.Done and context.Context Done/Err
// calls.
func isJoinCall(info *types.Info, call *ast.CallExpr) bool {
	f := funcFor(info, call)
	if f == nil {
		// Interface methods (context.Context.Done) resolve through
		// Selections but funcFor returns nil for non-*types.Func
		// objects only; re-check by selector name and receiver package.
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		selection, ok := info.Selections[sel]
		if !ok {
			return false
		}
		obj := selection.Obj()
		if obj == nil || obj.Pkg() == nil {
			return false
		}
		name := obj.Name()
		return obj.Pkg().Path() == "context" && (name == "Done" || name == "Err")
	}
	switch funcPkgPath(f) {
	case "sync":
		return f.Name() == "Done"
	case "context":
		return f.Name() == "Done" || f.Name() == "Err"
	}
	return false
}
