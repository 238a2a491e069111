package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ctxflowPkgs scopes ctxflow to the layers that serve requests: the
// HTTP service, the portfolio engine, the router, the journal and the
// salsad entry point. The pure allocation packages below them are
// context-free by design (core.Control carries the deadline), so the
// contract does not apply there.
var ctxflowPkgs = []string{
	"internal/service",
	"internal/engine",
	"internal/cluster",
	"internal/journal",
	"cmd/salsad",
}

// Ctxflow is the context-flow analyzer. Within ctxflowPkgs it enforces
// four rules:
//
//   - a context.Context parameter must come first (after the
//     receiver), so call chains read uniformly and a ctx is never an
//     afterthought;
//   - context.Context must not be stored in a struct field — neither
//     declared as one nor assigned into one (including composite
//     literals); contexts are call-scoped, and a stored ctx outlives
//     the call that owned it. Framework slots (e.g. core.Control.Ctx)
//     are suppressed explicitly with //lint:ctxflow <reason>;
//   - context.Background()/context.TODO() must not be called in a
//     function that already receives a context (a context.Context or
//     *http.Request parameter, including enclosing functions of a
//     literal): derive from the caller's ctx so cancellation
//     propagates;
//   - a cancel function returned by context.WithCancel / WithTimeout /
//     WithDeadline / signal.NotifyContext must be called or deferred
//     on every path, and never discarded as _. Handing the cancel to
//     another function or a synchronously-used closure counts as a
//     release; capture by a go'd closure does not — the goroutine may
//     never run, so the spawner still owns the obligation.
//
// Like lockguard, the cancel tracking is per function body and
// branch-sensitive (a cancel created in an if branch must be released
// within paths of that branch).
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc: "context.Context must be the first parameter, never live in a struct field, never be " +
		"re-rooted via Background()/TODO() on a path that already has a ctx; ctx-derived cancel " +
		"functions must be called or deferred on every path",
	Run: runCtxflow,
}

func runCtxflow(pass *Pass) {
	if !pathHasSuffix(pass.Pkg.Path(), ctxflowPkgs...) {
		return
	}
	for _, file := range pass.Files {
		checkCtxParams(pass, file)
		checkCtxFields(pass, file)
		checkCtxStores(pass, file)
		checkBackground(pass, file)
		for _, fc := range funcContexts(file) {
			checkCancelFlow(pass, fc)
		}
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isCancelType reports whether t is context.CancelFunc or
// context.CancelCauseFunc (signal.NotifyContext also returns the
// former, so it is covered).
func isCancelType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return false
	}
	return obj.Name() == "CancelFunc" || obj.Name() == "CancelCauseFunc"
}

// isHTTPRequestPtr reports whether t is *net/http.Request, whose
// Context() makes the function a context-receiving one.
func isHTTPRequestPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request"
}

// checkCtxParams enforces ctx-first on function declarations and
// literals.
func checkCtxParams(pass *Pass, file *ast.File) {
	check := func(ft *ast.FuncType) {
		if ft.Params == nil {
			return
		}
		idx := 0
		for _, f := range ft.Params.List {
			n := len(f.Names)
			if n == 0 {
				n = 1
			}
			if idx > 0 && isContextType(pass.TypeOf(f.Type)) {
				pass.Reportf(f.Pos(),
					"context.Context must be the first parameter; justify with //lint:ctxflow <reason>")
			}
			idx += n
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			check(n.Type)
		case *ast.FuncLit:
			check(n.Type)
		}
		return true
	})
}

// checkCtxFields reports context.Context struct-field declarations.
func checkCtxFields(pass *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok || st.Fields == nil {
			return true
		}
		for _, f := range st.Fields.List {
			if isContextType(pass.TypeOf(f.Type)) {
				pass.Reportf(f.Pos(),
					"context.Context must not be stored in a struct field; pass it as a parameter, or justify a framework slot with //lint:ctxflow <reason>")
			}
		}
		return true
	})
}

// checkCtxStores reports assignments and composite-literal elements
// that store a context into a struct field — including fields of
// structs declared in other (unscoped) packages.
func checkCtxStores(pass *Pass, file *ast.File) {
	report := func(pos token.Pos, field string) {
		pass.Reportf(pos,
			"context.Context stored into struct field %s; contexts are call-scoped — pass it as a parameter, or justify a framework slot with //lint:ctxflow <reason>",
			field)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				s, ok := pass.Info.Selections[sel]
				if !ok || s.Kind() != types.FieldVal {
					continue
				}
				if isContextType(s.Obj().Type()) {
					report(lhs.Pos(), types.ExprString(sel))
				}
			}
		case *ast.CompositeLit:
			st, ok := structTypeOf(pass.TypeOf(n))
			if !ok {
				return true
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					if f := structFieldByName(st, key.Name); f != nil && isContextType(f.Type()) {
						report(kv.Pos(), f.Name())
					}
				} else if i < st.NumFields() && isContextType(st.Field(i).Type()) {
					report(elt.Pos(), st.Field(i).Name())
				}
			}
		}
		return true
	})
}

func structTypeOf(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

func structFieldByName(st *types.Struct, name string) *types.Var {
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == name {
			return f
		}
	}
	return nil
}

// checkBackground reports context.Background()/TODO() calls inside any
// function (or enclosing function of a literal) that already receives
// a context.
func checkBackground(pass *Pass, file *ast.File) {
	hasCtxParam := func(ft *ast.FuncType) bool {
		if ft.Params == nil {
			return false
		}
		for _, f := range ft.Params.List {
			t := pass.TypeOf(f.Type)
			if isContextType(t) || isHTTPRequestPtr(t) {
				return true
			}
		}
		return false
	}
	receivesCtx := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			return hasCtxParam(n.Type)
		case *ast.FuncLit:
			return hasCtxParam(n.Type)
		}
		return false
	}
	var stack []ast.Node
	ctxDepth := 0
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if receivesCtx(top) {
				ctxDepth--
			}
			return false
		}
		stack = append(stack, n)
		if receivesCtx(n) {
			ctxDepth++
		}
		if call, ok := n.(*ast.CallExpr); ok && ctxDepth > 0 {
			if fn := pass.CalleeFunc(call); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "context" &&
				(fn.Name() == "Background" || fn.Name() == "TODO") {
				pass.Reportf(call.Pos(),
					"context.%s() in a function that already receives a context; derive from the caller's ctx so cancellation propagates, or justify with //lint:ctxflow <reason>",
					fn.Name())
			}
		}
		return true
	})
}

// checkCancelFlow tracks cancel-function obligations through one body
// with the shared flow tracker.
func checkCancelFlow(pass *Pass, fc funcContext) {
	names := make(map[string]string)
	obligate := func(lhs []ast.Expr, rhs []ast.Expr, st *flowState) {
		handle := func(l ast.Expr, t types.Type) {
			if !isCancelType(t) {
				return
			}
			id, ok := ast.Unparen(l).(*ast.Ident)
			if !ok {
				return
			}
			if id.Name == "_" {
				pass.Reportf(id.Pos(),
					"context cancel function discarded as _; store it and call or defer it, or justify with //lint:ctxflow <reason>")
				return
			}
			obj := pass.ObjectOf(id)
			if obj == nil {
				return
			}
			k := objKey(obj)
			names[k] = id.Name
			st.acquire(k, id.Pos(), holdWrite)
		}
		if len(rhs) == 1 && len(lhs) > 1 {
			if tup, ok := pass.TypeOf(rhs[0]).(*types.Tuple); ok && tup.Len() == len(lhs) {
				for i, l := range lhs {
					handle(l, tup.At(i).Type())
				}
			}
			return
		}
		if len(lhs) == len(rhs) {
			for i, l := range lhs {
				handle(l, pass.TypeOf(rhs[i]))
			}
		}
	}
	releaseIdentsIn := func(n ast.Node, st *flowState) {
		ast.Inspect(n, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil {
					st.release(objKey(obj))
				}
			}
			return true
		})
	}
	hooks := flowHooks{
		assign: func(s *ast.AssignStmt, st *flowState) {
			obligate(s.Lhs, s.Rhs, st)
		},
		visit: func(n ast.Node, st *flowState) {
			switch n := n.(type) {
			case *ast.ValueSpec:
				if len(n.Values) > 0 {
					lhs := make([]ast.Expr, len(n.Names))
					for i, id := range n.Names {
						lhs[i] = id
					}
					obligate(lhs, n.Values, st)
				}
			case *ast.Ident:
				// Any other mention of an obligated cancel — calling
				// it, deferring it, passing it along, returning it,
				// storing it — transfers or discharges the obligation.
				if obj := pass.Info.Uses[n]; obj != nil {
					st.release(objKey(obj))
				}
			}
		},
		call: func(call *ast.CallExpr, deferred bool, st *flowState) {
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				return
			}
			obj := pass.ObjectOf(id)
			if obj == nil {
				return
			}
			k := objKey(obj)
			if !st.mayHeld(k) {
				return
			}
			if deferred {
				st.deferRelease(k)
			} else {
				st.release(k)
			}
		},
		funcLit: func(fl *ast.FuncLit, st *flowState) {
			// A synchronously-created closure that mentions the cancel
			// is a hand-off: sort callbacks, cleanup registrations and
			// the like run on this goroutine or are owned elsewhere.
			releaseIdentsIn(fl.Body, st)
		},
		// goStmt intentionally absent: a go'd closure's capture of the
		// cancel does NOT discharge the obligation (the tracker never
		// walks into the spawned body), which is exactly the
		// goroutine-leak rule.
		ret: func(pos token.Pos, st *flowState) {
			for _, k := range st.leaks() {
				name, ok := names[k]
				if !ok {
					continue
				}
				pass.Reportf(pos,
					"context cancel function %s may not be called on this return path (capture by a go'd closure does not count); call or defer it on every path, or justify with //lint:ctxflow <reason>",
					name)
			}
		},
	}
	(&flowTracker{hooks: hooks}).walkBody(fc.body)
}
