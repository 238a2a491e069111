package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// Lockguard enforces machine-readable mutex-guard annotations. A
// struct field carrying the trailing comment
//
//	// guarded by <mu>
//
// (where <mu> names a sibling sync.Mutex or sync.RWMutex field)
// promises that every read and write of that field happens with the
// guard held. The analyzer tracks lock state intra-procedurally per
// function body — Lock/Unlock/RLock/RUnlock, defer'd unlocks (direct
// or inside a deferred closure), and TryLock/TryRLock used as an if
// condition — and reports:
//
//   - a read or write of a guarded field while the guard is not
//     provably held on every path,
//   - a write of a guarded field while the guard is held only for
//     reading (RLock),
//   - acquiring a lock that is already definitely held (self-deadlock),
//   - a lock that may still be held at a return with no deferred
//     unlock covering it,
//   - an unlock of a lock not held on any path (function declarations
//     only),
//   - an annotation whose guard is not a sibling mutex field.
//
// Constructor bodies are exempt while the value is provably local: a
// struct freshly made by a composite literal or new() needs no lock
// until it first escapes (call argument, return, assignment to
// another variable, capture by a function literal, ...).
//
// Limits, by design: the analysis is per-body, so a closure does not
// inherit its creator's lock state (a closure may run on another
// goroutine where those locks mean nothing) and a function whose
// contract is "caller holds the lock" needs a //lint:lockguard
// justification. Cross-package accesses of annotated fields are not
// checked; the guarded fields in this repository are unexported, so
// every access site lives in the annotated package. Only packages
// containing at least one annotation are analyzed.
var Lockguard = &Analyzer{
	Name: "lockguard",
	Doc: "reads and writes of fields annotated '// guarded by <mu>' must happen with the " +
		"guard provably held; also reports double-lock, unlock-when-not-held and " +
		"may-be-held-at-return within a function body",
	Run: runLockguard,
}

// guardSpec describes one annotated field: the sibling mutex field
// that guards it.
type guardSpec struct {
	guard string
}

// guardAnnotRE matches the machine-readable annotation comment. Text
// after the guard name (e.g. "// guarded by mu; insertion order") is
// prose and ignored.
var guardAnnotRE = regexp.MustCompile(`^//\s*guarded by\s+(.+)$`)

var identPrefixRE = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*`)

// guardAnnotation extracts the guard field name from a struct field's
// trailing comment group.
func guardAnnotation(cg *ast.CommentGroup) (string, bool) {
	for _, c := range cg.List {
		m := guardAnnotRE.FindStringSubmatch(c.Text)
		if m == nil {
			continue
		}
		return identPrefixRE.FindString(m[1]), true
	}
	return "", false
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex,
// possibly behind a pointer.
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// collectGuards scans the package's struct declarations for guard
// annotations, reporting annotations whose guard does not resolve to a
// sibling mutex field. The returned map keys are the annotated fields'
// objects.
func collectGuards(pass *Pass) map[types.Object]*guardSpec {
	guarded := make(map[types.Object]*guardSpec)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, f := range st.Fields.List {
				if f.Comment == nil || len(f.Names) == 0 {
					continue
				}
				name, ok := guardAnnotation(f.Comment)
				if !ok {
					continue
				}
				if !siblingMutex(pass, st, name) {
					pass.Reportf(f.Pos(),
						"guard annotation on %s: %q does not name a sibling sync.Mutex or sync.RWMutex field; fix the annotation or the struct",
						f.Names[0].Name, name)
					continue
				}
				for _, id := range f.Names {
					if obj := pass.Info.Defs[id]; obj != nil {
						guarded[obj] = &guardSpec{guard: name}
					}
				}
			}
			return true
		})
	}
	return guarded
}

// fieldOrigin maps a field selected through an instantiated generic
// struct (including a method's own receiver, LRU[K, V]) to the declared
// field, the object collectGuards keyed its annotation by.
func fieldOrigin(obj types.Object) types.Object {
	if v, ok := obj.(*types.Var); ok {
		return v.Origin()
	}
	return obj
}

// siblingMutex reports whether the struct has a field called name
// whose type is a mutex.
func siblingMutex(pass *Pass, st *ast.StructType, name string) bool {
	if name == "" {
		return false
	}
	for _, f := range st.Fields.List {
		for _, id := range f.Names {
			if id.Name == name {
				return isMutexType(pass.TypeOf(f.Type))
			}
		}
	}
	return false
}

// funcContext is one independently-analyzed body: a function
// declaration or a function literal. Directly-deferred literals are
// excluded — their calls are routed through the creating body's walk
// as deferred calls instead, because they run while that body's locks
// are still meaningful.
type funcContext struct {
	body   *ast.BlockStmt
	isDecl bool
}

func funcContexts(file *ast.File) []funcContext {
	deferredLits := make(map[*ast.FuncLit]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			if fl, ok := d.Call.Fun.(*ast.FuncLit); ok {
				deferredLits[fl] = true
			}
		}
		return true
	})
	var ctxs []funcContext
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				ctxs = append(ctxs, funcContext{body: n.Body, isDecl: true})
			}
		case *ast.FuncLit:
			if !deferredLits[n] {
				ctxs = append(ctxs, funcContext{body: n.Body})
			}
		}
		return true
	})
	return ctxs
}

func runLockguard(pass *Pass) {
	guarded := collectGuards(pass)
	if len(guarded) == 0 {
		return
	}
	for _, file := range pass.Files {
		writes := markGuardedWrites(pass, guarded, file)
		for _, fc := range funcContexts(file) {
			checkLockguardBody(pass, guarded, writes, fc)
		}
	}
}

// markGuardedWrites finds every selector of a guarded field appearing
// in a write position anywhere in the file: assignment left-hand
// sides, ++/--, delete on a guarded map, and address-taking (the
// pointer can be written through). Element writes count — an access
// path like j.status.Events[i] = e mutates guarded state just as
// surely as j.status = s does.
func markGuardedWrites(pass *Pass, guarded map[types.Object]*guardSpec, file *ast.File) map[*ast.SelectorExpr]bool {
	writes := make(map[*ast.SelectorExpr]bool)
	mark := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.IndexListExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				if sel, ok := pass.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
					if _, ok := guarded[fieldOrigin(sel.Obj())]; ok {
						writes[x] = true
					}
				}
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(s.X)
		case *ast.UnaryExpr:
			if s.Op == token.AND {
				mark(s.X)
			}
		case *ast.CallExpr:
			if name, ok := builtinName(pass, s); ok && name == "delete" && len(s.Args) == 2 {
				mark(s.Args[0])
			}
		}
		return true
	})
	return writes
}

// freshLocals maps each local created by a composite literal or new()
// to the position where it first escapes the function ("publishes"),
// or token.NoPos when it never does. Guarded-field accesses of a
// still-unpublished local are constructor initialization: no other
// goroutine can hold a reference yet, so no lock is required.
func freshLocals(pass *Pass, body *ast.BlockStmt) map[types.Object]token.Pos {
	fresh := make(map[types.Object]token.Pos)
	record := func(lhs, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			return
		}
		if isFreshExpr(pass, rhs) {
			fresh[obj] = token.NoPos
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	if len(fresh) == 0 {
		return fresh
	}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return true
		}
		if _, ok := fresh[obj]; !ok {
			return true
		}
		pos, publishing := publishPos(stack, id)
		if !publishing {
			return true
		}
		if cur := fresh[obj]; cur == token.NoPos || pos < cur {
			fresh[obj] = pos
		}
		return true
	})
	return fresh
}

func isFreshExpr(pass *Pass, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, ok := ast.Unparen(x.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if name, ok := builtinName(pass, x); ok && name == "new" {
			return true
		}
	}
	return false
}

// publishPos decides whether one use of a fresh local lets the value
// escape the function. Uses as the base of a field or method access
// path (c.n, c.mu.Lock()) do not publish; anything else — a call
// argument, a return value, an assignment to another variable, a
// composite-literal element, a channel send, capture by any function
// literal — does.
func publishPos(stack []ast.Node, id *ast.Ident) (token.Pos, bool) {
	for i := len(stack) - 2; i >= 0; i-- {
		if fl, ok := stack[i].(*ast.FuncLit); ok {
			return fl.Pos(), true
		}
	}
	var cur ast.Node = id
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			cur = p
			continue
		case *ast.StarExpr:
			if p.X == cur {
				cur = p
				continue
			}
		case *ast.IndexExpr:
			if p.X == cur {
				cur = p
				continue
			}
		case *ast.SliceExpr:
			if p.X == cur {
				cur = p
				continue
			}
		case *ast.SelectorExpr:
			if p.X == cur {
				return token.NoPos, false
			}
		}
		return id.Pos(), true
	}
	return id.Pos(), true
}

// lockCall classifies a call as a mutex operation on a trackable
// receiver path.
type lockCall struct {
	key    string
	text   string
	method string
	mode   holdMode
}

func classifyLockCall(pass *Pass, call *ast.CallExpr) (lockCall, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockCall{}, false
	}
	var mode holdMode
	switch sel.Sel.Name {
	case "Lock", "TryLock":
		mode = holdWrite
	case "RLock", "TryRLock":
		mode = holdRead
	case "Unlock", "RUnlock":
	default:
		return lockCall{}, false
	}
	if !isMutexType(pass.TypeOf(sel.X)) {
		return lockCall{}, false
	}
	key, ok := exprKey(pass, sel.X)
	if !ok {
		return lockCall{}, false
	}
	return lockCall{
		key:    key,
		text:   types.ExprString(sel.X),
		method: sel.Sel.Name,
		mode:   mode,
	}, true
}

func checkLockguardBody(pass *Pass, guarded map[types.Object]*guardSpec, writes map[*ast.SelectorExpr]bool, fc funcContext) {
	fresh := freshLocals(pass, fc.body)
	display := make(map[string]string)

	hooks := flowHooks{
		call: func(call *ast.CallExpr, deferred bool, st *flowState) {
			lc, ok := classifyLockCall(pass, call)
			if !ok {
				return
			}
			display[lc.key] = lc.text
			switch lc.method {
			case "TryLock", "TryRLock":
				// Held on one branch only; meaningful as an if
				// condition, which condKey handles.
			case "Lock", "RLock":
				if deferred {
					return // defer mu.Lock() acquires nothing useful
				}
				if _, held := st.defHeld(lc.key); held {
					pass.Reportf(call.Pos(),
						"%s.%s while %s is already held on every path to this point (self-deadlock); justify with //lint:lockguard <reason>",
						lc.text, lc.method, lc.text)
				}
				st.acquire(lc.key, call.Pos(), lc.mode)
			case "Unlock", "RUnlock":
				if deferred {
					st.deferRelease(lc.key)
					return
				}
				if fc.isDecl && !st.mayHeld(lc.key) {
					pass.Reportf(call.Pos(),
						"%s.%s but %s is not held on any path to this point; justify with //lint:lockguard <reason>",
						lc.text, lc.method, lc.text)
				}
				st.release(lc.key)
			}
		},
		condKey: func(cond ast.Expr) (string, token.Pos, holdMode, bool) {
			onTrue := true
			e := ast.Unparen(cond)
			for {
				u, ok := e.(*ast.UnaryExpr)
				if !ok || u.Op != token.NOT {
					break
				}
				onTrue = !onTrue
				e = ast.Unparen(u.X)
			}
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return "", token.NoPos, 0, false
			}
			lc, ok := classifyLockCall(pass, call)
			if !ok || (lc.method != "TryLock" && lc.method != "TryRLock") {
				return "", token.NoPos, 0, false
			}
			display[lc.key] = lc.text
			return lc.key, call.Pos(), lc.mode, onTrue
		},
		visit: func(n ast.Node, st *flowState) {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return
			}
			selection, ok := pass.Info.Selections[sel]
			if !ok || selection.Kind() != types.FieldVal {
				return
			}
			spec, ok := guarded[fieldOrigin(selection.Obj())]
			if !ok {
				return
			}
			if root := rootIdent(sel.X); root != nil {
				if pub, isFresh := fresh[pass.ObjectOf(root)]; isFresh &&
					(pub == token.NoPos || sel.Pos() < pub) {
					return
				}
			}
			verb := "read"
			if writes[sel] {
				verb = "write"
			}
			fieldText := types.ExprString(sel)
			baseKey, okKey := exprKey(pass, sel.X)
			if !okKey {
				pass.Reportf(sel.Pos(),
					"%s of %s (guarded by %s) through an untrackable base expression; hold the guard through a named path or justify with //lint:lockguard <reason>",
					verb, fieldText, spec.guard)
				return
			}
			guardKey := baseKey + "." + spec.guard
			guardText := types.ExprString(sel.X) + "." + spec.guard
			mode, held := st.defHeld(guardKey)
			switch {
			case !held:
				pass.Reportf(sel.Pos(),
					"%s of %s without holding %s; acquire the guard or justify with //lint:lockguard <reason>",
					verb, fieldText, guardText)
			case verb == "write" && mode == holdRead:
				pass.Reportf(sel.Pos(),
					"write of %s with %s held only for reading (RLock); acquire the write lock or justify with //lint:lockguard <reason>",
					fieldText, guardText)
			}
		},
		ret: func(pos token.Pos, st *flowState) {
			for _, k := range st.leaks() {
				text, ok := display[k]
				if !ok {
					continue
				}
				pass.Reportf(pos,
					"%s may still be held at this return; unlock it on every path or defer the unlock, or justify with //lint:lockguard <reason>",
					text)
			}
		},
	}
	(&flowTracker{hooks: hooks}).walkBody(fc.body)
}
