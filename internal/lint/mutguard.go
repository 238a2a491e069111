package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
)

// A guardedType is one entry of mutguard's table: a struct whose named
// fields may only be written inside its mutation boundary. The owning
// package is always inside; allowedPkgs adds whole packages by
// import-path suffix and allowedFiles single files by slash-separated
// path suffix.
type guardedType struct {
	pkg          string
	name         string
	fields       []string
	allowedPkgs  []string
	allowedFiles []string
}

// guardedTypes is the mutation-boundary table.
var guardedTypes = []guardedType{
	// binding.Binding's bound state. The binding package includes the
	// transaction layer (binding.Tx) every move and polish candidate
	// routes through; core's initial.go is the constructive start. A
	// direct write anywhere else would bypass the undo log and
	// desynchronize the incremental cost tables, so the boundary is the
	// compile-time guarantee backing apply/undo exactness.
	{
		pkg:          "internal/binding",
		name:         "Binding",
		fields:       []string{"OpFU", "OpSwap", "SegReg", "Copies", "Pass"},
		allowedFiles: []string{"internal/core/initial.go"},
	},
	// cdfg.Graph's structural state. The cdfg builder keeps the use map
	// consistent and is the only path Validate covers; the random-graph
	// generator's whole business is assembling graphs for the
	// differential oracle. Everything downstream constructs new graphs
	// through the builder, so a schedule or analysis computed from a
	// graph can never silently disagree with it.
	{
		pkg:         "internal/cdfg",
		name:        "Graph",
		fields:      []string{"Nodes", "Cyclic"},
		allowedPkgs: []string{"internal/randgraph"},
	},
}

// Mutguard restricts direct writes to each guarded type's guarded
// fields (assignments, op-assignments, increment/decrement, and delete
// on its maps) to that type's mutation boundary.
var Mutguard = &Analyzer{
	Name: "mutguard",
	Doc:  "restricts writes to the guarded fields of binding.Binding and cdfg.Graph to each type's mutation boundary",
	Run:  runMutguard,
}

// boundary lists the entry's boundary in finding messages.
func (g *guardedType) boundary() string {
	all := append(append([]string{g.pkg}, g.allowedPkgs...), g.allowedFiles...)
	return strings.Join(all, ", ")
}

// inside reports whether a file of package pkgPath lies inside the
// entry's boundary.
func (g *guardedType) inside(pkgPath, filename string) bool {
	if pathHasSuffix(pkgPath, g.pkg) || pathHasSuffix(pkgPath, g.allowedPkgs...) {
		return true
	}
	slash := filepath.ToSlash(filename)
	for _, suf := range g.allowedFiles {
		if strings.HasSuffix(slash, suf) {
			return true
		}
	}
	return false
}

func runMutguard(pass *Pass) {
	for _, file := range pass.Files {
		filename := pass.Fset.Position(file.Pos()).Filename
		var outside []*guardedType
		for i := range guardedTypes {
			if !guardedTypes[i].inside(pass.Pkg.Path(), filename) {
				outside = append(outside, &guardedTypes[i])
			}
		}
		if len(outside) == 0 {
			continue
		}
		check := func(stmt ast.Node, lvalue ast.Expr, verb string) {
			if g, field := guardedField(pass, outside, lvalue); g != nil {
				pass.Reportf(stmt.Pos(),
					"%s of %s.%s.%s outside the mutation boundary (allowed: %s); route it through the owning package or justify with //lint:mutguard <reason>",
					verb, g.pkg, g.name, field, g.boundary())
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					check(s, lhs, "write")
				}
			case *ast.IncDecStmt:
				check(s, s.X, "write")
			case *ast.CallExpr:
				if name, isBuiltin := builtinName(pass, s); isBuiltin && name == "delete" && len(s.Args) == 2 {
					check(s, s.Args[0], "delete")
				}
			}
			return true
		})
	}
}

// guardedField peels index/star/paren/selector layers off an lvalue
// and, when its access path passes through a selection of a guarded
// field of one of the given types, returns that type and field name.
// Walking past non-guarded selector layers matters for element writes
// like g.Nodes[i].Next = v, which mutate guarded state just as surely
// as g.Nodes = nil does.
func guardedField(pass *Pass, entries []*guardedType, e ast.Expr) (*guardedType, string) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			sel, ok := pass.Info.Selections[x]
			if !ok || sel.Kind() != types.FieldVal {
				return nil, ""
			}
			if g := guardedOwner(sel.Recv(), x.Sel.Name, entries); g != nil {
				return g, x.Sel.Name
			}
			e = x.X // keep walking: the base may select a guarded field
		default:
			return nil, ""
		}
	}
}

// guardedOwner returns the entry whose type is recv (or a pointer to
// it) and whose guarded fields include field, or nil.
func guardedOwner(recv types.Type, field string, entries []*guardedType) *guardedType {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	obj := named.Obj()
	for _, g := range entries {
		if obj.Name() == g.name && pathHasSuffix(obj.Pkg().Path(), g.pkg) && slices.Contains(g.fields, field) {
			return g
		}
	}
	return nil
}
