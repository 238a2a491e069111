// Package lint is a self-contained static-analysis framework (stdlib
// go/ast + go/parser + go/types only — no external dependencies) that
// enforces this repository's determinism, binding-legality and
// concurrency contracts. The parallel portfolio engine promises byte-identical
// results for any worker count, and the Table-1 move set is only sound
// if every mutation preserves the invariants binding.Check encodes;
// both contracts would otherwise be enforced by convention alone. The
// suite turns them into machine-checked rules:
//
//   - detrand: no process-global math/rand source, no time-derived
//     seeds, and no wall-clock reads inside the pure search packages.
//   - maporder: no order-sensitive iteration over Go maps (Go
//     randomizes map order per run) unless the keys are sorted first or
//     the site carries a //lint:maporder justification.
//   - mutguard: the guarded fields of binding.Binding (bound state)
//     and cdfg.Graph (structure) are only written inside each type's
//     mutation boundary: its own package, plus core's initial.go for
//     Binding and the random-graph generator for Graph. Everything
//     else routes mutations through the owning package. binding.Tx's
//     incremental cost entries need no guard: they are unexported
//     fields, so Go's visibility confines their writes to package
//     binding.
//   - checkerr: error results of Check/Validate/Verify* calls must not
//     be discarded.
//   - lockguard: fields annotated "// guarded by <mu>" are only read
//     or written with the named sibling mutex provably held; also
//     reports double-lock, unlock-when-not-held and
//     may-be-held-at-return within a function body.
//   - ctxflow: in the serving layers, context.Context is the first
//     parameter, never a struct field, never re-rooted via
//     Background()/TODO() on a path that already has a ctx, and
//     ctx-derived cancel functions are called or deferred on every
//     path.
//
// A finding is suppressed by a justification comment on (or directly
// above) the offending line:
//
//	//lint:<analyzer> <justification>
//
// or, for a file that is a designated exception in its entirety (for
// example a demo that hand-assembles bindings and Check-validates
// them), a file-scope directive anywhere in the file:
//
//	//lint:<analyzer>:file <justification>
//
// The justification text is mandatory; a bare //lint:maporder directive
// is ignored. Test files are not analyzed — the contracts govern
// production code paths.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// A Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// An Analyzer inspects one type-checked package and reports findings
// through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in output, enable/disable flags and
	// //lint: directives.
	Name string
	// Doc is a one-paragraph description of the contract enforced.
	Doc string
	// Run inspects pass.Files and calls pass.Reportf.
	Run func(pass *Pass)
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	directives directiveIndex
	findings   *[]Finding
}

// Reportf records a finding at pos unless a matching //lint: directive
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.directives.suppresses(p.Analyzer.Name, position.Filename, position.Line) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf resolves an identifier to its object (definition or use).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Info.Defs[id]; o != nil {
		return o
	}
	return p.Info.Uses[id]
}

// CalleeFunc resolves a call expression to the *types.Func it invokes,
// or nil for builtins, conversions and indirect calls through function
// values.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := p.ObjectOf(fun).(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := p.ObjectOf(fun.Sel).(*types.Func)
		return f
	}
	return nil
}

// directiveRE matches justification comments, line-scope
// (//lint:<name> <reason>) and file-scope (//lint:<name>:file <reason>).
var directiveRE = regexp.MustCompile(`^//lint:([a-z]+)(:file)?\s+(\S.*)$`)

// directiveIndex records, per analyzer, the (file, line) pairs covered
// by a justification directive, plus whole files covered by a
// file-scope directive. A line directive covers its own line and the
// line below it, so both trailing comments and stand-alone comment
// lines work.
type directiveIndex struct {
	lines map[string]map[string]map[int]bool
	files map[string]map[string]bool
}

func (d directiveIndex) add(analyzer, file string, line int) {
	byFile := d.lines[analyzer]
	if byFile == nil {
		byFile = make(map[string]map[int]bool)
		d.lines[analyzer] = byFile
	}
	lines := byFile[file]
	if lines == nil {
		lines = make(map[int]bool)
		byFile[file] = lines
	}
	lines[line] = true
	lines[line+1] = true
}

func (d directiveIndex) addFile(analyzer, file string) {
	if d.files[analyzer] == nil {
		d.files[analyzer] = make(map[string]bool)
	}
	d.files[analyzer][file] = true
}

func (d directiveIndex) suppresses(analyzer, file string, line int) bool {
	return d.files[analyzer][file] || d.lines[analyzer][file][line]
}

// indexDirectives scans every comment of every file for //lint:
// justifications.
func indexDirectives(fset *token.FileSet, files []*ast.File) directiveIndex {
	idx := directiveIndex{
		lines: make(map[string]map[string]map[int]bool),
		files: make(map[string]map[string]bool),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				if m[2] == ":file" {
					idx.addFile(m[1], pos.Filename)
				} else {
					idx.add(m[1], pos.Filename, pos.Line)
				}
			}
		}
	}
	return idx
}

// Run applies each analyzer to each package and returns all findings
// sorted by position then analyzer name.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		directives := indexDirectives(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				Info:       pkg.Info,
				directives: directives,
				findings:   &findings,
			}
			a.Run(pass)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// Suite returns the six project analyzers in stable order.
func Suite() []*Analyzer {
	return []*Analyzer{Detrand, Maporder, Mutguard, Checkerr, Lockguard, Ctxflow}
}

// pathHasSuffix reports whether a slash-separated path ends with any of
// the given slash-separated suffixes on a path-component boundary.
func pathHasSuffix(path string, suffixes ...string) bool {
	for _, suffix := range suffixes {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return true
		}
	}
	return false
}
