package lint

import (
	"go/ast"
	"go/types"
)

// pureSearchPkgs are the import-path suffixes of the deterministic
// search kernel: the allocator core, the binding model, and every
// package they consult when evaluating or selecting moves. Inside them,
// any read of the wall clock (time.Now / time.Since / time.Until) is a
// finding: clock values must never influence search decisions, and
// telemetry belongs in the orchestration layers outside these packages.
var pureSearchPkgs = []string{
	"internal/core",
	"internal/binding",
	"internal/lifetime",
	"internal/sched",
	"internal/match",
	"internal/datapath",
}

// randConstructors are the math/rand package-level functions that build
// explicitly-seeded sources rather than consulting the process-global
// one.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// seedSinks are the rand functions whose argument becomes (part of) a
// generator seed; feeding them a wall-clock read makes every run
// irreproducible.
var seedSinks = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
	"Seed":       true,
}

// Detrand is the determinism analyzer: the portfolio engine's
// byte-identical-results guarantee (see internal/engine) requires every
// stochastic choice to flow from an explicitly-seeded *rand.Rand and no
// search decision to observe the wall clock.
var Detrand = &Analyzer{
	Name: "detrand",
	Doc: "forbids the process-global math/rand source, time-derived RNG seeds, " +
		"and wall-clock reads inside the pure search packages",
	Run: runDetrand,
}

func runDetrand(pass *Pass) {
	pure := pathHasSuffix(pass.Pkg.Path(), pureSearchPkgs...)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.CalleeFunc(call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				sig, _ := fn.Type().(*types.Signature)
				if sig != nil && sig.Recv() == nil && !randConstructors[fn.Name()] {
					pass.Reportf(call.Pos(),
						"call to %s.%s draws from the process-global source; thread an explicitly-seeded *rand.Rand instead",
						fn.Pkg().Name(), fn.Name())
				}
				if seedSinks[fn.Name()] && callsClock(pass, call.Args) {
					pass.Reportf(call.Pos(),
						"seed for %s.%s is derived from the wall clock; derive seeds from configuration so runs are reproducible",
						fn.Pkg().Name(), fn.Name())
				}
			case "time":
				if pure && clockFuncs[fn.Name()] {
					pass.Reportf(call.Pos(),
						"time.%s inside pure search package %s; clock values must not influence search decisions (move telemetry up a layer or justify with //lint:detrand)",
						fn.Name(), pass.Pkg.Path())
				}
			}
			return true
		})
	}
}

// clockFuncs are the package time functions that read the wall clock.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// callsClock reports whether any expression in args transitively calls
// a wall-clock function.
func callsClock(pass *Pass, args []ast.Expr) bool {
	found := false
	for _, arg := range args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := pass.CalleeFunc(call); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "time" && clockFuncs[fn.Name()] {
				found = true
				return false
			}
			return true
		})
	}
	return found
}
