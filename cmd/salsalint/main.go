// Command salsalint runs the project's static-analysis suite
// (internal/lint) over module packages and reports contract
// violations: nondeterministic randomness (detrand), order-sensitive
// map iteration (maporder), writes to a binding or graph outside its
// mutation boundary (mutguard), discarded legality-check errors
// (checkerr), mutex-guarded fields touched without their guard
// (lockguard), and context-flow violations in the serving layers
// (ctxflow).
//
// Usage:
//
//	salsalint [flags] [packages]
//
// Packages are directories relative to the working directory,
// optionally ending in /... for recursion (default ./...). Exit code 0
// means no findings, 1 means findings, 2 means the packages failed to
// load or type-check.
//
//	-json              emit findings as a JSON array
//	-enable  a,b,...   run only the named analyzers
//	-disable a,b,...   skip the named analyzers
//	-list              print the suite and exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"salsa/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("salsalint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	enable := fs.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzers to skip")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers, err := selectAnalyzers(lint.Suite(), *enable, *disable)
	if err != nil {
		fmt.Fprintln(stderr, "salsalint:", err)
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "salsalint:", err)
		return 2
	}
	// The module root is resolved from the first pattern's directory so
	// the driver also works when pointed into a fixture module.
	probe := strings.TrimSuffix(strings.TrimSuffix(patterns[0], "..."), "/")
	if probe == "" || probe == "." {
		probe = cwd
	}
	root, err := lint.FindModuleRoot(probe)
	if err != nil {
		fmt.Fprintln(stderr, "salsalint:", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "salsalint:", err)
		return 2
	}
	pkgs, err := loader.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "salsalint:", err)
		return 2
	}

	findings := lint.Run(pkgs, analyzers)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "salsalint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(stdout, "salsalint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// selectAnalyzers applies -enable / -disable to the suite.
func selectAnalyzers(suite []*lint.Analyzer, enable, disable string) ([]*lint.Analyzer, error) {
	byName := make(map[string]*lint.Analyzer, len(suite))
	for _, a := range suite {
		byName[a.Name] = a
	}
	names := func(csv string) ([]string, error) {
		var out []string
		for _, n := range strings.Split(csv, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if byName[n] == nil {
				return nil, fmt.Errorf("unknown analyzer %q", n)
			}
			out = append(out, n)
		}
		return out, nil
	}
	if enable != "" {
		on, err := names(enable)
		if err != nil {
			return nil, err
		}
		var out []*lint.Analyzer
		for _, a := range suite { // preserve suite order
			for _, n := range on {
				if a.Name == n {
					out = append(out, a)
					break
				}
			}
		}
		suite = out
	}
	if disable != "" {
		off, err := names(disable)
		if err != nil {
			return nil, err
		}
		var out []*lint.Analyzer
		for _, a := range suite {
			skip := false
			for _, n := range off {
				if a.Name == n {
					skip = true
					break
				}
			}
			if !skip {
				out = append(out, a)
			}
		}
		suite = out
	}
	if len(suite) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return suite, nil
}
