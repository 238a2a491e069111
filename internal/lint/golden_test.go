package lint

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRE matches golden expectations in fixture sources:
// // want "regexp matching the finding message"
var wantRE = regexp.MustCompile(`//\s*want\s+"([^"]+)"`)

type wantMark struct {
	re      *regexp.Regexp
	matched bool
}

// collectWants scans every fixture .go file for want comments, keyed by
// absolute filename and line.
func collectWants(t *testing.T, root string) map[string]map[int]*wantMark {
	t.Helper()
	wants := make(map[string]map[int]*wantMark)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRE.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				return fmt.Errorf("%s:%d: bad want pattern: %w", path, line, err)
			}
			if wants[path] == nil {
				wants[path] = make(map[int]*wantMark)
			}
			wants[path][line] = &wantMark{re: re}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// TestGoldenFixtures runs the full suite over the fixture module and
// checks the findings against the // want comments: every finding must
// be expected, and every expectation must be found.
func TestGoldenFixtures(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 6 {
		t.Fatalf("loaded %d fixture packages, want at least 6", len(pkgs))
	}
	wants := collectWants(t, root)

	findings := Run(pkgs, Suite())
	for _, f := range findings {
		w := wants[f.Pos.Filename][f.Pos.Line]
		if w == nil {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		if !w.re.MatchString(f.Message) {
			t.Errorf("%s:%d: finding %q does not match want %q",
				f.Pos.Filename, f.Pos.Line, f.Message, w.re)
			continue
		}
		if w.matched {
			t.Errorf("%s:%d: two findings matched one want comment", f.Pos.Filename, f.Pos.Line)
		}
		w.matched = true
	}
	for file, lines := range wants {
		for line, w := range lines {
			if !w.matched {
				t.Errorf("%s:%d: expected a finding matching %q, got none", file, line, w.re)
			}
		}
	}

	// Each analyzer must contribute at least one finding, so a silently
	// broken analyzer cannot pass as "no violations in fixtures".
	byAnalyzer := make(map[string]int)
	for _, f := range findings {
		byAnalyzer[f.Analyzer]++
	}
	for _, a := range Suite() {
		if byAnalyzer[a.Name] == 0 {
			t.Errorf("analyzer %s produced no findings on its fixtures", a.Name)
		}
	}
	// Likewise each entry of mutguard's table.
	for _, g := range guardedTypes {
		typ := g.pkg + "." + g.name
		found := false
		for _, f := range findings {
			found = found || f.Analyzer == "mutguard" && strings.Contains(f.Message, typ+".")
		}
		if !found {
			t.Errorf("mutguard produced no findings for %s on its fixtures", typ)
		}
	}
}
