package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFigure3PassThroughSavesMux(t *testing.T) {
	d, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if d.AfterMux >= d.BeforeMux {
		t.Errorf("pass-through did not save a mux: %d -> %d", d.BeforeMux, d.AfterMux)
	}
	if !d.Verified {
		t.Errorf("outputs changed: %v vs %v", d.BeforeOutputs, d.AfterOutputs)
	}
	if d.BeforeOutputs["o"] != (5+3)+((5+3+3)+3) { // z = v + c, c = a+y, a = v+y
		t.Errorf("figure3 reference output drifted: %v", d.BeforeOutputs)
	}
}

func TestFigure4SplitSavesMux(t *testing.T) {
	d, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if d.AfterMux >= d.BeforeMux {
		t.Errorf("value split did not save a mux: %d -> %d", d.BeforeMux, d.AfterMux)
	}
	if !d.Verified {
		t.Errorf("outputs changed: %v vs %v", d.BeforeOutputs, d.AfterOutputs)
	}
}

func TestDemos(t *testing.T) {
	ds, err := Demos()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 {
		t.Fatalf("Demos = %d entries, want 2", len(ds))
	}
	for _, d := range ds {
		out := FormatDemo(d)
		if !strings.Contains(out, "simulated") {
			t.Errorf("%s not verified: %s", d.Name, out)
		}
	}
}

func TestFigure12BothModels(t *testing.T) {
	row, err := Figure12(Quick(1))
	if err != nil {
		t.Fatal(err)
	}
	if !row.TradFeasible {
		t.Error("traditional model infeasible on the Figure 1 CDFG")
	}
	if !row.Verified {
		t.Error("Figure 1 allocation failed simulation")
	}
	if row.SalsaMerged > row.TradMerged {
		t.Errorf("extended model worse on Figure 1: %d vs %d", row.SalsaMerged, row.TradMerged)
	}
}

// TestTable2QuickSubset runs three representative Table-2 points at
// reduced effort and checks the paper's qualitative claims: extended ≤
// traditional, and simulation-verified allocations throughout.
func TestTable2QuickSubset(t *testing.T) {
	cfg := Quick(2)
	rows, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("Table 2 has %d rows, want 14 (as in the paper)", len(rows))
	}
	for _, r := range rows {
		if !r.Verified {
			t.Errorf("%s: not verified", r.ID)
		}
		if r.TradFeasible && r.SalsaMerged > r.TradMerged {
			t.Errorf("%s: extended model (%d) worse than traditional (%d) after merging",
				r.ID, r.SalsaMerged, r.TradMerged)
		}
		if r.Regs < r.MinRegs {
			t.Errorf("%s: budget below minimum", r.ID)
		}
	}
	out := FormatTable("Table 2 (EWF)", rows)
	if !strings.Contains(out, "T2.14") {
		t.Error("formatted table truncated")
	}
	t.Logf("\n%s", out)
}

func TestTable3Quick(t *testing.T) {
	cfg := Quick(3)
	rows, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Table 3 has %d rows, want 4 (as in the paper)", len(rows))
	}
	for _, r := range rows {
		if !r.Verified {
			t.Errorf("%s: not verified", r.ID)
		}
		if r.TradFeasible && r.SalsaMerged > r.TradMerged {
			t.Errorf("%s: extended (%d) worse than traditional (%d)", r.ID, r.SalsaMerged, r.TradMerged)
		}
	}
	t.Logf("\n%s", FormatTable("Table 3 (DCT)", rows))
}

func TestAblationQuick(t *testing.T) {
	cfg := Quick(4)
	rows, err := Ablation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("ablation has %d rows, want 5", len(rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	full := byName["full"]
	trad := byName["no-segments (traditional)"]
	if full.Total > trad.Total {
		t.Errorf("full model (%d) worse than traditional ablation (%d)", full.Total, trad.Total)
	}
	if trad.Segmented != 0 || trad.Copies != 0 || trad.Passes != 0 {
		t.Error("traditional ablation used extended features")
	}
	t.Logf("\n%s", FormatAblation(rows))
}

func TestSchedulerStudy(t *testing.T) {
	rows, err := SchedulerStudy(Quick(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10 (5 points × 2 schedulers)", len(rows))
	}
	// Every point must have both scheduler variants, with sane budgets.
	for _, r := range rows {
		if r.ALUs < 1 || r.Merged < 1 {
			t.Errorf("%s@%d/%s: implausible row %+v", r.Workload, r.Steps, r.Scheduler, r)
		}
	}
	t.Logf("\n%s", FormatSchedulerStudy(rows))
}

func TestRowsCarryBusCosts(t *testing.T) {
	row, err := Figure12(Quick(6))
	if err != nil {
		t.Fatal(err)
	}
	if row.SalsaBuses < 1 {
		t.Errorf("bus allocation missing: %+v", row)
	}
	if row.SalsaBusMux > row.SalsaMux {
		t.Errorf("bus-side mux cost %d exceeds point-to-point %d", row.SalsaBusMux, row.SalsaMux)
	}
}

func TestBaselineStudy(t *testing.T) {
	rows, err := BaselineStudy(Quick(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		// Each refinement stage must not lose ground: iterative search
		// starts from the matching result, the extended model from the
		// traditional result.
		if r.TradIter > r.Matching {
			t.Errorf("%s: iterative traditional (%d) worse than matching (%d)", r.Workload, r.TradIter, r.Matching)
		}
		if r.Salsa > r.TradIter {
			t.Errorf("%s: extended (%d) worse than iterative traditional (%d)", r.Workload, r.Salsa, r.TradIter)
		}
	}
	t.Logf("\n%s", FormatBaselineStudy(rows))
}

var update = flag.Bool("update", false, "rewrite golden files")

// TestTablesGolden pins every table EXPERIMENTS.md quotes, byte for
// byte, at the configuration it quotes them from (Full(7), as printed
// by `go run ./cmd/tables -table all -full -seed 7` minus the timing
// lines). The property tests above check the paper's claims; this one
// catches any drift in the numbers themselves.
func TestTablesGolden(t *testing.T) {
	cfg := Full(7)
	var got strings.Builder
	t2, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got.WriteString(FormatTable("Table 2 — Elliptic Wave Filter (paper Table 2)", t2))
	t3, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got.WriteString(FormatTable("Table 3 — Discrete Cosine Transform (paper Table 3)", t3))
	ab, err := Ablation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got.WriteString(FormatAblation(ab))
	ss, err := SchedulerStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got.WriteString(FormatSchedulerStudy(ss))
	bs, err := BaselineStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got.WriteString(FormatBaselineStudy(bs))
	demos, err := Demos()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range demos {
		got.WriteString(FormatDemo(d))
	}
	f12, err := Figure12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got.WriteString(FormatTable("Figures 1/2 — binding models on the intro CDFG", []Row{f12}))

	golden := filepath.Join("testdata", "tables_full7.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("tables drifted from %s (rerun with -update if intended):\n got:\n%s\nwant:\n%s", golden, got.String(), want)
	}
}
