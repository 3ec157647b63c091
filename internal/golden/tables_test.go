package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
)

// tablesPath is the paper-tables golden: lsms-bench's output for every
// deterministic experiment on the default corpus, without the two
// "total scheduling time" lines (wall clock, the only output that
// varies between runs).
var tablesPath = filepath.Join("..", "..", "testdata", "golden", "experiments.txt")

// TestPaperTables pins the paper's tables and figures, the §7 headline
// and the extension experiments exactly, at 1,525 loops of corpus seed
// 1993 on the paper machine. Regenerate with
//
//	go test ./internal/golden -run TestPaperTables -update
//
// and say why in CHANGES.md.
func TestPaperTables(t *testing.T) {
	if testing.Short() {
		t.Skip("an aggregate table cannot be subsampled; runs without -short")
	}
	got := paperTables(t)
	if *update {
		if err := os.WriteFile(tablesPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(tablesPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s:%d differs:\n got %q\nwant %q", tablesPath, i+1, g, w)
			}
		}
	}
}

// untabled names the registry's experiments the golden leaves out, and
// why; every other experiment is in the golden.
var untabled = map[string]string{
	"gap":     "bounded by a per-loop wall-clock budget, so its table varies with the host",
	"metrics": "sweeps every registered policy, the exact backend included: ~35 s at full size",
}

// paperTables runs the experiment registry, as lsms-bench -exp does,
// on the default corpus and paper machine.
func paperTables(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	e := &bench.Env{Options: bench.Options{Size: corpusSize, Seed: corpusSeed}, Out: &b}
	ran := map[string]bool{}
	for _, x := range bench.Experiments {
		ran[x.ID] = true
		if untabled[x.ID] != "" {
			continue
		}
		if err := x.Run(e); err != nil {
			t.Fatalf("%s: %v", x.ID, err)
		}
	}
	for id := range untabled {
		if !ran[id] {
			t.Errorf("untabled names %q, which the registry does not have", id)
		}
	}
	var out []string
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.Contains(line, "total scheduling time") {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestExperimentsDoc holds EXPERIMENTS.md to the paper-tables golden:
// the Measured cells of Tables 3 and 4, the Section 7 headline and
// Figure 5 must be what the golden's tables say, and every row of the
// per-target sweep table must be one of the golden's Markdown rows.
func TestExperimentsDoc(t *testing.T) {
	raw, err := os.ReadFile(tablesPath)
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Split(string(raw), "\n")
	docRaw, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Split(string(docRaw), "\n")

	want := map[string]map[string][]string{
		"Table 3": table34Cells(t, block(t, golden, "Table 3 —"), map[string]string{
			"loops": "Loops at II = MII", "ratio": "ΣII / ΣMII (all loops)", "failures": "Failures",
			"excess": "Loops with II > MII", "quantiles": "II − MII for those (min/50/90/max)",
		}),
		"Table 4": table34Cells(t, block(t, golden, "Table 4 —"), map[string]string{
			"loops": "Loops at II = MII", "ratio": "ΣII / ΣMII", "failures": `Failures ("last II attempted")`,
		}),
		"Section 7 headline": {},
		"Figure 5":           {},
	}
	head := block(t, golden, "Headline (Section 7)")
	for label, line := range map[string]string{
		"Loops at II = MII (slack)":           "loops at II = MII",
		"Execution time vs minimum":           "execution time vs minimum",
		"Speedup over Cydrome's scheduler":    "speedup over Cydrome's scheduler",
		"MaxLive = MinAvg (pressure optimal)": "loops with MaxLive = MinAvg",
		"Within 10 RRs of ideal":              "loops within 10 RRs of ideal",
		"Loops using ≤ 32 RRs":                "loops using ≤ 32 RRs",
		"RRs + GPRs ≤ 32":                     "loops with RRs+GPRs ≤ 32",
	} {
		v := lastField(t, head, line)
		if !strings.HasSuffix(v, "%") {
			v += "×"
		}
		want["Section 7 headline"][label] = []string{v}
	}
	want["Section 7 headline"]["ICR pressure a non-issue (≤32)"] = []string{histogram(t, golden, "Figure 8 —", "32")[0]}
	f5 := block(t, golden, "Figure 5 —")
	for i, label := range []string{"New (bidirectional slack)", "Old (Cydrome)"} {
		for _, th := range []string{"0", "5", "10"} {
			want["Figure 5"][label] = append(want["Figure 5"][label], histogram(t, f5, "", th)[i])
		}
	}

	for heading, rows := range want {
		got := docTable(doc, "## "+heading)
		for label, cells := range rows {
			row, ok := got[label]
			switch {
			case !ok:
				t.Errorf("EXPERIMENTS.md %s: no %q row", heading, label)
			case len(row) < len(cells) || !slices.Equal(row[len(row)-len(cells):], cells):
				t.Errorf("EXPERIMENTS.md %s %q: measured %q, the golden says %q", heading, label, row, cells)
			}
		}
	}

	var goldenRows []string
	for _, l := range golden {
		if strings.HasPrefix(l, "| ") && !strings.HasPrefix(l, "| Machine ") {
			goldenRows = append(goldenRows, l)
		}
	}
	sweep := 0
	for _, l := range section(doc, "## Per-target corpus sweep") {
		if strings.HasPrefix(l, "| ") && !strings.HasPrefix(l, "| Machine ") {
			sweep++
			if !slices.Contains(goldenRows, l) {
				t.Errorf("EXPERIMENTS.md per-target row is not in the golden: %s", l)
			}
		}
	}
	if sweep != len(goldenRows) {
		t.Errorf("EXPERIMENTS.md per-target table has %d rows, the golden %d", sweep, len(goldenRows))
	}
}

// block returns the golden's lines from the first one starting with
// title up to the next blank line.
func block(t *testing.T, lines []string, title string) []string {
	t.Helper()
	for i, l := range lines {
		if strings.HasPrefix(l, title) {
			end := i
			for end < len(lines) && lines[end] != "" {
				end++
			}
			return lines[i:end]
		}
	}
	t.Fatalf("golden has no %q block", title)
	return nil
}

// table34Cells derives Table 3/4's Measured cells from the golden's
// table, under the labels EXPERIMENTS.md gives them.
func table34Cells(t *testing.T, b []string, labels map[string]string) map[string][]string {
	t.Helper()
	var failures, opt, all, pct, sumII, sumMII, n, q0, q50, q90, q100 int
	var ratio string
	if _, err := fmt.Sscanf(b[0][strings.Index(b[0], "(failures:"):], "(failures: %d)", &failures); err != nil {
		t.Fatalf("%q: %v", b[0], err)
	}
	if _, err := fmt.Sscanf(b[len(b)-2], "All Loops %d %d %d %d %d %s", &opt, &all, &pct, &sumII, &sumMII, &ratio); err != nil {
		t.Fatalf("%q: %v", b[len(b)-2], err)
	}
	if _, err := fmt.Sscanf(b[len(b)-1], "For the %d loops with II > MII: II−MII min/50%%/90%%/max = %d/%d/%d/%d",
		&n, &q0, &q50, &q90, &q100); err != nil {
		t.Fatalf("%q: %v", b[len(b)-1], err)
	}
	cells := map[string]string{
		"loops":     fmt.Sprintf("%s / %s (%.1f%%)", thousands(opt), thousands(all), 100*float64(opt)/float64(all)),
		"ratio":     fmt.Sprintf("%s / %s = %.3f", thousands(sumII), thousands(sumMII), float64(sumII)/float64(sumMII)),
		"failures":  fmt.Sprint(failures),
		"excess":    fmt.Sprint(n),
		"quantiles": fmt.Sprintf("%d / %d / %d / %d", q0, q50, q90, q100),
	}
	out := map[string][]string{}
	for k, label := range labels {
		out[label] = []string{cells[k]}
	}
	return out
}

// lastField returns the last field of the line of b that starts, after
// its indent, with label.
func lastField(t *testing.T, b []string, label string) string {
	t.Helper()
	for _, l := range b {
		if strings.HasPrefix(strings.TrimSpace(l), label) {
			f := strings.Fields(l)
			return f[len(f)-1]
		}
	}
	t.Fatalf("golden headline has no %q line", label)
	return ""
}

// histogram returns the series cells of a cumulative figure's row for
// threshold th; title selects the figure's block unless b is one.
func histogram(t *testing.T, b []string, title, th string) []string {
	t.Helper()
	if title != "" {
		b = block(t, b, title)
	}
	for _, l := range b[2:] {
		if f := strings.Fields(l); len(f) > 1 && f[0] == th {
			return f[1:]
		}
	}
	t.Fatalf("figure %q has no row %s", b[0], th)
	return nil
}

// section returns the lines under a Markdown heading, up to the next
// heading of the same level.
func section(doc []string, heading string) []string {
	for i, l := range doc {
		if strings.HasPrefix(l, heading) {
			end := i + 1
			for end < len(doc) && !strings.HasPrefix(doc[end], "## ") {
				end++
			}
			return doc[i+1 : end]
		}
	}
	return nil
}

// docTable maps the first cell of every table row under heading to the
// row's other cells.
func docTable(doc []string, heading string) map[string][]string {
	out := map[string][]string{}
	for _, l := range section(doc, heading) {
		if !strings.HasPrefix(l, "|") {
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(l, "|"), "|") {
			cells = append(cells, strings.TrimSpace(c))
		}
		out[cells[0]] = cells[1:]
	}
	return out
}

// thousands formats n with comma separators, as EXPERIMENTS.md does.
func thousands(n int) string {
	s := fmt.Sprint(n)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}
