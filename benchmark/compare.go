package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// Verdicts of one workload × metric cell.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// cell is one row of a comparison.
type cell struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Base     float64 `json:"base"`
	New      float64 `json:"new"`
	// Ratio is New / Base; the base of the ratio is always the first file.
	Ratio float64 `json:"ratio"`
	// Worse is the relative change in the metric's bad direction
	// (negative when it improved), as a share of Base.
	Worse   float64 `json:"worse"`
	Bound   float64 `json:"bound"`
	Verdict string  `json:"verdict"`
}

// judge compares one metric of two runs. A change for the worse beyond
// the bound is "worse". An improvement beyond the bound is reported as
// "unresolved", not as a gain: two single runs cannot tell a gain from
// noise, and a claim needs the paired runs the README describes.
func judge(m metricSpec, base, next float64) cell {
	c := cell{Metric: m.Name, Unit: m.Unit, Base: base, New: next, Bound: m.Bound, Ratio: next / base}
	c.Worse = (next - base) / base
	if m.Better == "higher" {
		c.Worse = -c.Worse
	}
	switch {
	case math.IsNaN(c.Worse) || math.IsInf(c.Worse, 0):
		c.Verdict = verdictUnresolved
	case math.Abs(next-base) <= m.Slack:
		c.Verdict = verdictOK
	case c.Worse > m.Bound:
		c.Verdict = verdictWorse
	case c.Worse < -m.Bound:
		c.Verdict = verdictUnresolved
	default:
		c.Verdict = verdictOK
	}
	return c
}

// compareSets returns one cell per workload × end-to-end metric present
// in both sets, in the order of the tables.
func compareSets(base, next *resultSet) []cell {
	var cells []cell
	for _, bw := range base.Workloads {
		for _, nw := range next.Workloads {
			if nw.Name != bw.Name {
				continue
			}
			for _, m := range endToEnd {
				b, okB := bw.EndToEnd[m.Name]
				n, okN := nw.EndToEnd[m.Name]
				if !okB || !okN {
					continue
				}
				c := judge(m, b.Value, n.Value)
				c.Workload = bw.Name
				cells = append(cells, c)
			}
		}
	}
	return cells
}

func printCells(cells []cell) (worse int) {
	fmt.Printf("%-14s %-16s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "worse", "bound", "verdict")
	for _, c := range cells {
		fmt.Printf("%-14s %-16s %14.4f %14.4f %9.4f %+7.1f%% %6.1f%%  %s\n",
			c.Workload, c.Metric, c.Base, c.New, c.Ratio, c.Worse*100, c.Bound*100, c.Verdict)
		if c.Verdict == verdictWorse {
			worse++
		}
	}
	return worse
}

// compareFiles prints the comparison of two result.json files and
// fails when any cell is worse than its bound.
func compareFiles(basePath, nextPath string) error {
	var base, next resultSet
	if err := readJSON(basePath, &base); err != nil {
		return err
	}
	if err := readJSON(nextPath, &next); err != nil {
		return err
	}
	cells := compareSets(&base, &next)
	if len(cells) == 0 {
		return fmt.Errorf("the two files share no workload with end-to-end metrics")
	}
	fmt.Printf("base: %s (seed %d, %d s)\nnew:  %s (seed %d, %d s)\n", basePath, base.Seed, base.Seconds, nextPath, next.Seed, next.Seconds)
	if worse := printCells(cells); worse > 0 {
		return fmt.Errorf("%d cells worse than their bound", worse)
	}
	return nil
}

// aaResult is aa.json: two end-to-end sets from one build and the
// difference of every cell beside its bound.
type aaResult struct {
	Seed    int64  `json:"seed"`
	Seconds int    `json:"seconds"`
	Cells   []cell `json:"cells"`
	// Breaches counts the cells whose two runs differ, in either
	// direction, by more than the bound.
	Breaches int     `json:"breaches"`
	Failed   int64   `json:"failed"`
	Claim    *string `json:"claim"`
}

// runAA runs the end-to-end pass of every named workload twice on the
// same build and checks that the two agree within each metric's bound.
func runAA(names []string, seed int64, seconds int, outDir string) error {
	first, err := runSet(names, seed, seconds, 0, outDir)
	if err != nil {
		return err
	}
	second, err := runSet(names, seed, seconds, 0, outDir)
	if err != nil {
		return err
	}
	aa := aaResult{Seed: seed, Seconds: seconds, Cells: compareSets(first, second), Failed: first.failed() + second.failed()}
	for i, c := range aa.Cells {
		if c.Verdict != verdictOK {
			aa.Cells[i].Verdict = verdictWorse // same code: a difference past the bound either way is a breach
			aa.Breaches++
		}
	}
	printCells(aa.Cells)
	if err := writeJSON(filepath.Join(outDir, "aa.json"), aa); err != nil {
		return err
	}
	fmt.Fprintf(os.Stdout, "\n%d of %d cells differ by more than their bound; %d failed operations\n\"claim\": null\n", aa.Breaches, len(aa.Cells), aa.Failed)
	if aa.Breaches > 0 || aa.Failed > 0 {
		return fmt.Errorf("A/A run does not agree with itself")
	}
	return nil
}
