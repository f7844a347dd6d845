// Package report renders reproduced figures (internal/core.Figure) as
// fixed-width text: a data table per figure plus a rough ASCII plot for
// quick visual comparison against the paper. The tables are the ground
// truth recorded in EXPERIMENTS.md; the plots are a convenience.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/core"
)

// Table renders the figure's series as an aligned table: one row per X
// value, one column per series (mean ± stddev when error bars exist).
func Table(w io.Writer, f core.Figure) {
	fmt.Fprintf(w, "%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(w, "x = %s; y = %s\n", f.XLabel, f.YLabel)

	// Collect the union of X values in first-seen order.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}

	header := fmt.Sprintf("%12s", trunc(f.XLabel, 12))
	for _, s := range f.Series {
		header += fmt.Sprintf(" | %18s", trunc(s.Label, 18))
	}
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	for _, x := range xs {
		row := fmt.Sprintf("%12s", formatNum(x))
		for _, s := range f.Series {
			row += fmt.Sprintf(" | %18s", cell(s, x))
		}
		fmt.Fprintln(w, row)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

func cell(s core.Series, x float64) string {
	for i, sx := range s.X {
		if sx == x {
			if i < len(s.Err) && s.Err[i] > 0 {
				return fmt.Sprintf("%s ± %s", formatNum(s.Y[i]), formatNum(s.Err[i]))
			}
			return formatNum(s.Y[i])
		}
	}
	return ""
}

func formatNum(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	if math.IsInf(v, 0) {
		if v > 0 {
			return "Inf"
		}
		return "-Inf"
	}
	av := math.Abs(v)
	switch {
	case v == math.Trunc(v) && av < 1e7:
		return fmt.Sprintf("%.0f", v)
	case av >= 100:
		return fmt.Sprintf("%.1f", v)
	case av >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// The ASCII chart's grid.
const (
	plotWidth  = 64 // columns
	plotHeight = 16 // rows
)

// Plot renders a crude ASCII chart of the figure, one glyph per series.
// Log axes follow the figure's flags.
func Plot(w io.Writer, f core.Figure) {
	glyphs := "ox+*#@%&"

	// Bounds.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	tx := func(v float64) float64 {
		if f.LogX && v > 0 {
			return math.Log10(v)
		}
		return v
	}
	ty := func(v float64) float64 {
		if f.LogY && v > 0 {
			return math.Log10(v)
		}
		return v
	}
	// plottable skips points that cannot land on the grid: NaN or infinite
	// coordinates (a NaN would otherwise poison the min/max bounds), and
	// non-positive values on a log axis.
	plottable := func(s core.Series, i int) bool {
		if math.IsNaN(s.X[i]) || math.IsInf(s.X[i], 0) ||
			math.IsNaN(s.Y[i]) || math.IsInf(s.Y[i], 0) {
			return false
		}
		if f.LogX && s.X[i] <= 0 {
			return false
		}
		if f.LogY && s.Y[i] <= 0 {
			return false
		}
		return true
	}
	for _, s := range f.Series {
		for i := range s.X {
			if !plottable(s, i) {
				continue
			}
			minX, maxX = math.Min(minX, tx(s.X[i])), math.Max(maxX, tx(s.X[i]))
			minY, maxY = math.Min(minY, ty(s.Y[i])), math.Max(maxY, ty(s.Y[i]))
		}
	}
	if math.IsInf(minX, 1) || maxX == minX {
		maxX = minX + 1
	}
	if math.IsInf(minY, 1) {
		return
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, plotHeight)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", plotWidth))
	}
	for si, s := range f.Series {
		g := glyphs[si%len(glyphs)]
		for i := range s.X {
			if !plottable(s, i) {
				continue
			}
			cx := int((tx(s.X[i]) - minX) / (maxX - minX) * float64(plotWidth-1))
			cy := int((ty(s.Y[i]) - minY) / (maxY - minY) * float64(plotHeight-1))
			row := plotHeight - 1 - cy
			if row >= 0 && row < plotHeight && cx >= 0 && cx < plotWidth {
				grid[row][cx] = g
			}
		}
	}

	fmt.Fprintf(w, "%s (top=%s, bottom=%s)\n", f.ID, formatNum(maxY), formatNum(minY))
	for _, row := range grid {
		fmt.Fprintf(w, "  |%s|\n", string(row))
	}
	legend := "   "
	for si, s := range f.Series {
		legend += fmt.Sprintf(" %c=%s", glyphs[si%len(glyphs)], s.Label)
	}
	fmt.Fprintln(w, legend)
}

// Render writes the table and plot for a figure.
func Render(w io.Writer, f core.Figure) {
	Table(w, f)
	fmt.Fprintln(w)
	Plot(w, f)
	fmt.Fprintln(w)
}
