package report

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

func sample() core.Figure {
	return core.Figure{
		ID:     "Fig X",
		Title:  "Sample",
		XLabel: "Processors",
		YLabel: "Speedup",
		Series: []core.Series{
			{Label: "A", X: []float64{1, 2, 4}, Y: []float64{1, 1.9, 3.5}, Err: []float64{0, 0.1, 0.2}},
			{Label: "B", X: []float64{1, 2, 4}, Y: []float64{1, 1.5, 2.0}, Err: []float64{0, 0, 0}},
		},
		Notes: []string{"hello"},
	}
}

func TestTableContainsDataAndNotes(t *testing.T) {
	var b strings.Builder
	Table(&b, sample())
	out := b.String()
	for _, want := range []string{"Fig X", "Sample", "A", "B", "1.90", "± 0.1", "3.50", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestPlotDrawsAllSeries(t *testing.T) {
	var b strings.Builder
	Plot(&b, sample())
	out := b.String()
	if !strings.Contains(out, "o") || !strings.Contains(out, "x") {
		t.Fatalf("plot missing series glyphs:\n%s", out)
	}
	if !strings.Contains(out, "o=A") || !strings.Contains(out, "x=B") {
		t.Fatalf("plot missing legend:\n%s", out)
	}
}

func TestPlotLogAxes(t *testing.T) {
	f := core.Figure{
		ID: "L", LogX: true, LogY: true,
		Series: []core.Series{{Label: "c", X: []float64{64, 1024, 16384}, Y: []float64{10, 1, 0.1}, Err: []float64{0, 0, 0}}},
	}
	var b strings.Builder
	Plot(&b, f)
	if !strings.Contains(b.String(), "o") {
		t.Fatal("log plot drew nothing")
	}
}

func TestPlotEmptyFigureSafe(t *testing.T) {
	var b strings.Builder
	Plot(&b, core.Figure{ID: "E"}) // must not panic
}

func TestRenderCombined(t *testing.T) {
	var b strings.Builder
	Render(&b, sample())
	if !strings.Contains(b.String(), "Fig X") {
		t.Fatal("render produced nothing")
	}
}

func TestFormatNum(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		3.14159: "3.14",
		123.456: "123.5",
		0.01234: "0.012",
	}
	for in, want := range cases {
		if got := formatNum(in); got != want {
			t.Errorf("formatNum(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestMarkdownTable(t *testing.T) {
	var b strings.Builder
	Markdown(&b, sample())
	out := b.String()
	for _, want := range []string{"### Fig X — Sample", "| Processors |", "|---|", "| 1.90 ± 0.100 |", "- hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestPlotSinglePoint(t *testing.T) {
	var b strings.Builder
	f := core.Figure{
		ID:     "Fig 1pt",
		Series: []core.Series{{Label: "A", X: []float64{8}, Y: []float64{2.5}}},
	}
	Plot(&b, f) // degenerate ranges must not divide by zero
	out := b.String()
	if !strings.Contains(out, "o") {
		t.Fatalf("single point not plotted:\n%s", out)
	}
}

// gridGlyphs counts series glyphs on the plot grid itself, excluding the
// header and the legend (whose "o=A" would inflate the count).
func gridGlyphs(out string, g byte) int {
	n := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "  |") {
			n += strings.Count(line, string(g))
		}
	}
	return n
}

func TestPlotAllEqualY(t *testing.T) {
	var b strings.Builder
	f := core.Figure{
		ID:     "Fig flat",
		Series: []core.Series{{Label: "A", X: []float64{1, 2, 4, 8}, Y: []float64{3, 3, 3, 3}}},
	}
	Plot(&b, f)
	if gridGlyphs(b.String(), 'o') != 4 {
		t.Fatalf("flat series lost points:\n%s", b.String())
	}
}

func TestPlotNaNInfGuards(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	f := core.Figure{
		ID: "Fig bad",
		Series: []core.Series{
			{Label: "A", X: []float64{1, 2, 3, 4}, Y: []float64{nan, 5, inf, 7}},
			{Label: "B", X: []float64{nan, inf, 3}, Y: []float64{1, 2, -inf}},
		},
	}
	var b strings.Builder
	Plot(&b, f) // must not panic or poison the bounds
	out := b.String()
	// Only the finite points of A survive; the bounds come from them alone.
	if !strings.Contains(out, "top=7") || !strings.Contains(out, "bottom=5") {
		t.Fatalf("NaN/Inf leaked into plot bounds:\n%s", out)
	}
	// A figure with no plottable points at all renders nothing and survives.
	var b2 strings.Builder
	Plot(&b2, core.Figure{
		ID:     "Fig none",
		Series: []core.Series{{Label: "A", X: []float64{1}, Y: []float64{nan}}},
	})
}

func TestPlotLogAxisSkipsNonPositive(t *testing.T) {
	f := core.Figure{
		ID:   "Fig log",
		LogX: true, LogY: true,
		Series: []core.Series{{Label: "A", X: []float64{0, 10, 100}, Y: []float64{5, 0, 50}}},
	}
	var b strings.Builder
	Plot(&b, f)
	// (0,5) and (10,0) are unplottable on log axes; only (100,50) remains.
	if gridGlyphs(b.String(), 'o') != 1 {
		t.Fatalf("log axis should keep exactly the one positive point:\n%s", b.String())
	}
}

func TestFormatNumNonFinite(t *testing.T) {
	cases := map[float64]string{
		math.NaN():   "NaN",
		math.Inf(1):  "Inf",
		math.Inf(-1): "-Inf",
	}
	for in, want := range cases {
		if got := formatNum(in); got != want {
			t.Errorf("formatNum(%v) = %q, want %q", in, got, want)
		}
	}
}
