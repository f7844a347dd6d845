package report

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/obs"
)

// Markdown renders the figure as a GitHub-flavored markdown table — the
// format EXPERIMENTS.md records results in.
func Markdown(w io.Writer, f core.Figure) {
	fmt.Fprintf(w, "### %s — %s\n\n", f.ID, f.Title)

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

	header := "| " + f.XLabel + " |"
	sep := "|---|"
	for _, s := range f.Series {
		header += " " + s.Label + " |"
		sep += "---|"
	}
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, sep)
	for _, x := range xs {
		row := "| " + formatNum(x) + " |"
		for _, s := range f.Series {
			row += " " + cell(s, x) + " |"
		}
		fmt.Fprintln(w, row)
	}
	if len(f.Notes) > 0 {
		fmt.Fprintln(w)
		for _, n := range f.Notes {
			fmt.Fprintf(w, "- %s\n", n)
		}
	}
	fmt.Fprintln(w)
}

// WriteMarkdownFile writes f as markdown to path, atomically.
func WriteMarkdownFile(path string, f core.Figure) error {
	w, err := obs.AtomicCreate(path)
	if err != nil {
		return err
	}
	Markdown(w, f)
	return w.Close()
}
