// obsdiff compares two run artifacts and prints ranked regression triage.
//
//	go run ./cmd/obsdiff BENCH_base.json BENCH_head.json
//	go run ./cmd/obsdiff -json -o triage.json clean-report.json faulted-report.json
//	go run ./cmd/obsdiff -top 10 base.folded head.folded
//
// The artifact format (perfcheck BENCH report, simulator JSON report,
// metrics snapshot, folded profile) is auto-detected; both files must be
// the same format. Output is a ranked Markdown table by default, JSON with
// -json; -o writes atomically instead of printing.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/obsdiff"
)

func main() {
	asJSON := flag.Bool("json", false, "emit the triage report as JSON instead of Markdown")
	out := flag.String("o", "", "write the report to this file (atomic rename) instead of stdout")
	minRel := flag.Float64("min-rel", 0.02, "noise floor: drop deltas with relative change below this")
	minAbs := flag.Float64("min-abs", 0, "drop deltas whose larger side is below this absolute value")
	top := flag.Int("top", 0, "keep only the top-N ranked deltas (0 = all)")
	fail := flag.Bool("fail", false, "exit 1 when any significant delta survives the filters")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: obsdiff [flags] <artifact-a> <artifact-b>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	rep, err := obsdiff.DiffFiles(flag.Arg(0), flag.Arg(1), obsdiff.Options{
		MinRel: *minRel, MinAbs: *minAbs, Top: *top,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "obsdiff: %v\n", err)
		os.Exit(1)
	}

	buf := rep.Markdown()
	if *asJSON {
		buf = rep.JSON()
	}
	if *out != "" {
		if err := obs.AtomicWriteFile(*out, buf); err != nil {
			fmt.Fprintf(os.Stderr, "obsdiff: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "obsdiff: wrote %s (%d deltas)\n", *out, len(rep.Deltas))
	} else {
		os.Stdout.Write(buf)
	}
	if *fail && len(rep.Deltas) > 0 {
		os.Exit(1)
	}
}
