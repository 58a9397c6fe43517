// Command evaltables regenerates the paper's evaluation artifacts:
// Table I, Table II, the Figure 2 data series, the Figure 3
// demonstration, and the Section IV-D coverage comparison.
//
// Usage:
//
//	evaltables -table 1            # Table I (ground-truth segments)
//	evaltables -table 2            # Table II (heuristic segmenters)
//	evaltables -figure 2 > fig2.csv
//	evaltables -figure 3
//	evaltables -coverage           # clustering vs. FieldHunter
//	evaltables -all
//
// Table II runs all three heuristic segmenters over all traces and
// takes a few minutes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"protoclust/internal/experiments"
	"protoclust/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "evaltables:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("evaltables", flag.ContinueOnError)
	var (
		table    = fs.Int("table", 0, "regenerate table 1 or 2")
		figure   = fs.Int("figure", 0, "regenerate figure 2 or 3")
		svg      = fs.Bool("svg", false, "with -figure 2: emit SVG instead of CSV")
		asCSV    = fs.Bool("csv", false, "emit tables/coverage as CSV instead of text")
		coverage = fs.Bool("coverage", false, "regenerate the coverage comparison")
		robust   = fs.Bool("robustness", false, "seed sweep: Table I configuration across 5 generator seeds (100-message traces)")
		all      = fs.Bool("all", false, "regenerate everything")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx := context.Background()
	ran := false
	if *all || *table == 1 {
		ran = true
		rows, err := experiments.Table1(ctx)
		if err != nil {
			return err
		}
		write := report.WriteTable1
		if *asCSV {
			write = report.WriteTable1CSV
		}
		if err := write(stdout, rows); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(stdout); err != nil {
			return err
		}
	}
	if *all || *table == 2 {
		ran = true
		rows, err := experiments.Table2(ctx)
		if err != nil {
			return err
		}
		write := report.WriteTable2
		if *asCSV {
			write = report.WriteTable2CSV
		}
		if err := write(stdout, rows); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(stdout); err != nil {
			return err
		}
	}
	if *all || *figure == 2 {
		ran = true
		data, err := experiments.Figure2(ctx)
		if err != nil {
			return err
		}
		if *svg {
			if err := report.WriteFigure2SVG(stdout, data); err != nil {
				return err
			}
		} else if err := report.WriteFigure2CSV(stdout, data); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(stdout); err != nil {
			return err
		}
	}
	if *all || *figure == 3 {
		ran = true
		examples, err := experiments.Figure3(ctx, 3)
		if err != nil {
			return err
		}
		if err := report.WriteFigure3(stdout, examples); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(stdout); err != nil {
			return err
		}
	}
	if *all || *coverage {
		ran = true
		rows, err := experiments.CoverageComparison(ctx)
		if err != nil {
			return err
		}
		write := report.WriteCoverage
		if *asCSV {
			write = report.WriteCoverageCSV
		}
		if err := write(stdout, rows); err != nil {
			return err
		}
	}
	if *all || *robust {
		ran = true
		seeds := []int64{1, 2, 3, 4, 5}
		var rows []experiments.SeedSweepRow
		for _, proto := range []string{"dhcp", "dns", "nbns", "ntp", "smb", "awdl"} {
			row, err := experiments.SeedSweep(ctx, proto, 100, seeds)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
		if err := report.WriteSeedSweep(stdout, rows); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(stdout); err != nil {
			return err
		}
	}
	if !ran {
		fs.Usage()
		return fmt.Errorf("nothing selected; use -table, -figure, -coverage, or -all")
	}
	return nil
}
