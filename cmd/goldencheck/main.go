// Command goldencheck runs the analysis pipeline on the golden trace
// set and compares each run's headline numbers (ε, k, cluster count,
// precision, recall, F¼, coverage) against the records in
// testdata/golden/. It exits non-zero when any metric leaves its
// tolerance band.
//
// Usage:
//
//	goldencheck                  # check against the stored records
//	goldencheck -update          # regenerate the stored records
//	goldencheck -backend tiled   # force a matrix backend (same records)
//
// Wired as `make golden-check` / `make golden-update`; the make target
// runs both the default and the tiled backend against the same records,
// since every matrix backend must produce bit-identical labels.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"protoclust/internal/dissim"
	"protoclust/internal/golden"
)

func main() {
	var (
		update    = flag.Bool("update", false, "rewrite the golden records from the current pipeline output")
		dir       = flag.String("dir", "testdata/golden", "directory holding the golden records")
		backend   = flag.String("backend", "", "dissimilarity-matrix backend: auto, condensed, tiled (default: auto)")
		formatRun = flag.Bool("format", false, "also check the cross-trace field-type recognition records")
	)
	flag.Parse()
	if err := dissim.CheckBackend(*backend); err != nil {
		fmt.Fprintln(os.Stderr, "goldencheck:", err)
		os.Exit(2)
	}

	ctx := context.Background()
	tol := golden.DefaultTolerance()
	failed := 0
	for _, spec := range golden.DefaultTraces() {
		rec, err := golden.Run(ctx, spec, *backend)
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", spec, err)
			failed++
			continue
		}
		path := golden.Path(*dir, spec)
		if *update {
			if err := golden.Save(path, rec); err != nil {
				fmt.Fprintf(os.Stderr, "FAIL %s: write: %v\n", spec, err)
				failed++
				continue
			}
			fmt.Printf("wrote %s (eps=%.5f k=%d clusters=%d P=%.3f R=%.3f F=%.3f cov=%.3f)\n",
				path, rec.Epsilon, rec.K, rec.Clusters, rec.Precision, rec.Recall, rec.FScore, rec.Coverage)
			continue
		}
		want, err := golden.Load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %s: %v (run `goldencheck -update` to create the record)\n", spec, err)
			failed++
			continue
		}
		if violations := golden.Compare(want, rec, tol); len(violations) > 0 {
			fmt.Fprintf(os.Stderr, "FAIL %s:\n", spec)
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
			failed++
			continue
		}
		fmt.Printf("ok   %s (eps=%.5f k=%d clusters=%d P=%.3f R=%.3f F=%.3f cov=%.3f)\n",
			spec, rec.Epsilon, rec.K, rec.Clusters, rec.Precision, rec.Recall, rec.FScore, rec.Coverage)
	}
	if *formatRun {
		failed += checkFormats(ctx, *dir, *update, tol)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "golden check failed for %d trace(s)\n", failed)
		os.Exit(1)
	}
}

// checkFormats runs the cross-trace recognition set (train on one
// seed, recognize another) against its golden records, returning the
// failure count.
func checkFormats(ctx context.Context, dir string, update bool, tol golden.Tolerance) int {
	failed := 0
	for _, spec := range golden.DefaultFormatTraces() {
		rec, err := golden.RunFormat(ctx, spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", spec, err)
			failed++
			continue
		}
		path := golden.FormatPath(dir, spec)
		if update {
			if err := golden.SaveFormat(path, rec); err != nil {
				fmt.Fprintf(os.Stderr, "FAIL %s: write: %v\n", spec, err)
				failed++
				continue
			}
			fmt.Printf("wrote %s (templates=%d assigned=%d unknown=%d acc=%.3f cov=%.3f)\n",
				path, rec.Templates, rec.Assigned, rec.Unknown, rec.TypeAccuracy, rec.ByteCoverage)
			continue
		}
		want, err := golden.LoadFormat(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %s: %v (run `goldencheck -update -format` to create the record)\n", spec, err)
			failed++
			continue
		}
		if violations := golden.CompareFormat(want, rec, tol); len(violations) > 0 {
			fmt.Fprintf(os.Stderr, "FAIL %s:\n", spec)
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
			failed++
			continue
		}
		fmt.Printf("ok   %s (templates=%d assigned=%d unknown=%d acc=%.3f cov=%.3f)\n",
			spec, rec.Templates, rec.Assigned, rec.Unknown, rec.TypeAccuracy, rec.ByteCoverage)
	}
	return failed
}
