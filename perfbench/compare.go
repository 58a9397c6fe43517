package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the A/A compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain reads two result sets of the same code — directories
// holding <workload>/<seed>.out files, each a run's standard output —
// and reports, per workload and end-to-end metric, both medians, both
// quartile spreads (as a share of the median) and whether the pair
// stays within the metric's bound: each spread within it (setup_s
// excepted) and the second median no worse than the first by more than
// it. It fails when any pair does not, or any run failed a job.
func compareMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("compare needs two result directories")
	}
	data, err := os.ReadFile(*bench)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", *bench, err)
	}
	a, err := loadResults(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadResults(fs.Arg(1))
	if err != nil {
		return err
	}
	var names []string
	for w := range a {
		if _, ok := b[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return errors.New("the two result sets share no workload")
	}

	// The table is formatted into a buffer, which cannot fail, and
	// aligned on the way out.
	var tab bytes.Buffer
	fmt.Fprintln(&tab, "workload\tmetric\truns\tmedian A\tspread A\tmedian B\tspread B\tB vs A\tbound\tverdict\t")
	bad := 0
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			xa, xb := a[w].values(m.Name), b[w].values(m.Name)
			if len(xa) < 2 || len(xb) < 2 {
				fmt.Fprintf(&tab, "%s\t%s\t%d/%d\t\t\t\t\t\t%.3f\tmissing\t\n", w, m.Name, len(xa), len(xb), m.Bound)
				bad++
				continue
			}
			ma, sa := medianSpread(xa)
			mb, sb := medianSpread(xb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			ok := worse <= m.Bound && (m.Name == "setup_s" || (sa <= m.Bound && sb <= m.Bound))
			verdict := "ok"
			switch {
			case !ok:
				verdict = "OUT"
				bad++
			case m.Name != "setup_s" && (sa > m.Bound/3 || sb > m.Bound/3):
				verdict = "ok (spread > bound/3)"
			}
			fmt.Fprintf(&tab, "%s\t%s\t%d/%d\t%.4g\t%.3f\t%.4g\t%.3f\t%+.3f\t%.3f\t%s\t\n",
				w, m.Name, len(xa), len(xb), ma, sa, mb, sb, (mb-ma)/ma, m.Bound, verdict)
		}
		if f := a[w].failed + b[w].failed; f > 0 {
			fmt.Fprintf(&tab, "%s\tfailed jobs\t%d\t\t\t\t\t\t\tOUT\t\n", w, f)
			bad++
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	if _, err := tw.Write(tab.Bytes()); err != nil {
		return err
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d metric/workload pairs out of bounds", bad)
	}
	return nil
}

// medianSpread returns the median of xs and the distance between its
// quartiles as a share of the median.
func medianSpread(xs []float64) (med, spread float64) {
	med = median(xs)
	q1, q3 := quartiles(xs)
	return med, (q3 - q1) / med
}

// resultSet is every run of one workload in a result directory.
type resultSet struct {
	runs   []result
	failed int
}

func (s resultSet) values(name string) []float64 {
	var xs []float64
	for _, r := range s.runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// loadResults reads dir/<workload>/*.out, taking each file's last line
// as the run's result.
func loadResults(dir string) (map[string]resultSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.out"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]resultSet)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var last string
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			if line := strings.TrimSpace(sc.Text()); line != "" {
				last = line
			}
		}
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			return nil, fmt.Errorf("%s: no result line: %w", f, err)
		}
		w := filepath.Base(filepath.Dir(f))
		s := out[w]
		s.runs = append(s.runs, r)
		s.failed += r.Failed
		if !r.Correct && r.Failed == 0 {
			s.failed++
		}
		out[w] = s
	}
	return out, nil
}
