// Command protoclust clusters the message field data types of an
// unknown binary protocol from a pcap trace or a built-in generator,
// printing the inferred pseudo data types.
//
// Usage:
//
//	protoclust -pcap capture.pcap -port 123 -segmenter nemesys
//	protoclust -proto ntp -n 1000 -segmenter truth -dump 5 -semantics
//
// With -pcap, UDP/TCP payloads are extracted (optionally filtered to a
// port) and analyzed without any ground truth; with -proto, a synthetic
// trace is generated and the result is additionally scored against the
// known dissection.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"protoclust"
	"protoclust/internal/dissim"
)

func main() {
	// SIGINT/SIGTERM cancel the analysis context: the pipeline aborts
	// mid-matrix instead of finishing the O(n²) build.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "protoclust:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("protoclust", flag.ContinueOnError)
	var (
		timeout   = fs.Duration("timeout", 0, "abort the analysis after this duration (0 = unbounded)")
		pcapPath  = fs.String("pcap", "", "pcap file to analyze")
		truthPath = fs.String("truth", "", "with -pcap: ground-truth sidecar json (as written by tracegen) to score against")
		port      = fs.Int("port", 0, "with -pcap: keep only payloads to/from this port")
		proto     = fs.String("proto", "", "generate a built-in trace instead: "+strings.Join(protoclust.Protocols(), ", "))
		n         = fs.Int("n", 1000, "with -proto: number of messages")
		seed      = fs.Int64("seed", 1, "with -proto: generator seed")
		segmenter = fs.String("segmenter", protoclust.SegmenterNEMESYS, "segmenter: truth, nemesys, netzob, csp")
		samples   = fs.Int("samples", 4, "sample values printed per cluster")
		verbose   = fs.Bool("v", false, "print every unique value per cluster")
		dump      = fs.Int("dump", 0, "annotated hex dump of the first N messages (bytes colored by cluster)")
		noColor   = fs.Bool("no-color", false, "with -dump: plain tags instead of ANSI colors")
		semFlag   = fs.Bool("semantics", false, "deduce and print cluster semantics")
		msgTypes  = fs.Bool("msgtype", false, "cluster whole messages into message types first")
		asJSON    = fs.Bool("json", false, "emit the analysis as JSON instead of text")
		compFlag  = fs.Bool("composition", false, "with ground truth: print cluster composition by true type")
		memBudget = fs.Int64("memory-budget", 0, "resident bytes allowed for the dissimilarity matrix (0 = 2 GiB default); larger pools switch to the tiled backend")
		backend   = fs.String("matrix-backend", "", "force the matrix storage backend: auto, condensed, tiled (default: auto within -memory-budget)")
		spillDir  = fs.String("spill-dir", "", "with the tiled backend: spill evicted tiles to scratch files under this directory")

		sweepFlag  = fs.Bool("sweep", false, "run a configuration sweep instead of a single analysis (see the -sweep-* axes)")
		sweepSegs  = fs.String("sweep-segmenters", "", "comma-separated segmenter axis (default: the -segmenter value)")
		sweepCls   = fs.String("sweep-clusterers", "", "comma-separated clusterer axis: dbscan, optics, hdbscan (default: dbscan)")
		sweepKs    = fs.String("sweep-ks", "", "comma-separated k' axis; 0 = auto kMax (default: 0)")
		sweepEps   = fs.String("sweep-eps", "", `comma-separated ε-source axis: "knee", "quantile:Q", "fixed:E" (default: knee)`)
		ensembleOn = fs.Bool("ensemble", false, "with -sweep: co-association ensemble voting per segmenter")
		ensWeight  = fs.Bool("ensemble-weighted", false, "with -ensemble: weight member votes by sweep score instead of equally")

		formatFlag   = fs.Bool("format", false, "emit a message-format schema JSON (field types recognized via -templates, or self-trained)")
		templatesIn  = fs.String("templates", "", "recognize against field-type templates loaded from this file (as written by -templates-out)")
		templatesOut = fs.String("templates-out", "", "train field-type templates on this trace and save them to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := dissim.CheckBackend(*backend); err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var (
		tr  *protoclust.Trace
		err error
	)
	switch {
	case *pcapPath != "" && *proto != "":
		return fmt.Errorf("use either -pcap or -proto, not both")
	case *pcapPath != "":
		f, err2 := os.Open(*pcapPath)
		if err2 != nil {
			return err2
		}
		defer f.Close()
		filter := func(src, dst string, payload []byte) bool {
			if *port == 0 {
				return true
			}
			p := ":" + strconv.Itoa(*port)
			return strings.HasSuffix(src, p) || strings.HasSuffix(dst, p)
		}
		tr, err = protoclust.ReadPCAP(f, filter)
		if err == nil && *truthPath != "" {
			tf, err2 := os.Open(*truthPath)
			if err2 != nil {
				return err2
			}
			err = protoclust.AttachTruth(tr, tf)
			// Read-only file: a close error carries no data-loss signal.
			_ = tf.Close()
		}
	case *proto != "":
		tr, err = protoclust.GenerateTrace(*proto, *n, *seed)
	default:
		return fmt.Errorf("one of -pcap or -proto is required")
	}
	if err != nil {
		return err
	}
	out := &printer{w: stdout}
	// -json and -format own stdout with machine-readable output.
	if !*asJSON && !*formatFlag {
		out.printf("trace: %d messages, %d bytes\n", len(tr.Messages), tr.TotalBytes())
	}

	opts := protoclust.DefaultOptions()
	opts.Segmenter = *segmenter
	opts.Params.MemoryBudget = *memBudget
	opts.Params.MatrixBackend = *backend
	opts.Params.MatrixSpillDir = *spillDir

	if *sweepFlag {
		if out.err != nil {
			return out.err
		}
		return runSweep(ctx, tr, opts, sweepArgs{
			segmenters: *sweepSegs,
			clusterers: *sweepCls,
			ks:         *sweepKs,
			eps:        *sweepEps,
			ensemble:   *ensembleOn,
			weighted:   *ensWeight,
			samples:    *samples,
			asJSON:     *asJSON,
		}, stdout)
	}

	if *msgTypes {
		mt, err := protoclust.ClusterMessageTypes(ctx, tr, opts)
		if err != nil {
			return err
		}
		out.printf("message types (eps=%.3f): %d types, %d unmatched\n",
			mt.Epsilon, len(mt.Types), len(mt.Noise))
		for i, group := range mt.Types {
			out.printf("    type %d: %d messages, e.g. %x…\n",
				i, len(group), group[0].Data[:minInt(8, len(group[0].Data))])
		}
		out.println()
	}
	start := time.Now()
	analysis, err := protoclust.AnalyzeContext(ctx, tr, opts)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("analysis exceeded -timeout after %s: %w", time.Since(start).Round(time.Millisecond), err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("analysis interrupted after %s: %w", time.Since(start).Round(time.Millisecond), err)
	case err != nil:
		return err
	}

	if *formatFlag || *templatesOut != "" {
		if out.err != nil {
			return out.err
		}
		return runFormat(analysis, formatArgs{
			emit:         *formatFlag,
			templatesIn:  *templatesIn,
			templatesOut: *templatesOut,
		}, stdout)
	}

	if *asJSON {
		if out.err != nil {
			return out.err
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(analysis.Report(*samples))
	}

	out.printf("auto-configured DBSCAN: eps=%.3f min_samples=%d (unique segments: %d)\n",
		analysis.Epsilon(), analysis.MinSamples(), analysis.UniqueSegments())
	out.printf("coverage: %.1f%% of trace bytes\n\n", analysis.Coverage()*100)

	for _, pt := range analysis.PseudoTypes() {
		out.printf("pseudo data type %d: %d segments, %d distinct values\n",
			pt.ID, len(pt.Segments), len(pt.UniqueValues))
		limit := *samples
		if *verbose {
			limit = len(pt.UniqueValues)
		}
		for _, v := range pt.SampleValues(limit) {
			out.printf("    %s\n", v)
		}
	}
	out.printf("\nnoise: %d segments\n", len(analysis.Noise()))

	if *semFlag {
		out.println("\ndeduced cluster semantics:")
		for _, d := range analysis.DeduceSemantics() {
			out.printf("    type %2d: %-13s (confidence %.2f, %s)\n", d.ClusterID, d.Label, d.Confidence, d.Detail)
		}
	}

	if *compFlag {
		out.println()
		if err := analysis.WriteClusterComposition(stdout); err != nil {
			return err
		}
	}

	if *dump > 0 {
		out.println()
		if err := analysis.WriteClusterDump(stdout, *dump, !*noColor); err != nil {
			return err
		}
	}

	if *proto != "" || *truthPath != "" {
		m := analysis.Evaluate()
		out.printf("\nevaluation vs. ground truth: P=%.2f R=%.2f F1/4=%.2f\n",
			m.Precision, m.Recall, m.FScore)
	}
	return out.err
}

// printer accumulates the first write error so the report above doesn't
// need an error ladder per line ("errors are values"); run returns it
// once at the end.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, a ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, a...)
	}
}

func (p *printer) println(a ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintln(p.w, a...)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
