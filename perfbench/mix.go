package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"protoclust"
	"protoclust/internal/core"
	"protoclust/internal/dissim"
	"protoclust/internal/segment"
	"protoclust/internal/service"
)

// pollInterval is how long a client waits between status requests of a
// running job. It bounds how late a finished job is seen.
const pollInterval = 2 * time.Millisecond

// mixRunner drives service-mix: closed-loop HTTP clients against an
// in-process protoclustd. Every round starts a fresh service, so the
// same specs miss and hit the result cache in every round.
type mixRunner struct {
	check *checker
	lists [][]mixJob
}

// daemon is one running service with its loopback HTTP server.
type daemon struct {
	svc  *service.Service
	srv  *http.Server
	done chan error
	base string
	hc   *http.Client
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	d := &daemon{
		svc:  service.New(service.Config{Logger: quiet}),
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: mixClients}},
	}
	d.srv = &http.Server{Handler: d.svc.Handler()}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// stop shuts the HTTP server and the service down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serveErr := <-d.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	if sErr := d.svc.Shutdown(ctx); err == nil {
		err = sErr
	}
	d.hc.CloseIdleConnections()
	return err
}

func setupMix(ctx context.Context, env *env) (runner, error) {
	check, err := env.loadChecker()
	if err != nil {
		return nil, err
	}
	r := &mixRunner{check: check}
	for c := 0; c < mixClients; c++ {
		r.lists = append(r.lists, serviceMixJobs(env.group, c))
	}
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	warm := warmUp
	warm.seed = env.group.base
	_, _, _, err = d.do(ctx, warm)
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

func (r *mixRunner) round(ctx context.Context, t *tracer) (roundResult, error) {
	d, err := startDaemon()
	if err != nil {
		return roundResult{}, err
	}
	rr, err := r.drive(ctx, t, d)
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err == nil && t != nil {
		err = r.probe(ctx, t, rr.layers)
	}
	return rr, err
}

// drive runs every client's list once against d.
func (r *mixRunner) drive(ctx context.Context, t *tracer, d *daemon) (roundResult, error) {
	before, err := d.scrape(ctx)
	if err != nil {
		return roundResult{}, err
	}
	results := make([]roundResult, len(r.lists))
	waits := make([][]float64, len(r.lists))
	runs := make([][]float64, len(r.lists))
	https := make([][]float64, len(r.lists))
	start := time.Now()
	var wg sync.WaitGroup
	for c, list := range r.lists {
		wg.Add(1)
		go func(c int, list []mixJob) {
			defer wg.Done()
			rr := &results[c]
			seen := make(map[string][]byte)
			for _, j := range list {
				rr.attempted++
				lat, st, body, err := d.do(ctx, j)
				if err == nil {
					err = r.verify(j, st, body, seen)
				}
				if err != nil {
					rr.fail(err)
					continue
				}
				rr.jobs = append(rr.jobs, lat)
				sub, started, fin := time.UnixMilli(st.SubmittedMS), time.UnixMilli(st.StartedMS), time.UnixMilli(st.FinishedMS)
				wait, run := started.Sub(sub), fin.Sub(started)
				waits[c] = append(waits[c], ms(wait))
				runs[c] = append(runs[c], ms(run))
				https[c] = append(https[c], ms(lat-wait-run))
				end := time.Now()
				root := t.add("service.job", j.key(), -1, end.Add(-lat), end)
				t.add("service.queue", j.key(), root, sub, started)
				t.add("service.run", j.key(), root, started, fin)
			}
		}(c, list)
	}
	wg.Wait()
	rr := roundResult{analysis: time.Since(start), layers: layers{}}
	for _, c := range results {
		rr.attempted += c.attempted
		rr.failed += c.failed
		rr.errs = append(rr.errs, c.errs...)
		rr.jobs = append(rr.jobs, c.jobs...)
	}
	if t == nil {
		return rr, ctx.Err()
	}
	after, err := d.scrape(ctx)
	if err != nil {
		return rr, err
	}
	flat := func(xs [][]float64) []float64 {
		var out []float64
		for _, x := range xs {
			out = append(out, x...)
		}
		return out
	}
	rr.layers["service.queue_wait_ms"] = median(flat(waits))
	rr.layers["service.run_ms"] = median(flat(runs))
	rr.layers["service.http_ms"] = median(flat(https))
	hits := after["protoclustd_cache_hits_total"] - before["protoclustd_cache_hits_total"]
	misses := after["protoclustd_cache_misses_total"] - before["protoclustd_cache_misses_total"]
	if hits+misses > 0 {
		rr.layers["service.cache_hit_ratio"] = hits / (hits + misses)
	}
	for _, stage := range []string{"segment", "cluster", "format"} {
		k := `protoclustd_stage_seconds_sum{stage="` + stage + `"}`
		rr.layers["service.stage."+stage+"_ms"] = (after[k] - before[k]) * 1e3
	}
	return rr, ctx.Err()
}

// verify checks one service result: misses against expected.json,
// hits byte-for-byte against this client's earlier miss of the spec.
func (r *mixRunner) verify(j mixJob, st service.JobStatus, body []byte, seen map[string][]byte) error {
	key := j.key()
	if st.CacheHit != j.repeat {
		return fmt.Errorf("%s: cache_hit = %v, want %v", key, st.CacheHit, j.repeat)
	}
	if j.repeat {
		if prev, ok := seen[key]; !ok || !bytes.Equal(prev, body) {
			return fmt.Errorf("%s: cache hit differs from its miss", key)
		}
		return nil
	}
	seen[key] = body
	sum := sha256.Sum256(body)
	rec := record{Digest: hex.EncodeToString(sum[:])}
	if j.train == nil {
		var rep protoclust.Report
		if err := json.Unmarshal(body, &rep); err != nil {
			return fmt.Errorf("%s: result: %w", key, err)
		}
		rec.Epsilon, rec.Clusters, rec.Noise = rep.Epsilon, len(rep.PseudoTypes), rep.NoiseSegments
	}
	return r.check.check(key, rec)
}

// do submits one job, polls its status until it is terminal and fetches
// its result. The latency runs from the submission to the last byte of
// the result.
func (d *daemon) do(ctx context.Context, j mixJob) (time.Duration, service.JobStatus, []byte, error) {
	var st service.JobStatus
	body, err := j.body()
	if err != nil {
		return 0, st, nil, err
	}
	start := time.Now()
	var sub struct{ ID string }
	if err := d.call(ctx, http.MethodPost, j.path(), body, http.StatusAccepted, &sub); err != nil {
		return 0, st, nil, fmt.Errorf("%s: submit: %w", j.key(), err)
	}
	for {
		if err := d.call(ctx, http.MethodGet, j.path()+"/"+sub.ID, nil, http.StatusOK, &st); err != nil {
			return 0, st, nil, fmt.Errorf("%s: status: %w", j.key(), err)
		}
		if st.State.Terminal() {
			break
		}
		select {
		case <-ctx.Done():
			return 0, st, nil, ctx.Err()
		case <-time.After(pollInterval):
		}
	}
	if st.State != service.StateDone {
		return time.Since(start), st, nil, fmt.Errorf("%s: job %s: %s", j.key(), st.State, st.Error)
	}
	var raw json.RawMessage
	if err := d.call(ctx, http.MethodGet, j.path()+"/"+sub.ID+"/result", nil, http.StatusOK, &raw); err != nil {
		return 0, st, nil, fmt.Errorf("%s: result: %w", j.key(), err)
	}
	return time.Since(start), st, raw, nil
}

// call sends one request and decodes a JSON reply with the wanted
// status code into out.
func (d *daemon) call(ctx context.Context, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// scrape reads the service's /metrics exposition into a map keyed by
// the series name including its labels.
func (d *daemon) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// probe times, after a traced round, the layers the service runs
// without a seam the client can see: segmentation and pool building of
// every analysis spec the round missed on, template learning and
// recognition of its format jobs, and clustering on the tiled store of
// its memory-budgeted jobs. Probes run after the service stopped, so
// they do not disturb the round's timings.
func (r *mixRunner) probe(ctx context.Context, t *tracer, acc layers) error {
	var known, classified float64
	for _, list := range r.lists {
		for _, j := range list {
			if j.repeat {
				continue
			}
			key := j.key()
			tr, err := protoclust.GenerateTrace(j.proto, j.n, j.seed)
			if err != nil {
				return err
			}
			o := protoclust.DefaultOptions()
			o.Segmenter = j.segmenter
			if j.train != nil {
				k, c, err := probeFormat(ctx, t, acc, key, tr, o, j.train)
				if err != nil {
					return fmt.Errorf("%s: probe: %w", key, err)
				}
				known += k
				classified += c
				continue
			}
			if err := probeSegment(ctx, t, acc, key, tr, o, j.budget); err != nil {
				return fmt.Errorf("%s: probe: %w", key, err)
			}
		}
	}
	if classified > 0 {
		acc["format.recognize.known_share"] = known / classified
	}
	return nil
}

// probeSegment times segmentation and pool building of one trace and,
// for a memory-budgeted job, the clustering on the tiled store.
func probeSegment(ctx context.Context, t *tracer, acc layers, key string, tr *protoclust.Trace, o protoclust.Options, budget int64) error {
	seg, err := protoclust.NewSegmenter(o.Segmenter)
	if err != nil {
		return err
	}
	dd := tr.Deduplicate()
	sp := t.begin("segment", key, -1, true)
	segs, err := segment.Run(ctx, seg, dd)
	acc["segment.ms"] += t.end(sp)
	if errors.Is(err, segment.ErrBudgetExceeded) {
		acc["segment.budget_failures"]++
	}
	if err != nil {
		return err
	}
	acc["segment.segments"] += float64(len(segs))
	sp = t.begin("dissim.pool", key, -1, true)
	pool := dissim.NewPool(segs)
	acc["dissim.pool.ms"] += t.end(sp)
	acc["dissim.pool.unique"] += float64(pool.Size())
	if budget <= 0 {
		return nil
	}
	p := o.Params
	sp = t.begin("dissim.matrix.tiled", key, -1, true)
	m, err := dissim.ComputeMatrixContext(ctx, pool, dissim.Config{Penalty: p.Penalty, MemoryBudget: budget})
	if err == nil && m.Backend() != dissim.BackendTiled {
		err = fmt.Errorf("budget %d B left the pool of %d on the %s backend", budget, pool.Size(), m.Backend())
	}
	if err == nil {
		_, err = core.ClusterPoolContext(ctx, pool, m, p)
		if cErr := m.Close(); err == nil {
			err = cErr
		}
	}
	acc["dissim.matrix.tiled_ms"] += t.end(sp)
	return err
}

// probeFormat analyzes a format job's training and recognized traces
// (untimed), then times template learning and recognition. It returns
// how many clusters were assigned a template and how many were
// classified at all.
func probeFormat(ctx context.Context, t *tracer, acc layers, key string, tr *protoclust.Trace, o protoclust.Options, req *service.FormatRequest) (known, classified float64, err error) {
	recognized, err := protoclust.AnalyzeContext(ctx, tr, o)
	if err != nil {
		return 0, 0, err
	}
	train, err := protoclust.GenerateTrace(req.TrainProto, req.TrainN, req.TrainSeed)
	if err != nil {
		return 0, 0, err
	}
	trained, err := protoclust.AnalyzeContext(ctx, train, o)
	if err != nil {
		return 0, 0, err
	}
	sp := t.begin("format.learn", key, -1, true)
	ts, err := trained.LearnTemplates()
	acc["format.learn.ms"] += t.end(sp)
	if err != nil {
		return 0, 0, err
	}
	acc["format.learn.templates"] += float64(len(ts.Templates))
	sp = t.begin("format.recognize", key, -1, true)
	rec, err := recognized.RecognizeWith(ts)
	acc["format.recognize.ms"] += t.end(sp)
	if err != nil {
		return 0, 0, err
	}
	for _, a := range rec.Assignments {
		if !a.Unknown() {
			known++
		}
	}
	return known, float64(len(rec.Assignments)), nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
