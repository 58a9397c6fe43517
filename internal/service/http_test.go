package service

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"protoclust"
	"protoclust/internal/pcap"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := newTestService(t, cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

func decodeJSON[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode %s: %v", resp.Request.URL, err)
	}
	return v
}

func httpSubmit(t *testing.T, base string, body string) submitResponse {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	return decodeJSON[submitResponse](t, resp)
}

func httpPoll(t *testing.T, base, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status endpoint = %d", resp.StatusCode)
		}
		st := decodeJSON[JobStatus](t, resp)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after %s", id, st.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHTTPWalkthrough runs the docs/service.md curl sequence: submit a
// generated-trace job, poll, fetch the result, resubmit for a cache
// hit, and read it back from /metrics and /healthz.
func TestHTTPWalkthrough(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})
	body := `{"proto":"ntp","n":60,"seed":1,"segmenter":"truth"}`

	sub := httpSubmit(t, srv.URL, body)
	if sub.ID == "" || sub.State != StateQueued {
		t.Fatalf("submit response = %+v", sub)
	}
	st := httpPoll(t, srv.URL, sub.ID, 30*time.Second)
	if st.State != StateDone || st.CacheHit {
		t.Fatalf("first run: %+v", st)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d, want 200", resp.StatusCode)
	}
	report := decodeJSON[protoclust.Report](t, resp)
	if report.Epsilon <= 0 || len(report.PseudoTypes) == 0 {
		t.Fatalf("report not populated: %+v", report)
	}

	// Identical resubmission is a cache hit, visible in /metrics.
	sub2 := httpSubmit(t, srv.URL, body)
	if st2 := httpPoll(t, srv.URL, sub2.ID, 30*time.Second); st2.State != StateDone || !st2.CacheHit {
		t.Fatalf("resubmission: %+v", st2)
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type = %q", ct)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	metrics := buf.String()
	for _, want := range []string{
		"protoclustd_cache_hits_total 1",
		"protoclustd_cache_misses_total 1",
		"protoclustd_cache_hit_rate 0.5",
		`protoclustd_jobs_total{state="done"} 2`,
		`protoclustd_stage_seconds_count{stage="cluster"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200", resp.StatusCode)
	}
}

// buildPCAP frames each payload of a generated trace as Ethernet/IPv4/
// UDP to dstPort and returns the classic-pcap bytes.
func buildPCAP(t *testing.T, tr *protoclust.Trace, dstPort uint16) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, pcap.LinkTypeEthernet)
	ts := time.Unix(1700000000, 0)
	for i, m := range tr.Messages {
		frame, err := pcap.BuildUDPFrame(net.IPv4(10, 0, 0, 1), net.IPv4(10, 0, 0, 2),
			uint16(40000+i%1000), dstPort, m.Data)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WritePacket(&pcap.Packet{Timestamp: ts, Data: frame}); err != nil {
			t.Fatal(err)
		}
		ts = ts.Add(time.Millisecond)
	}
	return buf.Bytes()
}

func TestHTTPPCAPUpload(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	tr, err := protoclust.GenerateTrace("ntp", 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	capture := buildPCAP(t, tr, 123)

	resp, err := http.Post(srv.URL+"/v1/jobs/pcap?segmenter=nemesys&port=123&samples=2",
		"application/octet-stream", bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pcap submit = %d, want 202", resp.StatusCode)
	}
	sub := decodeJSON[submitResponse](t, resp)
	st := httpPoll(t, srv.URL, sub.ID, 60*time.Second)
	if st.State != StateDone {
		t.Fatalf("pcap job: %+v", st)
	}

	resp, err = http.Get(srv.URL + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	report := decodeJSON[protoclust.Report](t, resp)
	if report.Messages == 0 || len(report.PseudoTypes) == 0 {
		t.Errorf("pcap report not populated: %+v", report)
	}

	// A port filter that matches nothing yields a deterministic failure.
	resp, err = http.Post(srv.URL+"/v1/jobs/pcap?segmenter=nemesys&port=9999",
		"application/octet-stream", bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	sub = decodeJSON[submitResponse](t, resp)
	if st := httpPoll(t, srv.URL, sub.ID, 10*time.Second); st.State != StateFailed || st.Retryable {
		t.Errorf("empty-filter job: %+v, want deterministic failure", st)
	}
}

// TestHTTPCancelRunning covers the acceptance bound over the wire: a
// DELETE on a running smb n=2000 job settles to canceled within 2s.
func TestHTTPCancelRunning(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	sub := httpSubmit(t, srv.URL, `{"proto":"smb","n":2000,"seed":1,"segmenter":"nemesys"}`)

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeJSON[JobStatus](t, resp)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started running: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)

	canceledAt := time.Now()
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	st := httpPoll(t, srv.URL, sub.ID, 10*time.Second)
	if latency := time.Since(canceledAt); st.State != StateCanceled || latency > 2*time.Second {
		t.Errorf("cancel over HTTP: state=%q latency=%s, want canceled within 2s", st.State, latency)
	}
}

func TestHTTPErrors(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 1, QueueSize: 1})

	// Unknown job: 404 on status, result, and cancel.
	for _, probe := range []func() (*http.Response, error){
		func() (*http.Response, error) { return http.Get(srv.URL + "/v1/jobs/j999") },
		func() (*http.Response, error) { return http.Get(srv.URL + "/v1/jobs/j999/result") },
		func() (*http.Response, error) {
			req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/j999", nil)
			return http.DefaultClient.Do(req)
		},
	} {
		resp, err := probe()
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: status = %d, want 404", resp.StatusCode)
		}
	}

	// Malformed JSON body: 400.
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{oops"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status = %d, want 400", resp.StatusCode)
	}

	// Invalid spec (validation error): 400.
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"proto":"ntp"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid spec: status = %d, want 400", resp.StatusCode)
	}

	// Result of a failed job: 422 with the failure message.
	sub := httpSubmit(t, srv.URL, `{"proto":"smb","n":2000,"seed":1,"segmenter":"truth","timeout_ms":50}`)
	if st := httpPoll(t, srv.URL, sub.ID, 30*time.Second); st.State != StateFailed {
		t.Fatalf("deadline job: %+v", st)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("failed-job result: status = %d, want 422", resp.StatusCode)
	}
	if e := decodeJSON[errorResponse](t, resp); !strings.Contains(e.Error, "deadline") {
		t.Errorf("failed-job result error = %q, want deadline message", e.Error)
	}

	// Queue backpressure: fill the single worker and the single slot,
	// then expect 429 + Retry-After. Result of the running job: 409.
	long := httpSubmit(t, srv.URL, `{"proto":"smb","n":2000,"seed":1,"segmenter":"nemesys"}`)
	waitRunning := time.Now().Add(10 * time.Second)
	for {
		st, err := s.Status(long.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			break
		}
		if time.Now().After(waitRunning) {
			t.Fatal("long job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/" + long.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("running-job result: status = %d, want 409", resp.StatusCode)
	}
	httpSubmit(t, srv.URL, `{"proto":"ntp","n":40,"segmenter":"truth"}`) // occupies the queue slot
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"proto":"ntp","n":40,"seed":2,"segmenter":"truth"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overflow submit: status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After")
	}
	if e := decodeJSON[errorResponse](t, resp); !e.Retryable {
		t.Error("queue-full error not marked retryable")
	}
	if err := s.Cancel(long.ID); err != nil {
		t.Fatal(err)
	}

	// Oversized pcap upload: 413.
	oversized := bytes.NewReader(make([]byte, maxPCAPBytes+1))
	resp, err = http.Post(srv.URL+"/v1/jobs/pcap", "application/octet-stream", oversized)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized pcap: status = %d, want 413", resp.StatusCode)
	}

	// Bad query parameters on the pcap endpoint: 400.
	for _, q := range []string{"port=abc", "timeout_ms=xyz", "samples=p",
		"memory_budget_bytes=1e9", "port=80x", "timeout_ms=5s", "port=70000", "port=-1",
		"matrix_backend=dense"} {
		resp, err = http.Post(srv.URL+"/v1/jobs/pcap?"+q, "application/octet-stream",
			strings.NewReader("irrelevant"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestHTTPPprofRegistered(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline = %d, want 200", resp.StatusCode)
	}
}

// TestHTTPMemoryBudgetExceeded submits a job whose explicitly requested
// condensed matrix exceeds its memory budget: the job fails
// deterministically (not retryable), and fetching the result yields a
// 422 whose message names the segment count, so the client can size the
// budget or switch backends. The same trace under the same budget then
// completes on the tiled backend.
func TestHTTPMemoryBudgetExceeded(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	sub := httpSubmit(t, srv.URL,
		`{"proto":"ntp","n":60,"seed":1,"segmenter":"truth","matrix_backend":"condensed","memory_budget_bytes":1024}`)
	st := httpPoll(t, srv.URL, sub.ID, 30*time.Second)
	if st.State != StateFailed || st.Retryable {
		t.Fatalf("job = %+v, want deterministic failure", st)
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("result status = %d, want 422", resp.StatusCode)
	}
	er := decodeJSON[errorResponse](t, resp)
	if !strings.Contains(er.Error, "unique segments") || !strings.Contains(er.Error, "budget") {
		t.Errorf("error %q does not name the segment count and budget", er.Error)
	}

	// Unknown backend names are rejected at submission time.
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"proto":"ntp","n":10,"matrix_backend":"sparse"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown backend submit = %d, want 400", resp.StatusCode)
	}

	sub2 := httpSubmit(t, srv.URL,
		`{"proto":"ntp","n":60,"seed":1,"segmenter":"truth","matrix_backend":"tiled","memory_budget_bytes":1024}`)
	if st2 := httpPoll(t, srv.URL, sub2.ID, 30*time.Second); st2.State != StateDone {
		t.Fatalf("tiled job = %+v, want done", st2)
	}
}
