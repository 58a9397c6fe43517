package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"protoclust/internal/shard"
)

// maxPCAPBytes bounds uploaded captures (64 MiB).
const maxPCAPBytes = 64 << 20

// submitRequest holds the job fields of a JSON submission.
type submitRequest struct {
	Proto         string `json:"proto,omitempty"`
	N             int    `json:"n,omitempty"`
	Seed          int64  `json:"seed,omitempty"`
	Segmenter     string `json:"segmenter,omitempty"`
	NoDeduplicate bool   `json:"no_deduplicate,omitempty"`
	Samples       int    `json:"samples,omitempty"`
	TimeoutMS     int64  `json:"timeout_ms,omitempty"`
	MemoryBudget  int64  `json:"memory_budget_bytes,omitempty"`
	MatrixBackend string `json:"matrix_backend,omitempty"`
}

// submitBody is the JSON body of POST /v1/{route}: the job fields plus
// the section of the route's kind. A section for another kind is
// ignored, so the route alone decides the kind of the submitted job.
type submitBody struct {
	submitRequest
	Sweep  SweepRequest  `json:"sweep"`
	Format FormatRequest `json:"format"`
}

// submitResponse acknowledges an accepted job.
type submitResponse struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error     string `json:"error"`
	Retryable bool   `json:"retryable,omitempty"`
}

// Handler returns the service's HTTP API. Every job kind of the kind
// table (jobs, sweeps, formats) gets the same route set under its own
// prefix:
//
//	POST   /v1/jobs          submit a generated-trace job (JSON body)
//	POST   /v1/jobs/pcap     submit an uploaded capture (raw pcap body)
//	GET    /v1/jobs/{id}     job status snapshot
//	GET    /v1/jobs/{id}/result  analysis report of a done job
//	DELETE /v1/jobs/{id}     cancel a queued or running job
//	POST   /v1/sweeps        submit a configuration sweep (JSON body)
//	GET    /v1/sweeps/{id}   sweep job status snapshot
//	GET    /v1/sweeps/{id}/result  sweep report of a done sweep
//	POST   /v1/formats       submit a field-type recognition (JSON body)
//	GET    /v1/formats/{id}  format job status snapshot
//	GET    /v1/formats/{id}/result  message-format schema of a done job
//	GET    /healthz          liveness probe
//	GET    /metrics          Prometheus text exposition
//	GET    /debug/pprof/     runtime profiles
//
// Distributed mode adds the shard API protoclust-worker speaks
// (404 when distributed mode is off):
//
//	GET  /v1/shards/lease             lease one shard (204 when idle)
//	GET  /v1/shards/{job}/pool        fetch a job's pool payload
//	POST /v1/shards/{job}/{id}/result post a computed shard
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	for k := kindAnalysis; k < numKinds; k++ {
		prefix := "/v1/" + s.kinds[k].route
		mux.HandleFunc("POST "+prefix, s.handleSubmit(k))
		mux.HandleFunc("GET "+prefix+"/{id}", s.handleStatus)
		mux.HandleFunc("GET "+prefix+"/{id}/result", s.handleResult(k))
	}
	mux.HandleFunc("POST /v1/jobs/pcap", s.handleSubmitPCAP)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET "+shard.LeasePath, s.handleShardLease)
	mux.HandleFunc("GET /v1/shards/{job}/pool", s.handleShardPool)
	mux.HandleFunc("POST /v1/shards/{job}/{id}/result", s.handleShardResult)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleSubmit serves POST /v1/{route} for kind k.
func (s *Service) handleSubmit(k kindID) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req submitBody
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid JSON body: %w", err), false)
			return
		}
		spec := JobSpec{
			Proto:         req.Proto,
			N:             req.N,
			Seed:          req.Seed,
			Segmenter:     req.Segmenter,
			NoDeduplicate: req.NoDeduplicate,
			Samples:       req.Samples,
			Timeout:       time.Duration(req.TimeoutMS) * time.Millisecond,
			MemoryBudget:  req.MemoryBudget,
			MatrixBackend: req.MatrixBackend,
		}
		switch k {
		case kindSweep:
			spec.Sweep = &req.Sweep
		case kindFormat:
			spec.Format = &req.Format
		}
		s.submit(w, spec)
	}
}

func (s *Service) handleSubmitPCAP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxPCAPBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, err, false)
		return
	}
	if len(body) > maxPCAPBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("pcap exceeds %d bytes", maxPCAPBytes), false)
		return
	}
	q := r.URL.Query()
	spec := JobSpec{
		PCAP:          body,
		Segmenter:     q.Get("segmenter"),
		NoDeduplicate: q.Get("no_deduplicate") == "true",
		MatrixBackend: q.Get("matrix_backend"),
	}
	// Integers parse as whole strings: "1e9" or "80x" is an error, not a
	// prefix. bitSize 0 bounds port and samples to int.
	var bad error
	parse := func(name string, bitSize int) int64 {
		v := q.Get(name)
		if v == "" || bad != nil {
			return 0
		}
		n, err := strconv.ParseInt(v, 10, bitSize)
		if err != nil {
			bad = fmt.Errorf("invalid %s %q", name, v)
		}
		return n
	}
	spec.MemoryBudget = parse("memory_budget_bytes", 64)
	spec.Port = int(parse("port", 0))
	spec.Timeout = time.Duration(parse("timeout_ms", 64)) * time.Millisecond
	spec.Samples = int(parse("samples", 0))
	if bad != nil {
		writeError(w, http.StatusBadRequest, bad, false)
		return
	}
	s.submit(w, spec)
}

func (s *Service) submit(w http.ResponseWriter, spec JobSpec) {
	id, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err, true)
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err, true)
	case err != nil:
		writeError(w, http.StatusBadRequest, err, false)
	default:
		writeJSON(w, http.StatusAccepted, submitResponse{ID: id, State: StateQueued})
	}
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err, false)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleResult serves GET /v1/{route}/{id}/result for kind k.
func (s *Service) handleResult(k kindID) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		result, err := s.result(r.PathValue("id"), k)
		switch {
		case errors.Is(err, ErrUnknownJob):
			writeError(w, http.StatusNotFound, err, false)
		case errors.Is(err, ErrNotFinished):
			writeError(w, http.StatusConflict, err, true)
		case err != nil:
			writeError(w, http.StatusUnprocessableEntity, err, false)
		default:
			writeJSON(w, http.StatusOK, result)
		}
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Cancel(id); err != nil {
		writeError(w, http.StatusNotFound, err, false)
		return
	}
	st, err := s.Status(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err, false)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Best-effort: a client hanging up mid-scrape is not actionable.
	_, _ = s.metrics.WriteTo(w)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Headers are already written; an encode/write failure here can
	// only mean the client went away.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error, retryable bool) {
	writeJSON(w, code, errorResponse{Error: err.Error(), Retryable: retryable})
}
