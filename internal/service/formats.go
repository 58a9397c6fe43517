package service

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"protoclust"
	"protoclust/internal/format"
)

// FormatRequest is the format section of a JobSpec: the training-trace
// source for field-type template learning. The job's own trace
// (Proto/N/Seed or PCAP) is the trace being recognized; templates are
// learned from the generated trace named here, or from the job's own
// trace when TrainProto is empty (self-recognition).
type FormatRequest struct {
	// TrainProto, TrainN, and TrainSeed parameterize the generated
	// training trace, mirroring the job's Proto/N/Seed.
	TrainProto string `json:"train_proto,omitempty"`
	TrainN     int    `json:"train_n,omitempty"`
	TrainSeed  int64  `json:"train_seed,omitempty"`
}

// validate rejects malformed training-trace specs at submission time.
func (r *FormatRequest) validate() error {
	if r.TrainProto == "" {
		if r.TrainN != 0 || r.TrainSeed != 0 {
			return errors.New("service: format train_n/train_seed need train_proto")
		}
		return nil
	}
	if !slices.Contains(protoclust.Protocols(), r.TrainProto) {
		return fmt.Errorf("service: unknown format train_proto %q", r.TrainProto)
	}
	if r.TrainN <= 0 {
		return errors.New("service: format training trace needs train_n > 0")
	}
	return nil
}

// FormatCacheKey derives the content address of a format job: the
// analysis cache key material (canonical base options + deduplicated
// recognized payloads) extended with the canonical training-trace
// encoding. The training trace is generated, so its parameters pin its
// content.
func FormatCacheKey(tr *protoclust.Trace, o protoclust.Options, req *FormatRequest) string {
	return cacheKey(tr, o, req.canonical())
}

// canonical encodes the training-trace spec as the format job's
// cache-key suffix. The version prefix discards cache entries from
// older encodings, like SweepRequest.canonical.
func (r *FormatRequest) canonical() string {
	return fmt.Sprintf("format1\x00train=%q/%d/%d\x00", r.TrainProto, r.TrainN, r.TrainSeed)
}

// recognizeFormat is the format compute: it learns templates on the
// training trace and recognizes tr against them. With no training spec,
// the templates come from tr itself (self-recognition): one analysis
// serves both roles. Both analyses run in-process on the worker's slot —
// format traces are small relative to sweeps, and the schema cache
// makes resubmissions instant.
func (s *Service) recognizeFormat(ctx context.Context, j *job, tr *protoclust.Trace, opts protoclust.Options) (any, []protoclust.StageTiming, error) {
	req := j.spec.Format
	recognized, err := protoclust.AnalyzeContext(ctx, tr, opts)
	if err != nil {
		return nil, nil, err
	}
	trained := recognized
	if req.TrainProto != "" {
		train, err := protoclust.GenerateTrace(req.TrainProto, req.TrainN, req.TrainSeed)
		if err != nil {
			return nil, nil, err
		}
		if trained, err = protoclust.AnalyzeContext(ctx, train, opts); err != nil {
			return nil, nil, err
		}
	}
	ts, err := trained.LearnTemplates()
	if err != nil {
		return nil, nil, err
	}
	rec, err := recognized.RecognizeWith(ts)
	if err != nil {
		return nil, nil, err
	}
	return rec.Schema, nil, nil
}

// FormatResult returns the schema of a done format job; ErrNotFinished
// while queued or running, the job's failure otherwise, and an
// explanatory error for non-format jobs.
func (s *Service) FormatResult(id string) (*format.Schema, error) {
	return typedResult[format.Schema](s.result(id, kindFormat))
}
