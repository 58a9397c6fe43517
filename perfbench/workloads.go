package main

import (
	"encoding/json"
	"fmt"

	"protoclust"
	"protoclust/internal/service"
)

// heldOutSeed is the one workload seed reserved for confirming a claim
// (a claimed gain must also hold on a seed not used while the change
// was written). It maps to its own trace-seed group, so no other
// --seed value reuses its traces. Do not tune or debug with it.
const heldOutSeed = 7919

// seedGroups is the number of trace-seed groups ordinary workload seeds
// map onto. Every group's outputs are recorded in expected.json, so any
// --seed runs with its outputs checked.
const seedGroups = 10

// group is the set of generator seeds one workload seed selects.
type group struct {
	name string
	base int64 // first generator seed of the group
}

// groupFor maps a workload seed onto its trace-seed group.
func groupFor(seed int64) group {
	if seed == heldOutSeed {
		return group{name: "held-out", base: 100 * (seedGroups + 1)}
	}
	g := ((seed % seedGroups) + seedGroups) % seedGroups
	return group{name: fmt.Sprintf("g%d", g), base: 100 * (g + 1)}
}

// allGroups lists every group expected.json must cover.
func allGroups() []group {
	gs := make([]group, 0, seedGroups+1)
	for s := int64(0); s < seedGroups; s++ {
		gs = append(gs, groupFor(s))
	}
	return append(gs, groupFor(heldOutSeed))
}

// analysisJob is one protoclust.AnalyzeContext call of the single-client
// workloads.
type analysisJob struct {
	proto     string
	n         int
	seed      int64
	segmenter string
	// epsilon pins DBSCAN's ε (Params.FixedEpsilon); 0 lets the ε
	// auto-configuration choose it.
	epsilon float64
	// golden marks a spec of testdata/golden, checked with
	// golden.Compare as well as against expected.json.
	golden bool
}

func (j analysisJob) key() string {
	k := fmt.Sprintf("analyze/%s/%s-%d/s%d", j.segmenter, j.proto, j.n, j.seed)
	if j.epsilon > 0 {
		k += fmt.Sprintf("/eps%g", j.epsilon)
	}
	return k
}

func (j analysisJob) options() protoclust.Options {
	o := protoclust.DefaultOptions()
	o.Segmenter = j.segmenter
	o.Params.FixedEpsilon = j.epsilon
	return o
}

// autoEpsJobs is the auto-eps list. Why it exists: ε auto-configuration
// (k-NN ECDF → B-spline → Kneedle per candidate k, Algorithm 1) takes
// about 85% of an analysis and the matrix about 10%, so this is the
// workload a spline/knee change must move. Three seeds each of four
// families, sized so every job takes 0.6–1.3 s: no job is more than a
// tenth of the list, golden ntp-1000 (≈ 9 s) is left out so that no
// single job sets the total, and the median job does not jump between
// families of different cost from one seed to the next (ntp-500 and
// awdl-500 took 2.4 s and 1.6 s). The three golden n=100 specs are cheap
// and tie the run to testdata/golden.
func autoEpsJobs(g group) []analysisJob {
	var jobs []analysisJob
	for r := int64(0); r < 3; r++ {
		s := g.base + r
		jobs = append(jobs,
			analysisJob{proto: "ntp", n: 300, seed: s, segmenter: protoclust.SegmenterTruth},
			analysisJob{proto: "awdl", n: 400, seed: s, segmenter: protoclust.SegmenterTruth},
			analysisJob{proto: "dns", n: 1000, seed: s, segmenter: protoclust.SegmenterNEMESYS},
			analysisJob{proto: "smb", n: 300, seed: s, segmenter: protoclust.SegmenterNEMESYS},
		)
	}
	for _, p := range []string{"dhcp", "dns", "ntp"} {
		jobs = append(jobs, analysisJob{proto: p, n: 100, seed: 1, segmenter: protoclust.SegmenterTruth, golden: true})
	}
	return jobs
}

// pinnedEpsilon is the ε pinned per trace family on pinned-eps, near
// what the auto-configuration picks for the family's smaller traces.
var pinnedEpsilon = map[string]float64{"awdl": 0.13, "smb": 0.17}

// pinnedEpsJobs is the pinned-eps list. Why it exists: it re-runs an
// analysis at a chosen radius (docs/tuning.md), so the auto-
// configuration never runs; the matrix build (pools of 5.5–5.9k unique
// segments, 15–17M pairs) is about half the time and DBSCAN plus
// refinement most of the rest. A spline change must read flat here and
// a kernel or matrix change must show. Four seeds per family, 0.8–1.2 s
// per job.
func pinnedEpsJobs(g group) []analysisJob {
	var jobs []analysisJob
	for r := int64(0); r < 4; r++ {
		for _, p := range []string{"awdl", "smb"} {
			jobs = append(jobs, analysisJob{proto: p, n: 1000, seed: g.base + r,
				segmenter: protoclust.SegmenterNEMESYS, epsilon: pinnedEpsilon[p]})
		}
	}
	return jobs
}

// mixJob is one request of the service-mix workload.
type mixJob struct {
	proto     string
	n         int
	seed      int64
	segmenter string
	// budget is memory_budget_bytes; set below the job's condensed
	// matrix size it routes the job to the tiled backend.
	budget int64
	// train, when non-nil, makes this a POST /v1/formats job whose
	// templates are learned on the named generated trace.
	train *service.FormatRequest
	// repeat marks a resubmission of a spec this client already ran:
	// the service must answer it from its cache with the same bytes.
	repeat bool
}

func (j mixJob) key() string {
	k := fmt.Sprintf("service/%s/%s-%d/s%d", j.segmenter, j.proto, j.n, j.seed)
	if j.budget > 0 {
		k += fmt.Sprintf("/budget%d", j.budget)
	}
	if j.train != nil {
		k += fmt.Sprintf("/format/%s-%d/s%d", j.train.TrainProto, j.train.TrainN, j.train.TrainSeed)
	}
	return k
}

// path is the submission endpoint; status and result live below it.
func (j mixJob) path() string {
	if j.train != nil {
		return "/v1/formats"
	}
	return "/v1/jobs"
}

func (j mixJob) body() ([]byte, error) {
	req := map[string]any{"proto": j.proto, "n": j.n, "seed": j.seed, "segmenter": j.segmenter}
	if j.budget > 0 {
		req["memory_budget_bytes"] = j.budget
	}
	if j.train != nil {
		req["format"] = j.train
	}
	return json.Marshal(req)
}

// tiledBudget is the memory budget of the tiled jobs: below the
// ≈ 200 KB condensed matrix of a dns-100 NEMESYS pool (≈ 320 unique
// segments), so eight of its fifteen 64×64 tiles stay resident. The job
// takes ≈ 250 ms against ≈ 30 ms on the condensed backend; smaller
// budgets thrash (64 KiB: ≈ 1.6 s).
const tiledBudget = 128 << 10

// warmUp is the untimed job every set-up runs once (with the group's
// first seed): a NEMESYS smb-100 analysis, ≈ 130 ms.
var warmUp = mixJob{proto: "smb", n: 100, segmenter: protoclust.SegmenterNEMESYS}

// mixClients is the number of closed-loop clients on service-mix, one
// per worker of the service's default pool.
const mixClients = 2

// serviceMixJobs is one client's list on service-mix. Why it exists: it
// is the only workload on which the service (queue, cache, HTTP), the
// heuristic segmenters, format recognition and the tiled matrix store
// carry the load. Each client runs eight blocks of up to seven jobs (54
// jobs, 108 for both, so at least ten fall beyond p90):
//   - four small NEMESYS analyses on fresh seeds (cache misses);
//   - from the second block on, two repeats of the previous block's
//     specs (cache hits, so reads run beside the other client's writes);
//   - one heavier job, in turn a Netzob dhcp-200 analysis (segmentation
//     ≈ 250 ms against ≈ 6 ms of clustering), a POST /v1/formats
//     train/recognize job, or a tiled-backend job.
//
// Netzob's alignment budget (20M cells) is exceeded from dhcp-300
// (≈ 23.5M cells) on, which would be a deterministic failure; dhcp-200
// needs about half the budget on every seed. The two clients use
// disjoint seeds, and a repeat always follows its own client's miss, so
// which jobs hit the cache does not depend on timing.
func serviceMixJobs(g group, client int) []mixJob {
	small := []string{"dns", "dhcp", "nbns", "modbus"}
	base := g.base + 50*int64(client)
	var jobs []mixJob
	var prev []mixJob
	for b := int64(0); b < 8; b++ {
		var block []mixJob
		for i, p := range small {
			block = append(block, mixJob{proto: p, n: 200, seed: base + b*4 + int64(i), segmenter: protoclust.SegmenterNEMESYS})
		}
		jobs = append(jobs, block...)
		if prev != nil {
			for _, r := range prev[:2] {
				r.repeat = true
				jobs = append(jobs, r)
			}
		}
		prev = block[1:] // repeat a different family mix than the block leads with
		switch b % 3 {
		case 0:
			jobs = append(jobs, mixJob{proto: "dhcp", n: 200, seed: base + b, segmenter: protoclust.SegmenterNetzob})
		case 1:
			jobs = append(jobs, mixJob{proto: "dns", n: 100, seed: base + b, segmenter: protoclust.SegmenterNEMESYS,
				train: &service.FormatRequest{TrainProto: "dns", TrainN: 100, TrainSeed: base + b + 1000}})
		case 2:
			jobs = append(jobs, mixJob{proto: "dns", n: 100, seed: base + b + 2000, segmenter: protoclust.SegmenterNEMESYS, budget: tiledBudget})
		}
	}
	return jobs
}
