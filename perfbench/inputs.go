package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"time"

	"amjs/internal/job"
	"amjs/internal/sim"
	"amjs/internal/units"
	"amjs/internal/workload"
)

// baseSeed is the generator seed of every workload's base trace.
//
// The benchmark's --seed does not pick the generator seed, because the
// cost of simulating an Intrepid month swings 25-fold between generator
// seeds (0.23 s to 5.6 s for fair-month over seeds 100-124 on a 2-CPU
// Xeon): congestion, and with it the window search, the oracle and the
// rollouts, is set by where the campaign bursts land. No run length that
// fits the benchmark's budget averages that out. Instead --seed perturbs
// the calibrated base trace (see jitter), which changes the schedule and
// its digest while keeping the load shape the paper's numbers describe.
const baseSeed = 42

// jitterSec is the half-width of the submit-time perturbation: one
// walltime-request granule, small against the 90-minute burst spread.
const jitterSec = 300

// makeInputs builds a workload's inputs for one seed: n copies of the
// preset's base trace at baseSeed, each perturbed by jitter under
// (seed, copy). Replaying several copies per run averages out how much
// one perturbation happens to congest the machine. It returns the
// inputs and the time Generate took.
func makeInputs(preset func(int64) workload.Config, seed int64, n int) ([][]*job.Job, time.Duration, error) {
	cfg := preset(baseSeed)
	t0 := time.Now()
	jobs, err := cfg.Generate()
	gen := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("generate %s: %w", cfg.Name, err)
	}
	out := make([][]*job.Job, n)
	for k := range out {
		out[k] = jitter(jobs, seed, k)
	}
	return out, gen, nil
}

// jitter moves every submit time by a uniform draw in ±jitterSec
// (clamped at 0) drawn from the stream for (seed, variant), re-sorts by submit time and renumbers the jobs 1..n
// in that order, as Generate numbers them. The input is not modified.
func jitter(jobs []*job.Job, seed int64, variant int) []*job.Job {
	r := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15+uint64(variant)))
	out := make([]*job.Job, len(jobs))
	for i, j := range jobs {
		c := *j
		s := int64(c.Submit) + r.Int64N(2*jitterSec+1) - jitterSec
		c.Submit = units.Time(max(s, 0))
		out[i] = &c
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Submit < out[b].Submit })
	for i, j := range out {
		j.ID = i + 1
	}
	return out
}

// outcome is what the output checks compare: the schedule digest and
// the paper's headline metrics.
type outcome struct {
	Digest  string
	AvgWait float64 // minutes
	AvgBSLD float64
	Util    float64
	LoC     float64
	Unfair  int
}

// digestJobs is SHA-256 over (ID, start, end) of every job, in order.
func digestJobs(jobs []*job.Job) string {
	h := sha256.New()
	var b [24]byte
	for _, j := range jobs {
		binary.LittleEndian.PutUint64(b[0:], uint64(j.ID))
		binary.LittleEndian.PutUint64(b[8:], uint64(j.Start))
		binary.LittleEndian.PutUint64(b[16:], uint64(j.End))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// summarize computes a run's outcome.
func summarize(res *sim.Result) outcome {
	m := res.Metrics
	return outcome{
		Digest:  digestJobs(res.Jobs),
		AvgWait: m.AvgWaitMinutes(),
		AvgBSLD: m.AvgBSLD(),
		Util:    m.UtilAvg(),
		LoC:     m.LoC(),
		Unfair:  m.UnfairCount(),
	}
}

// combineDigests folds the per-input digests of a run into one.
func combineDigests(ds []string) string {
	h := sha256.New()
	for _, d := range ds {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// baseline is perfbench/baseline.json. Digests holds, by workload and
// seed, the run digest (combineDigests over the inputs) recorded at the
// seed commit for the default and the held-out seed.
type baseline struct {
	Digests map[string]map[string]string `json:"digests"`
}

const baselinePath = "perfbench/baseline.json"

// recordedDigest returns the digest recorded for a workload and seed,
// if any.
func recordedDigest(path, name string, seed int64) (string, bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", false, fmt.Errorf("read recorded digests: %w", err)
	}
	var b baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return "", false, fmt.Errorf("parse %s: %w", path, err)
	}
	d, ok := b.Digests[name][fmt.Sprint(seed)]
	return d, ok, nil
}
