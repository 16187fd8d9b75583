package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"amjs/internal/core"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sim"
	"amjs/internal/whatif"
	"amjs/internal/workload"
)

// simSpec is one trace-driven workload: its input preset and the
// simulation configuration it replays the input under.
type simSpec struct {
	name   string
	preset func(int64) workload.Config
	config func() sim.Config // a fresh machine and scheduler each call

	// variants is how many perturbed copies of the base trace one run
	// replays (see makeInputs).
	variants int
}

// atscale is the paper's production scale: the window search, priority
// sort and partition probes do nearly all the work.
var atscale = simSpec{
	name:     "atscale",
	preset:   workload.IntrepidYear,
	variants: 2,
	config: func() sim.Config {
		return sim.Config{Machine: machine.NewIntrepid(), Scheduler: core.NewMetricAware(0.5, 5)}
	},
}

// fairMonth is Table II's configuration: the fairness oracle's nested
// worlds dominate, with periodic elision and checkpoint retunes active.
var fairMonth = simSpec{
	name:     "fair-month",
	preset:   workload.Intrepid,
	variants: 16,
	config: func() sim.Config {
		return sim.Config{
			Machine:        machine.NewIntrepid(),
			Scheduler:      core.NewTuner(core.PaperBFScheme(1000), core.PaperWScheme()),
			SchedulePeriod: 10,
			Fairness:       true,
		}
	},
}

// whatifMonth is the only workload that runs the what-if planner's
// lookahead rollouts.
var whatifMonth = simSpec{
	name:     "whatif-month",
	preset:   workload.Intrepid,
	variants: 16,
	config: func() sim.Config {
		return sim.Config{
			Machine:   machine.NewIntrepid(),
			Scheduler: core.NewTuner(core.WhatIf(whatif.NewPlanner(whatif.Config{Workers: 1}))),
		}
	},
}

// A run builds its inputs at least setupReps times and for at least
// setupTime, each time from a collected heap; setup_s is the median.
// Building a run's inputs takes 3-15 ms, so a fixed small count would
// leave the median to a few noisy samples.
const (
	setupReps = 11
	setupTime = 500 * time.Millisecond
)

// refInputs is how many of a run's inputs are replayed once more under
// Paranoid, which costs about two passes.
const refInputs = 1

// pass is one timed simulation.
type pass struct {
	wall    time.Duration
	allocMB float64
	rec     *recorder
	res     *sim.Result
}

// simulate runs spec over jobs with the scheduler (and, when rec.full,
// the machine) decorated by rec.
func simulate(spec simSpec, jobs []*job.Job, rec *recorder) (pass, error) {
	cfg := spec.config()
	s, err := rec.wrapScheduler(cfg.Scheduler, kindTemplate)
	if err != nil {
		return pass{}, err
	}
	cfg.Scheduler = s
	if rec.full {
		if cfg.Machine, err = rec.wrapMachine(cfg.Machine, kindTemplate); err != nil {
			return pass{}, err
		}
	}
	runtime.GC()
	a0 := heapAllocBytes()
	t0 := time.Now()
	res, err := sim.Run(cfg, jobs)
	wall := time.Since(t0)
	a1 := heapAllocBytes()
	if err != nil {
		return pass{}, fmt.Errorf("%s: %w", spec.name, err)
	}
	return pass{wall: wall, allocMB: float64(a1-a0) / (1 << 20), rec: rec, res: res}, nil
}

// heapAllocBytes is the cumulative heap allocation of the process.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runSim measures one trace-driven workload.
func runSim(spec simSpec, opt options, rep *report) error {
	var (
		inputs   [][]*job.Job
		setups   []float64
		generate []float64
	)
	for t := time.Now(); len(setups) < setupReps || time.Since(t) < setupTime; {
		runtime.GC()
		t0 := time.Now()
		in, gen, err := makeInputs(spec.preset, opt.seed, spec.variants)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		generate = append(generate, gen.Seconds())
		inputs = in
	}

	vs := make([]variant, len(inputs))
	layers := make(map[string][]float64)
	var overhead []float64
	var lastTraced *recorder
	start := time.Now()
	deadline := start.Add(time.Duration(opt.seconds * float64(time.Second)))
	// Every input is replayed at least once; inputs are replayed again,
	// in order, while time remains.
	for i := 0; i < len(vs) || time.Now().Before(deadline); i++ {
		k, round := i%len(vs), i/len(vs)
		v := &vs[k]
		jobs := inputs[k]
		rec := newRecorder(false)
		rec.dayNS = make([]int64, 0, len(v.days)+8)
		p, err := simulate(spec, jobs, rec)
		if err != nil {
			return err
		}
		got := summarize(p.res)
		if round == 0 {
			v.want = got
			rep.check(p.res.AcceptedCount == len(jobs), "%s: variant %d: %d of %d jobs accepted",
				spec.name, k, p.res.AcceptedCount, len(jobs))
		} else {
			rep.check(got == v.want, "%s: variant %d pass %d: outcome %+v, want %+v", spec.name, k, round, got, v.want)
		}
		v.walls = append(v.walls, p.wall.Seconds())
		v.allocs = append(v.allocs, p.allocMB)
		v.addDays(rec.dayNS)
		if !opt.trace {
			continue
		}
		t, err := simulate(spec, jobs, newRecorder(true))
		if err != nil {
			return err
		}
		got = summarize(t.res)
		rep.check(got == v.want, "%s: variant %d traced pass %d: outcome %+v, want %+v", spec.name, k, round, got, v.want)
		for name, x := range simLayers(t, len(jobs)) {
			layers[name] = append(layers[name], x)
		}
		overhead = append(overhead, (t.wall.Seconds()/p.wall.Seconds()-1)*100)
		lastTraced = t.rec
	}
	measured := time.Since(start)
	refStart := time.Now()
	rss := maxRSSMB()

	// The reference: one untimed run with the schedule-validity oracle
	// armed, on undecorated values, of the first refInputs inputs. The
	// others are checked pass against pass when replayed again, and by
	// the recorded digest, which covers every input.
	var digests []string
	for k, v := range vs {
		digests = append(digests, v.want.Digest)
		if k >= refInputs {
			continue
		}
		ref := spec.config()
		ref.Paranoid = true
		res, err := sim.Run(ref, inputs[k])
		if err != nil {
			return fmt.Errorf("%s: variant %d: paranoid reference run: %w", spec.name, k, err)
		}
		got := summarize(res)
		rep.check(got == v.want, "%s: variant %d: outcome %+v differs from the paranoid run's %+v", spec.name, k, v.want, got)
	}
	if err := checkRecorded(rep, baselinePath, spec.name, opt.seed, combineDigests(digests)); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d inputs, %d passes in %.1fs, references %.1fs\n",
		spec.name, len(vs), totalPasses(vs), measured.Seconds(), time.Since(refStart).Seconds())

	var dayMS []float64
	for _, v := range vs {
		dayMS = append(dayMS, v.dayMedians()...)
	}
	if opt.trace {
		rep.values["workload.generate_s"] = median(generate)
		for name, xs := range layers {
			rep.values[name] = median(xs)
		}
		rep.values["trace_overhead_pct"] = median(overhead)
		rep.values["latency.p99_ms"] = quantile(dayMS, 0.99)
		return writeSpans(spec.name, opt.seed, lastTraced)
	}
	// Throughput over the whole input set: each variant contributes its
	// median pass, so one slow pass cannot dominate.
	var njobs, wall, alloc float64
	for k, v := range vs {
		njobs += float64(len(inputs[k]))
		wall += median(v.walls)
		alloc += median(v.allocs)
	}
	rep.values["setup_s"] = median(setups)
	rep.values["jobs_s"] = njobs / wall
	rep.values["latency_p50_ms"] = quantile(dayMS, 0.50)
	rep.values["alloc_mb"] = alloc / float64(len(vs))
	rep.values["max_rss_mb"] = rss
	return nil
}

// variant is one input of a run: its reference outcome and what its
// untraced passes measured.
type variant struct {
	want   outcome
	walls  []float64   // s
	allocs []float64   // MB
	days   [][]float64 // by simulated day, the day's cost in each pass, ms
}

// addDays records one pass's simulated-day costs. Every pass over an
// input produces the same schedule, so day i is the same stretch of
// virtual time in every pass.
func (v *variant) addDays(ns []int64) {
	for i, d := range ns {
		if i == len(v.days) {
			v.days = append(v.days, nil)
		}
		v.days[i] = append(v.days[i], float64(d)/1e6)
	}
}

// totalPasses is the number of timed passes over all inputs.
func totalPasses(vs []variant) int {
	n := 0
	for _, v := range vs {
		n += len(v.walls)
	}
	return n
}

// dayMedians is each simulated day's median cost over the passes, ms:
// the latency samples with the pass-to-pass noise taken out.
func (v *variant) dayMedians() []float64 {
	out := make([]float64, len(v.days))
	for i, xs := range v.days {
		out[i] = median(xs)
	}
	return out
}

// checkRecorded compares a digest with the one recorded in the baseline
// file at path for the workload and seed, when one is recorded.
func checkRecorded(rep *report, path, name string, seed int64, digest string) error {
	rep.digest = digest
	d, ok, err := recordedDigest(path, name, seed)
	if err != nil {
		return err
	}
	if ok {
		rep.check(d == digest, "%s: seed %d digest %s, recorded %s", name, seed, digest, d)
	}
	return nil
}

// simLayers derives the per-layer metrics of one traced simulation.
func simLayers(p pass, njobs int) map[string]float64 {
	r := p.rec
	tot := r.totals()
	m, o, w := &tot[kindMain], &tot[kindOracle], &tot[kindWhatIf]
	v := map[string]float64{
		"sim.wall_s":              p.wall.Seconds(),
		"sim.self_s":              p.wall.Seconds() - float64(r.schedNS)/1e9,
		"sim.passes":              float64(m.passes),
		"sim.passes_per_job":      ratio(m.passes, int64(njobs)),
		"oracle.worlds":           float64(o.worldsRun),
		"oracle.clones":           float64(o.schedClones),
		"oracle.passes":           float64(o.passes),
		"oracle.pass_s":           float64(o.passNS) / 1e9,
		"oracle.probes":           float64(o.probeCalls),
		"sched.pass_s":            float64(m.passNS) / 1e9,
		"sched.queue_len.mean":    ratio(m.queueSum, m.passes),
		"sched.acting_ratio":      ratio(m.actingPasses, m.passes),
		"machine.plans":           float64(m.plans),
		"machine.earliest_start":  float64(m.earliest),
		"machine.startable_now":   float64(m.startable),
		"machine.commit":          float64(m.commits),
		"machine.save_restore":    float64(m.saveRestore),
		"machine.starts":          float64(m.starts),
		"machine.probes_per_pass": ratio(m.probeCalls, m.passes),
		"machine.probe_s":         m.probeNS() / 1e9,
		"tuner.checkpoints":       float64(m.checkpoints),
		"tuner.checkpoint_s":      float64(m.checkpointNS) / 1e9,
		"tuner.retunes":           float64(m.retunes),
		"whatif.rollouts":         float64(w.machineClones),
		"whatif.rollout_plans":    float64(w.plans),
		"whatif.probes":           float64(w.probeCalls),
		"trace.spans":             float64(len(r.spans)),
	}
	var clones int64
	for k := range tot {
		clones += tot[k].machineClones + tot[k].planClones
	}
	v["machine.clones"] = float64(clones)
	us := nsToMS(r.passNS)
	for i := range us {
		us[i] *= 1000
	}
	v["sched.pass_us.p50"] = quantile(us, 0.50)
	v["sched.pass_us.p99"] = quantile(us, 0.99)
	if st := p.res.WhatIf; st != nil {
		if st.LatCount > 0 {
			v["whatif.tick_ms"] = st.LatSumSec / float64(st.LatCount) * 1000
		}
		v["whatif.commits"] = float64(st.Commits)
	}
	t0 := time.Now()
	summarize(p.res)
	v["metrics.summary_ms"] = float64(time.Since(t0)) / 1e6
	return v
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writeSpans writes a recorder's spans, one per line as
// "name start_ns end_ns", under .bench_build/trace.
func writeSpans(name string, seed int64, r *recorder) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	buf := make([]byte, 0, 1<<16)
	for _, s := range r.spans {
		buf = fmt.Appendf(buf, "%s\t%d\t%d\n", s.name, s.start, s.end)
		if len(buf) > 1<<15 {
			if _, err := f.Write(buf); err != nil {
				f.Close()
				return fmt.Errorf("write spans: %w", err)
			}
			buf = buf[:0]
		}
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
