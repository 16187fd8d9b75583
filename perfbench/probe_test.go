package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"amjs/internal/core"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/whatif"
	"amjs/internal/workload"
)

// capsOf lists the optional capabilities s implements, by name.
func capsOf(s sched.Scheduler) []string {
	var out []string
	for _, c := range schedCaps {
		if c.has(s) {
			out = append(out, c.name)
		}
	}
	return out
}

func machineCaps(m machine.Machine) [3]bool {
	_, a := m.(machine.InPlaceCloner)
	_, b := m.(machine.PlanRecycler)
	_, c := m.(machine.Footprinter)
	return [3]bool{a, b, c}
}

// TestDecoratorParity checks that every decorator the workloads use
// implements exactly the optional interfaces of the value it wraps, in
// both recorder modes and through Clone.
func TestDecoratorParity(t *testing.T) {
	schedulers := map[string]func() sched.Scheduler{
		"core.MetricAware":   func() sched.Scheduler { return core.NewMetricAware(0.5, 5) },
		"core.Tuner/rules":   func() sched.Scheduler { return core.NewTuner(core.PaperBFScheme(1000), core.PaperWScheme()) },
		"core.Tuner/whatif":  func() sched.Scheduler { return core.NewTuner(core.WhatIf(whatif.NewPlanner(whatif.Config{}))) },
		"sched.Reserving":    func() sched.Scheduler { return sched.NewEASY() },
		"core.MetricAware/1": func() sched.Scheduler { return core.NewMetricAware(1, 1) },
	}
	for name, mk := range schedulers {
		for _, full := range []bool{false, true} {
			inner := mk()
			rec := newRecorder(full)
			w, err := rec.wrapScheduler(inner, kindTemplate)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := capsOf(inner)
			if got := capsOf(w); !reflect.DeepEqual(got, want) {
				t.Errorf("%s full=%v: decorator has %v, inner %v", name, full, got, want)
			}
			main := w.Clone()
			if got := capsOf(main); !reflect.DeepEqual(got, want) {
				t.Errorf("%s full=%v: main-world clone has %v, inner %v", name, full, got, want)
			}
			if full {
				if got := capsOf(main.Clone()); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: oracle-world clone has %v, inner %v", name, got, want)
				}
			}
		}
	}

	inner := machine.NewIntrepid()
	m, err := newRecorder(true).wrapMachine(inner, kindTemplate)
	if err != nil {
		t.Fatal(err)
	}
	for _, mm := range []machine.Machine{m, m.Clone()} {
		if got, want := machineCaps(mm), machineCaps(inner); got != want {
			t.Errorf("machine decorator capabilities %v, inner %v", got, want)
		}
		_, got := mm.Plan(0).(machine.PlanCloner)
		_, want := inner.Plan(0).(machine.PlanCloner)
		if got != want {
			t.Errorf("plan decorator PlanCloner %v, inner %v", got, want)
		}
	}
}

// bare is a scheduler with no optional capability.
type bare struct{}

func (bare) Name() string             { return "bare" }
func (bare) Schedule(sched.Env)       {}
func (b bare) Clone() sched.Scheduler { return b }

// TestUnknownCapabilitySetRefused checks that values whose capability
// set no decorator reproduces are refused instead of wrapped.
func TestUnknownCapabilitySetRefused(t *testing.T) {
	rec := newRecorder(true)
	if _, err := rec.wrapScheduler(bare{}, kindTemplate); err == nil {
		t.Error("wrapped a scheduler with no capabilities")
	}
	if _, err := rec.wrapMachine(machine.NewFlat(512), kindTemplate); err == nil {
		t.Error("wrapped a machine without Footprinter")
	}
}

// shortTrace is the first n jobs of a workload's seed-42 input.
func shortTrace(t *testing.T, preset func(int64) workload.Config, n int) []*job.Job {
	t.Helper()
	in, _, err := makeInputs(preset, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	return in[0][:n]
}

// TestTracedRunsMatchUntraced checks that tracing does not change the
// schedule, and that each workload reaches only the layers it is meant
// to.
func TestTracedRunsMatchUntraced(t *testing.T) {
	for _, spec := range []simSpec{atscale, fairMonth, whatifMonth} {
		jobs := shortTrace(t, spec.preset, 400)
		plain, err := simulate(spec, jobs, newRecorder(false))
		if err != nil {
			t.Fatal(err)
		}
		traced, err := simulate(spec, jobs, newRecorder(true))
		if err != nil {
			t.Fatal(err)
		}
		if a, b := summarize(plain.res), summarize(traced.res); a != b {
			t.Errorf("%s: traced outcome %+v, untraced %+v", spec.name, b, a)
		}
		v := simLayers(traced, len(jobs))
		if v["sim.passes"] == 0 || v["machine.plans"] == 0 {
			t.Errorf("%s: no main-world passes or plans recorded: %v", spec.name, v)
		}
		if got := v["oracle.passes"] > 0; got != (spec.name == "fair-month") {
			t.Errorf("%s: oracle.passes = %v", spec.name, v["oracle.passes"])
		}
		if got := v["whatif.rollouts"] > 0; got != (spec.name == "whatif-month") {
			t.Errorf("%s: whatif.rollouts = %v", spec.name, v["whatif.rollouts"])
		}
	}
}

// TestDaemonReplayChecks replays a short trace open and closed loop,
// traced and untraced, and checks every read-back start.
func TestDaemonReplayChecks(t *testing.T) {
	jobs := shortTrace(t, workload.Intrepid, 200)
	cfg := daemonConfig()
	ref, err := referenceRun(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	bodies, err := encodeBatches(jobs)
	if err != nil {
		t.Fatal(err)
	}
	opt := options{seed: 1, readRate: defaultReadRate}
	for _, full := range []bool{false, true} {
		var rec *recorder
		if full {
			rec = newRecorder(true)
		}
		rep := newReport()
		o, err := runReplay(bodies, ref, true, rec, opt, rep)
		if err != nil {
			t.Fatal(err)
		}
		if len(o.postLat) != len(bodies) {
			t.Errorf("full=%v: %d POST latencies for %d batches", full, len(o.postLat), len(bodies))
		}
		if full {
			c, err := runReplay(bodies, ref, false, newRecorder(true), opt, rep)
			if err != nil {
				t.Fatal(err)
			}
			v := daemonLayers(o, c, len(jobs))
			if v["server.post_handler_ms.p50"] <= 0 || v["server.ingest_self_s"] <= 0 || v["server.flushes"] <= 0 {
				t.Errorf("server layers not recorded: %v", v)
			}
			if v["sim.wall_s"] != c.wall.Seconds() || v["sim.self_s"] <= 0 {
				t.Errorf("sim layer not taken from the closed loop: %v", v)
			}
		}
		if rep.failed != 0 || rep.attempted == 0 {
			t.Fatalf("full=%v: %d of %d checks failed: %v", full, rep.failed, rep.attempted, rep.problems)
		}
	}
}

// TestCorruptedDigestCaught checks that a recorded digest that differs
// from the run's fails the run, and that an equal one passes.
func TestCorruptedDigestCaught(t *testing.T) {
	jobs := shortTrace(t, workload.Intrepid, 100)
	p, err := simulate(fairMonth, jobs, newRecorder(false))
	if err != nil {
		t.Fatal(err)
	}
	good := summarize(p.res).Digest
	bad := []byte(good)
	bad[0] ^= 1
	path := filepath.Join(t.TempDir(), "baseline.json")
	for _, tc := range []struct {
		recorded string
		failed   int
	}{{good, 0}, {string(bad), 1}} {
		raw, _ := json.Marshal(baseline{Digests: map[string]map[string]string{"fair-month": {"42": tc.recorded}}})
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		rep := newReport()
		if err := checkRecorded(rep, path, "fair-month", 42, good); err != nil {
			t.Fatal(err)
		}
		if rep.attempted != 1 || rep.failed != tc.failed {
			t.Errorf("recorded %.8s…: %d of %d checks failed, want %d of 1", tc.recorded, rep.failed, rep.attempted, tc.failed)
		}
	}
}

// TestBenchmarkFileMatches checks that BENCHMARK.json lists exactly the
// workloads and metrics this program reports.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	for _, tc := range []struct {
		file []struct{ Name, Unit string }
		prog []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		var got, want []metricDef
		for _, m := range tc.file {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		want = append(want, tc.prog...)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json metrics %v, program %v", got, want)
		}
	}
}
