// Command perfbench is the repository benchmark: four named workloads
// that between them drive every layer of the scheduler, each measured
// end to end, with its outputs checked, and a traced mode that splits
// the time by layer. See README.md for the workloads, the metrics and
// how to run it.
//
// Usage:
//
//	perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--read-rate R]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every output check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a trace-0 run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"alloc_mb", "MB"},
	{"max_rss_mb", "MB"},
}

// perLayer lists the metrics a trace-1 run reports, on every workload.
// A layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"workload.generate_s", "s"},
	{"sim.wall_s", "s"},
	{"sim.self_s", "s"},
	{"sim.passes", "count"},
	{"sim.passes_per_job", "ratio"},
	{"oracle.worlds", "count"},
	{"oracle.clones", "count"},
	{"oracle.passes", "count"},
	{"oracle.pass_s", "s"},
	{"oracle.probes", "count"},
	{"sched.pass_s", "s"},
	{"sched.pass_us.p50", "us"},
	{"sched.pass_us.p99", "us"},
	{"sched.queue_len.mean", "jobs"},
	{"sched.acting_ratio", "ratio"},
	{"machine.plans", "count"},
	{"machine.earliest_start", "count"},
	{"machine.startable_now", "count"},
	{"machine.commit", "count"},
	{"machine.save_restore", "count"},
	{"machine.clones", "count"},
	{"machine.starts", "count"},
	{"machine.probes_per_pass", "ratio"},
	{"machine.probe_s", "s"},
	{"tuner.checkpoints", "count"},
	{"tuner.checkpoint_s", "s"},
	{"tuner.retunes", "count"},
	{"whatif.rollouts", "count"},
	{"whatif.rollout_plans", "count"},
	{"whatif.probes", "count"},
	{"whatif.tick_ms", "ms"},
	{"whatif.commits", "count"},
	{"metrics.summary_ms", "ms"},
	{"server.post_handler_ms.p50", "ms"},
	{"server.post_handler_ms.p99", "ms"},
	{"server.get_handler_ms.p50", "ms"},
	{"server.get_handler_ms.p99", "ms"},
	{"server.ingest_self_s", "s"},
	{"http.transport_ms.p50", "ms"},
	{"server.flushes", "count"},
	{"server.batch_items.mean", "jobs"},
	{"loadgen.requests", "count"},
	{"loadgen.late_ms.max", "ms"},
	{"loadgen.read_p50_ms", "ms"},
	{"loadgen.read_p99_ms", "ms"},
	{"latency.p99_ms", "ms"},
	{"trace_overhead_pct", "%"},
	{"trace.spans", "count"},
}

// options are the command-line settings of one run.
type options struct {
	seed     int64
	seconds  float64
	trace    bool
	readRate float64 // daemon-replay reads per second
}

// report accumulates one run's outcome.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	digest            string // the run's combined schedule digest
}

func newReport() *report { return &report{values: make(map[string]float64)} }

// check counts one output check and records a failure.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *report) error{
	"atscale":       func(o options, r *report) error { return runSim(atscale, o, r) },
	"fair-month":    func(o options, r *report) error { return runSim(fairMonth, o, r) },
	"whatif-month":  func(o options, r *report) error { return runSim(whatifMonth, o, r) },
	"daemon-replay": runDaemon,
}

func main() {
	name := flag.String("workload", "", "workload: atscale, fair-month, whatif-month or daemon-replay")
	seed := flag.Int64("seed", 42, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced runs, 0 end-to-end metrics")
	readRate := flag.Float64("read-rate", defaultReadRate, "daemon-replay GET requests per second (0: no reads)")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || *readRate < 0 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s, --seconds > 0, --trace 0 or 1, --read-rate >= 0\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	// One P per CPU even when the environment sets GOMAXPROCS, so that
	// every run of every workload has the same parallelism.
	runtime.GOMAXPROCS(runtime.NumCPU())

	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, readRate: *readRate}
	rep := newReport()
	start := time.Now()
	if err := run(opt, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	out := resultJSON{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok && !opt.trace {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", *name, d.name)
			os.Exit(1)
		}
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		fmt.Printf("%-28s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Printf("workload %s seed %d: digest %s, %d checks, %d failed, %.1fs\n",
		*name, opt.seed, rep.digest, rep.attempted, rep.failed, time.Since(start).Seconds())
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if rep.failed > 0 {
		os.Exit(1)
	}
}
