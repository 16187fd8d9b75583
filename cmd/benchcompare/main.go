// Command benchcompare diffs two BENCH_<n>.json artifacts produced by
// scripts/bench.sh and fails (exit 1) when any benchmark present in
// both regressed by more than the allowed fraction in ns/op. It is the
// in-repo guard against performance backsliding between PRs:
//
//	benchcompare [-max-regress 0.20] OLD.json NEW.json
//
// The diff is grouped by benchmark family (the name up to the first
// "/").
//
// When the new artifact embeds a "baseline" section (pre-change
// end-to-end numbers), the speedup against it is reported as well;
// that comparison is informational and never fails the run. Artifacts
// written by amjs-load -json additionally carry an "ingest_curve"
// section (the IngestHTTP family's saturation sweep), which is printed
// as a table. Artifacts written by scripts/bench.sh carry "fair_ratios"
// (fairness-oracle overhead per engine mode) and "whatif" (the
// simulation-in-the-loop tuner's tick-latency family) sections, each
// printed as its own table; a what-if variant whose lookahead spend
// exceeds 10% of the at-scale end-to-end runtime draws a warning.
//
// When both artifacts carry an "env" section (GOMAXPROCS, CPU model),
// any mismatch is reported as a warning —
// not a failure — since cross-machine ns/op comparisons are noise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

type bench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type env struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
}

type artifact struct {
	Date       string  `json:"date"`
	Go         string  `json:"go"`
	Env        *env    `json:"env"`
	Benchmarks []bench `json:"benchmarks"`
	Baseline   *struct {
		Note       string  `json:"note"`
		Benchmarks []bench `json:"benchmarks"`
	} `json:"baseline"`
	// IngestCurve is the saturation sweep amjs-load embeds in its
	// BENCH artifacts (the IngestHTTP benchmark family).
	IngestCurve []ingestStep `json:"ingest_curve"`
	// FairRatios is the fairness-oracle overhead family scripts/bench.sh
	// derives from the SimEndToEnd rows: fair=on vs fair=off per mode.
	FairRatios []fairRatio `json:"fair_ratios"`
	// WhatIf is the lookahead-tuning cost family scripts/bench.sh
	// derives from the SimWhatIf rows: per variant the mean lookahead
	// tick cost, its share of the run, and the run's total lookahead
	// spend as a percentage of the at-scale end-to-end runtime.
	WhatIf []whatIfCost `json:"whatif"`
}

type whatIfCost struct {
	Variant        string  `json:"variant"`
	TickMs         float64 `json:"tick_ms"`
	OverheadPct    float64 `json:"overhead_pct"`
	Commits        int     `json:"commits"`
	AtScaleTickPct float64 `json:"atscale_tick_pct"`
}

// reportWhatIf prints the what-if tick-latency family. The
// atscale_tick_pct column is the acceptance ratio the artifact records
// (lookahead spend vs at-scale end-to-end runtime, bar <= 10%); a
// breach draws a loud stderr warning, not a failure, because the
// absolute SimWhatIf rows are already under the regression gate.
func reportWhatIf(a *artifact) {
	if len(a.WhatIf) == 0 {
		return
	}
	fmt.Printf("\nwhat-if tick latency:\n")
	fmt.Printf("  %-18s %10s %12s %9s %16s\n",
		"variant", "tick ms", "overhead %", "commits", "vs at-scale %")
	for _, w := range a.WhatIf {
		fmt.Printf("  %-18s %10.4f %12.2f %9d %16.3f\n",
			w.Variant, w.TickMs, w.OverheadPct, w.Commits, w.AtScaleTickPct)
		if w.AtScaleTickPct > 10 {
			fmt.Fprintf(os.Stderr,
				"benchcompare: WARNING: %s: lookahead spend is %.1f%% of at-scale runtime (bar: 10%%)\n",
				w.Variant, w.AtScaleTickPct)
		}
	}
}

type fairRatio struct {
	Mode      string  `json:"mode"`
	FairOffNs float64 `json:"fair_off_ns"`
	FairOnNs  float64 `json:"fair_on_ns"`
	Ratio     float64 `json:"ratio"`
}

// reportFairRatios prints the fairness-oracle overhead family and, when
// the artifact's embedded baseline carries the matching SimEndToEnd
// rows, the baseline's ratio next to it — the before/after of the
// oracle's overhead in one table. Informational: the absolute rows are
// already under the regression gate.
func reportFairRatios(a *artifact) {
	if len(a.FairRatios) == 0 {
		return
	}
	base := map[string]bench{}
	if a.Baseline != nil {
		base = byName(a.Baseline.Benchmarks)
	}
	fmt.Printf("\nfair-oracle overhead (fair=on / fair=off ns/op):\n")
	for _, r := range a.FairRatios {
		line := fmt.Sprintf("  %-10s %5.2fx", r.Mode, r.Ratio)
		off, okOff := base["BenchmarkSimEndToEnd/"+r.Mode+"/fair=off"]
		on, okOn := base["BenchmarkSimEndToEnd/"+r.Mode+"/fair=on"]
		if okOff && okOn && off.NsPerOp > 0 {
			line += fmt.Sprintf("   (baseline %5.2fx)", on.NsPerOp/off.NsPerOp)
		}
		fmt.Println(line)
	}
}

type ingestStep struct {
	OfferedPerSec  float64 `json:"offered_per_sec"`
	AchievedPerSec float64 `json:"achieved_per_sec"`
	Jobs           int     `json:"jobs"`
	APIErrors      int     `json:"api_errors"`
	ConnErrors     int     `json:"conn_errors"`
	P50Ms          float64 `json:"p50_ms"`
	P90Ms          float64 `json:"p90_ms"`
	P99Ms          float64 `json:"p99_ms"`
}

// reportIngestCurve prints the saturation sweep embedded by amjs-load:
// offered vs achieved rate and the latency distribution per step.
// Informational — the regression gate already covers the IngestHTTP/*
// benchmark rows derived from the same data.
func reportIngestCurve(steps []ingestStep) {
	if len(steps) == 0 {
		return
	}
	fmt.Printf("\ningest saturation curve:\n")
	fmt.Printf("  %12s %12s %8s %6s %6s %9s %9s %9s\n",
		"offered/s", "achieved/s", "jobs", "api", "conn", "p50 ms", "p90 ms", "p99 ms")
	for _, s := range steps {
		offered := "max"
		if s.OfferedPerSec > 0 {
			offered = fmt.Sprintf("%.0f", s.OfferedPerSec)
		}
		fmt.Printf("  %12s %12.0f %8d %6d %6d %9.2f %9.2f %9.2f\n",
			offered, s.AchievedPerSec, s.Jobs, s.APIErrors, s.ConnErrors,
			s.P50Ms, s.P90Ms, s.P99Ms)
	}
}

// warnEnvMismatch flags measurement-environment differences between the
// two artifacts. Informational only: a changed machine makes the ns/op
// comparison unreliable, but that is a reason to re-measure, not to
// fail the build.
func warnEnvMismatch(oldArt, newArt *artifact) {
	if oldArt.Env == nil || newArt.Env == nil {
		if newArt.Env != nil {
			fmt.Fprintln(os.Stderr, "benchcompare: warning: old artifact has no env section; cross-machine comparison unverified")
		}
		return
	}
	o, n := oldArt.Env, newArt.Env
	if o.GoMaxProcs != n.GoMaxProcs {
		fmt.Fprintf(os.Stderr, "benchcompare: warning: GOMAXPROCS differs (%d vs %d); ns/op comparison may be noise\n",
			o.GoMaxProcs, n.GoMaxProcs)
	}
	if o.CPU != n.CPU {
		fmt.Fprintf(os.Stderr, "benchcompare: warning: CPU model differs (%q vs %q); ns/op comparison may be noise\n",
			o.CPU, n.CPU)
	}
}

func load(path string) (*artifact, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a artifact
	if err := json.Unmarshal(raw, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &a, nil
}

func byName(bs []bench) map[string]bench {
	m := make(map[string]bench, len(bs))
	for _, b := range bs {
		m[b.Name] = b
	}
	return m
}

// family is the benchmark's top-level name — everything before the
// first sub-benchmark separator — used to group the diff output.
func family(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

func main() {
	maxRegress := flag.Float64("max-regress", 0.20,
		"maximum allowed fractional ns/op regression before failing")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcompare [-max-regress 0.20] OLD.json NEW.json")
		os.Exit(2)
	}
	oldArt, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(2)
	}
	newArt, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(2)
	}

	warnEnvMismatch(oldArt, newArt)

	oldBy := byName(oldArt.Benchmarks)
	shared, regressions := 0, 0
	lastFamily := ""
	for _, nb := range newArt.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok || ob.NsPerOp <= 0 {
			continue
		}
		if fam := family(nb.Name); fam != lastFamily {
			if lastFamily != "" {
				fmt.Println()
			}
			fmt.Printf("%s:\n", fam)
			lastFamily = fam
		}
		shared++
		change := nb.NsPerOp/ob.NsPerOp - 1
		status := "ok"
		if change > *maxRegress {
			status = "REGRESSION"
			regressions++
		}
		fmt.Printf("  %-50s %12.0f -> %12.0f ns/op  %+6.1f%%  %s\n",
			nb.Name, ob.NsPerOp, nb.NsPerOp, change*100, status)
	}
	if shared == 0 {
		fmt.Fprintf(os.Stderr, "benchcompare: no shared benchmarks between %s and %s\n",
			flag.Arg(0), flag.Arg(1))
		os.Exit(2)
	}

	reportFairRatios(newArt)
	reportWhatIf(newArt)
	reportIngestCurve(newArt.IngestCurve)

	if newArt.Baseline != nil {
		fmt.Printf("\nspeedup vs embedded baseline (%s):\n", newArt.Baseline.Note)
		newBy := byName(newArt.Benchmarks)
		for _, bb := range newArt.Baseline.Benchmarks {
			nb, ok := newBy[bb.Name]
			if !ok || nb.NsPerOp <= 0 {
				continue
			}
			fmt.Printf("%-52s %12.0f -> %12.0f ns/op  %5.2fx\n",
				bb.Name, bb.NsPerOp, nb.NsPerOp, bb.NsPerOp/nb.NsPerOp)
		}
	}

	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchcompare: %d benchmark(s) regressed more than %.0f%%\n",
			regressions, *maxRegress*100)
		os.Exit(1)
	}
	fmt.Printf("\nbenchcompare: %d shared benchmark(s), none regressed more than %.0f%%\n",
		shared, *maxRegress*100)
}
