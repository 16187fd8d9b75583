package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/server"
	"amjs/internal/sim"
	"amjs/internal/workload"
)

// The daemon-replay load: one connection POSTs the month trace in trace
// order, open loop, at offeredRate jobs/s in arrays of batchItems; a
// second connection reads at --read-rate (defaultReadRate), one
// GET /v1/queue in every queueEvery reads and GET /v1/jobs/{id} of
// admitted IDs otherwise. The offered rate is about a quarter of the
// seed's closed-loop capacity, so the daemon keeps up and latency
// measures service, not backlog. No client in the repository reads at a
// known rate, so the read rate is a choice; baseline.json records how
// the end-to-end metrics move across read rates from 0 to 2,000/s.
const (
	offeredRate     = 1000.0
	batchItems      = 4
	defaultReadRate = 500.0
	queueEvery      = 10

	// daemonVariants is how many perturbed copies of the month one run
	// replays; every iteration replays each of them closed loop.
	daemonVariants = 2
)

// daemonConfig is amjsd's default configuration in batch mode: Intrepid,
// EASY backfilling, 10 s scheduling period, lean metrics, infinite
// speedup (the client's submit times drive the clock).
func daemonConfig() server.Config {
	return server.Config{
		Machine:        machine.NewIntrepid(),
		Scheduler:      sched.NewEASY(),
		CheckInterval:  sim.DefaultCheckInterval,
		SchedulePeriod: 10,
		Speedup:        math.Inf(1),
		Lean:           true,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// daemon is one booted in-process daemon on a loopback listener.
type daemon struct {
	d    *server.Daemon
	srv  *http.Server
	url  string
	done chan struct{}
}

// bootDaemon starts a daemon; with a full recorder its scheduler,
// machine and HTTP handler are decorated.
func bootDaemon(rec *recorder) (*daemon, error) {
	cfg := daemonConfig()
	if rec != nil {
		var err error
		if cfg.Scheduler, err = rec.wrapScheduler(cfg.Scheduler, kindTemplate); err != nil {
			return nil, err
		}
		if cfg.Machine, err = rec.wrapMachine(cfg.Machine, kindTemplate); err != nil {
			return nil, err
		}
	}
	d, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("boot daemon: %w", err)
	}
	api := server.NewAPI(d)
	api.SetRequestLogging(false)
	var h http.Handler = api
	if rec != nil {
		h = &probeHandler{inner: api, rec: rec}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, fmt.Errorf("boot daemon: %w", err)
	}
	dm := &daemon{d: d, srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(dm.done)
		dm.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return dm, nil
}

// close stops the HTTP server, waits for it, and closes the daemon.
func (dm *daemon) close() error {
	err := dm.srv.Close()
	<-dm.done
	if cerr := dm.d.Close(); err == nil {
		err = cerr
	}
	return err
}

// newClient is a client that holds at most one connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// do sends one request and returns the status and body.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// encodeBatches renders the trace as POST /v1/jobs arrays of batchItems.
func encodeBatches(jobs []*job.Job) ([][]byte, error) {
	var out [][]byte
	for i := 0; i < len(jobs); i += batchItems {
		end := min(i+batchItems, len(jobs))
		reqs := make([]server.SubmitRequest, 0, end-i)
		for _, j := range jobs[i:end] {
			submit := int64(j.Submit)
			reqs = append(reqs, server.SubmitRequest{
				User:        j.User,
				Nodes:       j.Nodes,
				WalltimeSec: int64(j.Walltime),
				RuntimeSec:  int64(j.Runtime),
				SubmitSec:   &submit,
			})
		}
		b, err := json.Marshal(reqs)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// replay is what one replay against a fresh daemon measured.
type replay struct {
	wall      time.Duration // first POST to drained
	postLat   []int64       // from due, ns, in POST order
	postRTT   []int64       // from send, ns, in POST order
	readLat   []int64       // from due, ns
	lateMax   time.Duration // how late the generator sent, worst case
	requests  int
	allocMB   float64
	flushes   float64
	batchMean float64
	rec       *recorder
}

// postBatch sends one batch and checks that every item was accepted.
func postBatch(c *http.Client, url string, body []byte, want int) error {
	code, b, err := do(c, http.MethodPost, url+"/v1/jobs?count=1", body)
	if err != nil {
		return err
	}
	var r struct{ Accepted, Failed int }
	if code != http.StatusOK || json.Unmarshal(b, &r) != nil || r.Accepted != want || r.Failed != 0 {
		return fmt.Errorf("POST /v1/jobs: status %d, body %s", code, bytes.TrimSpace(b))
	}
	return nil
}

// runReplay boots a daemon, submits every batch (open loop at
// offeredRate with a concurrent reader when open, back to back
// otherwise), drains it and checks every job's start and end against
// the reference schedule.
func runReplay(bodies [][]byte, ref []*job.Job, open bool, rec *recorder, opt options, rep *report) (replay, error) {
	dm, err := bootDaemon(rec)
	if err != nil {
		return replay{}, err
	}
	defer dm.close()
	wc, rc := newClient(), newClient()
	defer wc.CloseIdleConnections()
	defer rc.CloseIdleConnections()

	var out replay
	out.rec = rec
	var admitted atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readErr error
	if open {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.readLat, readErr = readLoop(rc, dm.url, &admitted, stop, opt)
		}()
	}

	runtime.GC()
	a0 := heapAllocBytes()
	start := time.Now()
	interval := float64(time.Second) * batchItems / offeredRate
	var postErr error
	for i, b := range bodies {
		due := start
		if open {
			due = start.Add(time.Duration(float64(i) * interval))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			out.lateMax = max(out.lateMax, time.Since(due))
		}
		sent := time.Now()
		n := batchItems
		if i == len(bodies)-1 {
			n = len(ref) - i*batchItems
		}
		if err := postBatch(wc, dm.url, b, n); err != nil {
			postErr = fmt.Errorf("batch %d: %w", i, err)
			break
		}
		now := time.Now()
		if open {
			out.postLat = append(out.postLat, int64(now.Sub(due)))
		}
		out.postRTT = append(out.postRTT, int64(now.Sub(sent)))
		admitted.Store(int64(i*batchItems + n))
	}
	close(stop)
	wg.Wait()
	if postErr == nil {
		code, b, err := do(wc, http.MethodPost, dm.url+"/v1/drain", nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("POST /v1/drain: status %d, body %s", code, bytes.TrimSpace(b))
		}
		postErr = err
	}
	out.wall = time.Since(start)
	out.allocMB = float64(heapAllocBytes()-a0) / (1 << 20)
	out.requests = len(out.postLat) + len(out.readLat)
	rep.check(postErr == nil, "daemon-replay: submit: %v", postErr)
	rep.check(readErr == nil, "daemon-replay: read: %v", readErr)
	if postErr != nil {
		return out, nil
	}
	if rec != nil {
		if out.flushes, out.batchMean, err = scrapeIngest(wc, dm.url); err != nil {
			return out, err
		}
	}
	return out, verifyStarts(wc, dm.url, ref, rep)
}

// readLoop reads at opt.readRate until stop closes, timing each read
// from when it was due. A rate of 0 sends no reads.
func readLoop(c *http.Client, url string, admitted *atomic.Int64, stop <-chan struct{}, opt options) ([]int64, error) {
	var lat []int64
	if opt.readRate <= 0 {
		<-stop
		return lat, nil
	}
	r := rand.New(rand.NewPCG(uint64(opt.seed), 7))
	start := time.Now()
	interval := float64(time.Second) / opt.readRate
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			select {
			case <-stop:
				return lat, nil
			case <-time.After(d):
			}
		}
		select {
		case <-stop:
			return lat, nil
		default:
		}
		n := admitted.Load()
		path := "/v1/queue"
		if i%queueEvery != queueEvery-1 {
			if n == 0 {
				continue
			}
			path = "/v1/jobs/" + strconv.FormatInt(1+r.Int64N(n), 10)
		}
		code, b, err := do(c, http.MethodGet, url+path, nil)
		if err != nil {
			return lat, err
		}
		if code != http.StatusOK {
			return lat, fmt.Errorf("GET %s: status %d, body %s", path, code, bytes.TrimSpace(b))
		}
		lat = append(lat, int64(time.Since(due)))
	}
}

// verifyStarts reads every job back and compares its start and end with
// the reference schedule, whose jobs carry the daemon's IDs 1..n.
func verifyStarts(c *http.Client, url string, ref []*job.Job, rep *report) error {
	bad := 0
	for _, want := range ref {
		code, b, err := do(c, http.MethodGet, url+"/v1/jobs/"+strconv.Itoa(want.ID), nil)
		if err != nil {
			return fmt.Errorf("read back job %d: %w", want.ID, err)
		}
		var st server.JobStatus
		ok := code == http.StatusOK && json.Unmarshal(b, &st) == nil &&
			st.StartSec != nil && st.EndSec != nil &&
			*st.StartSec == int64(want.Start) && *st.EndSec == int64(want.End)
		if !ok {
			if bad < 3 {
				rep.problems = append(rep.problems, fmt.Sprintf("daemon-replay: job %d: status %d %s, want start %d end %d",
					want.ID, code, bytes.TrimSpace(b), want.Start, want.End))
			}
			bad++
		}
	}
	rep.attempted++
	if bad > 0 {
		rep.failed++
		rep.problems = append(rep.problems, fmt.Sprintf("daemon-replay: %d of %d jobs differ from sim.Run", bad, len(ref)))
	}
	return nil
}

// scrapeIngest reads the ingest-lane counters from GET /metrics: flushes
// and the mean flush batch size.
func scrapeIngest(c *http.Client, url string) (flushes, mean float64, err error) {
	code, b, err := do(c, http.MethodGet, url+"/metrics", nil)
	if err != nil || code != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /metrics: status %d: %v", code, err)
	}
	vals := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && strings.HasPrefix(f[0], "amjsd_ingest_") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				vals[f[0]] = v
			}
		}
	}
	flushes, ok := vals["amjsd_ingest_flushes_total"]
	if !ok {
		return 0, 0, errors.New("GET /metrics: no amjsd_ingest_flushes_total")
	}
	if n := vals["amjsd_ingest_batch_jobs_count"]; n > 0 {
		mean = vals["amjsd_ingest_batch_jobs_sum"] / n
	}
	return flushes, mean, nil
}

// referenceRun is the schedule the daemon must reproduce: sim.Run on
// the same trace and configuration.
func referenceRun(cfg server.Config, jobs []*job.Job) ([]*job.Job, error) {
	res, err := sim.Run(sim.Config{
		Machine: cfg.Machine, Scheduler: cfg.Scheduler,
		CheckInterval: cfg.CheckInterval, SchedulePeriod: cfg.SchedulePeriod,
	}, jobs)
	if err != nil {
		return nil, fmt.Errorf("daemon-replay: reference run: %w", err)
	}
	return res.Jobs, nil
}

// runDaemon measures the daemon-replay workload.
func runDaemon(opt options, rep *report) error {
	var inputs [][]*job.Job
	var setups, generate []float64
	for t := time.Now(); len(setups) < setupReps || time.Since(t) < setupTime; {
		runtime.GC()
		t0 := time.Now()
		in, gen, err := makeInputs(workload.Intrepid, opt.seed, daemonVariants)
		if err != nil {
			return err
		}
		dm, err := bootDaemon(nil)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		generate = append(generate, gen.Seconds())
		if err := dm.close(); err != nil {
			return fmt.Errorf("close daemon: %w", err)
		}
		inputs = in
	}
	type copyState struct {
		bodies [][]byte
		ref    []*job.Job
		peaks  []float64 // closed-loop replay walls, s
		post   []float64 // open-loop POST latencies, ms
		allocs []float64 // MB per closed-loop replay
	}
	cs := make([]copyState, len(inputs))
	var digests []string
	for k, jobs := range inputs {
		bodies, err := encodeBatches(jobs)
		if err != nil {
			return err
		}
		ref, err := referenceRun(daemonConfig(), jobs)
		if err != nil {
			return err
		}
		rep.check(len(ref) == len(jobs), "daemon-replay: copy %d: reference accepted %d of %d jobs", k, len(ref), len(jobs))
		cs[k] = copyState{bodies: bodies, ref: ref}
		digests = append(digests, digestJobs(ref))
	}
	if err := checkRecorded(rep, baselinePath, "daemon-replay", opt.seed, combineDigests(digests)); err != nil {
		return err
	}

	// Each iteration replays every copy closed loop, each on a fresh
	// daemon; the first len(cs) iterations also replay one copy open
	// loop, so every copy gets exactly one. The open loop's length is
	// set by its pacing (~4.6 s), so the closed loops, whose length is
	// the program's, get the rest of the time. Traced runs repeat both
	// on decorated daemons.
	var post, overhead []float64
	layers := make(map[string][]float64)
	var lastTraced *recorder
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for i := 0; i < len(cs) || time.Now().Before(deadline); i++ {
		c := &cs[i%len(cs)]
		for k := range cs {
			p, err := runReplay(cs[k].bodies, cs[k].ref, false, nil, opt, rep)
			if err != nil {
				return err
			}
			cs[k].peaks = append(cs[k].peaks, p.wall.Seconds())
			cs[k].allocs = append(cs[k].allocs, p.allocMB)
		}
		if i < len(cs) {
			o, err := runReplay(c.bodies, c.ref, true, nil, opt, rep)
			if err != nil {
				return err
			}
			post = append(post, nsToMS(o.postLat)...)
			c.post = append(c.post, nsToMS(o.postLat)...)
		}
		if !opt.trace {
			continue
		}
		t, err := runReplay(c.bodies, c.ref, true, newRecorder(true), opt, rep)
		if err != nil {
			return err
		}
		tp, err := runReplay(c.bodies, c.ref, false, newRecorder(true), opt, rep)
		if err != nil {
			return err
		}
		for name, x := range daemonLayers(t, tp, len(c.ref)) {
			layers[name] = append(layers[name], x)
		}
		lastTraced = t.rec
		plain := cs[i%len(cs)].peaks
		overhead = append(overhead, (tp.wall.Seconds()/plain[len(plain)-1]-1)*100)
	}
	rss := maxRSSMB()

	if opt.trace {
		rep.values["workload.generate_s"] = median(generate)
		for name, xs := range layers {
			rep.values[name] = median(xs)
		}
		rep.values["trace_overhead_pct"] = median(overhead)
		rep.values["latency.p99_ms"] = quantile(post, 0.99)
		return writeSpans("daemon-replay", opt.seed, lastTraced)
	}
	// Every copy weighs the same: throughput and allocation from each
	// copy's median closed-loop replay, which has no reader, so the read
	// rate does not set them; latency as the mean over copies of the p50
	// of each copy's open-loop replay.
	var njobs, wall, lat, alloc float64
	for _, c := range cs {
		njobs += float64(len(c.ref))
		wall += median(c.peaks)
		lat += quantile(c.post, 0.50)
		alloc += median(c.allocs)
	}
	n := float64(len(cs))
	rep.values["setup_s"] = median(setups)
	rep.values["jobs_s"] = njobs / wall
	rep.values["latency_p50_ms"] = lat / n
	rep.values["alloc_mb"] = alloc / n
	rep.values["max_rss_mb"] = rss
	return nil
}

// daemonLayers derives the per-layer metrics of one traced open-loop
// replay o and one traced closed-loop replay c of the same copy. The
// open loop's wall time is set by the load's pacing, so the sim layer's
// wall and self time come from the closed loop, whose wall time is the
// program's; everything else comes from the open loop.
func daemonLayers(o, c replay, njobs int) map[string]float64 {
	r := o.rec
	tot := r.totals()
	m := &tot[kindMain]
	v := map[string]float64{
		"sim.wall_s":              c.wall.Seconds(),
		"sim.self_s":              c.wall.Seconds() - float64(c.rec.schedNS)/1e9,
		"sim.passes":              float64(m.passes),
		"sim.passes_per_job":      ratio(m.passes, int64(njobs)),
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
		"server.flushes":          o.flushes,
		"server.batch_items.mean": o.batchMean,
		"loadgen.requests":        float64(o.requests),
		"loadgen.late_ms.max":     float64(o.lateMax) / 1e6,
		"loadgen.read_p50_ms":     quantile(nsToMS(o.readLat), 0.50),
		"loadgen.read_p99_ms":     quantile(nsToMS(o.readLat), 0.99),
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

	// Handler spans: POSTs in client order (one writer connection), and
	// the engine passes that ran inside each.
	var posts, gets []span
	var passes []span
	for _, s := range r.spans {
		switch s.name {
		case "server.post":
			posts = append(posts, s)
		case "server.get_job", "server.get_queue":
			gets = append(gets, s)
		case "sched.pass":
			passes = append(passes, s)
		}
	}
	sort.Slice(posts, func(i, j int) bool { return posts[i].start < posts[j].start })
	var postMS, getMS, transport []float64
	var postNS, inPostNS int64
	for i, s := range posts {
		d := s.end - s.start
		postNS += d
		postMS = append(postMS, float64(d)/1e6)
		if i < len(o.postRTT) {
			transport = append(transport, float64(o.postRTT[i]-d)/1e6)
		}
	}
	for _, p := range passes {
		i := sort.Search(len(posts), func(i int) bool { return posts[i].start > p.start }) - 1
		if i >= 0 && p.end <= posts[i].end {
			inPostNS += p.end - p.start
		}
	}
	for _, s := range gets {
		getMS = append(getMS, float64(s.end-s.start)/1e6)
	}
	v["server.post_handler_ms.p50"] = quantile(postMS, 0.50)
	v["server.post_handler_ms.p99"] = quantile(postMS, 0.99)
	v["server.get_handler_ms.p50"] = quantile(getMS, 0.50)
	v["server.get_handler_ms.p99"] = quantile(getMS, 0.99)
	v["server.ingest_self_s"] = float64(postNS-inPostNS) / 1e9
	v["http.transport_ms.p50"] = quantile(transport, 0.50)
	return v
}
