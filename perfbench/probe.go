package main

// Counting and timing decorators around the values the program accepts
// through its public interfaces: sched.Scheduler, machine.Machine,
// machine.Plan and http.Handler. The engine discovers optional
// capabilities by type assertion, so every decorator implements exactly
// the capability set of the value it wraps; wrapping a value with an
// unknown set is an error rather than a silent change of engine path.
// The engine's Env is never wrapped: the what-if planner needs the
// engine's sched.Lookaheader.

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"amjs/internal/invariant"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/units"
	"amjs/internal/whatif"
)

// World kinds: which simulation a wrapped value belongs to.
const (
	kindTemplate = iota // the value handed to sim.Run or server.New
	kindMain            // the engine's own clone of it
	kindOracle          // fairness-oracle worlds forked outside Checkpoint
	kindWhatIf          // what-if rollout worlds forked inside Checkpoint
	numKinds
)

// probeEvery is the sampling period of plan-probe timing: one probe in
// probeEvery is timed, because a clock read costs about as much as a
// probe.
const probeEvery = 64

// counters is one world's tally. A block is written by one goroutine at
// a time: the main engine's, the daemon's (under its mutex), or one
// what-if rollout slot's.
type counters struct {
	kind int

	passes, actingPasses, queueSum int64
	passNS                         int64
	schedClones, worldsRun         int64
	checkpoints, retunes           int64
	checkpointNS                   int64

	plans, earliest, startable, commits, saveRestore int64
	machineClones, planClones, starts                int64
	probeCalls, probeSampled, probeSampledNS         int64
}

func (c *counters) add(o *counters) {
	c.passes += o.passes
	c.actingPasses += o.actingPasses
	c.queueSum += o.queueSum
	c.passNS += o.passNS
	c.schedClones += o.schedClones
	c.worldsRun += o.worldsRun
	c.checkpoints += o.checkpoints
	c.retunes += o.retunes
	c.checkpointNS += o.checkpointNS
	c.plans += o.plans
	c.earliest += o.earliest
	c.startable += o.startable
	c.commits += o.commits
	c.saveRestore += o.saveRestore
	c.machineClones += o.machineClones
	c.planClones += o.planClones
	c.starts += o.starts
	c.probeCalls += o.probeCalls
	c.probeSampled += o.probeSampled
	c.probeSampledNS += o.probeSampledNS
}

// probeNS estimates the wall time spent in plan probes from the sampled
// ones.
func (c *counters) probeNS() float64 {
	if c.probeSampled == 0 {
		return 0
	}
	return float64(c.probeSampledNS) * float64(c.probeCalls) / float64(c.probeSampled)
}

// span is one timed interval. Scheduler spans are recorded on the
// engine's goroutine, or under the daemon's mutex, so they never
// overlap; a span's parent is the span whose interval holds it.
type span struct {
	name       string
	start, end int64 // ns since the recorder's epoch
}

// recorder owns the counters and spans of one measured run. A nil
// *recorder is never handed out: light mode still has one, with full
// unset.
type recorder struct {
	// full turns on every decorator. Without it the main world's
	// Schedule calls only mark simulated-day boundaries (dayNS), and
	// clones of the main scheduler are returned unwrapped.
	full  bool
	epoch time.Time

	// passNS holds the main world's Schedule durations in call order
	// (full mode).
	passNS []int64

	// dayNS holds the host time between the first main-world passes of
	// consecutive simulated days (light mode): the cost of simulating
	// one day of the machine, everything the engine does in it included.
	dayNS    []int64
	day      int64
	dayStart time.Time

	mu     sync.Mutex
	blocks []*counters
	spans  []span

	// Engine-goroutine state. schedNS is the time inside wrapped
	// scheduler calls, which never nest: the oracle runs between
	// main-world calls, and rollouts run the planner's own undecorated
	// clones. inCheckpoint marks a main-world Checkpoint in progress;
	// rollout goroutines read it only between its set and reset.
	main         *counters
	oracle       *counters
	schedNS      int64
	inCheckpoint bool
}

func newRecorder(full bool) *recorder {
	r := &recorder{full: full, epoch: time.Now()}
	r.main = r.block(kindMain)
	r.oracle = r.block(kindOracle)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// block registers a fresh counter block of the given kind.
func (r *recorder) block(kind int) *counters {
	c := &counters{kind: kind}
	r.mu.Lock()
	r.blocks = append(r.blocks, c)
	r.mu.Unlock()
	return c
}

// shared returns the block a scheduler or machine of kind writes to.
// Main and oracle worlds run on one goroutine and share a block per
// kind; each what-if rollout world, and each template, gets its own.
func (r *recorder) shared(kind int) *counters {
	switch kind {
	case kindMain:
		return r.main
	case kindOracle:
		return r.oracle
	}
	return r.block(kind)
}

// childKind is the kind of a clone made from a value of kind k.
func (r *recorder) childKind(k int) int {
	switch k {
	case kindTemplate:
		return kindMain
	case kindMain:
		if r.inCheckpoint {
			return kindWhatIf
		}
		return kindOracle
	}
	return k
}

// addSpan appends a closed span.
func (r *recorder) addSpan(name string, start, end int64) {
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, start: start, end: end})
	r.mu.Unlock()
}

// totals sums the counter blocks by kind.
func (r *recorder) totals() [numKinds]counters {
	var out [numKinds]counters
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range r.blocks {
		out[b.kind].add(b)
	}
	return out
}

// Scheduler decorators. The wrapped scheduler types form a chain of
// capability sets — sched.Reserving ⊂ core.MetricAware ⊂ core.Tuner —
// so one decorator type per set, each embedding the previous, covers
// them all.

type scratchAdopter interface{ AdoptScratch(sched.Scheduler) }
type tunabled interface{ Tunables() (float64, int) }

// schedCaps lists every optional scheduler capability the engine or the
// invariant checker looks for.
var schedCaps = []struct {
	name string
	has  func(sched.Scheduler) bool
}{
	{"sched.Adaptive", func(s sched.Scheduler) bool { _, ok := s.(sched.Adaptive); return ok }},
	{"sched.PassBounder", func(s sched.Scheduler) bool { _, ok := s.(sched.PassBounder); return ok }},
	{"sched.PassMutator", func(s sched.Scheduler) bool { _, ok := s.(sched.PassMutator); return ok }},
	{"sched.PassQuiescer", func(s sched.Scheduler) bool { _, ok := s.(sched.PassQuiescer); return ok }},
	{"sched.Evictor", func(s sched.Scheduler) bool { _, ok := s.(sched.Evictor); return ok }},
	{"AdoptScratch", func(s sched.Scheduler) bool { _, ok := s.(scratchAdopter); return ok }},
	{"Tunables", func(s sched.Scheduler) bool { _, ok := s.(tunabled); return ok }},
	{"whatif.Reporter", func(s sched.Scheduler) bool { _, ok := s.(whatif.Reporter); return ok }},
	{"invariant.RuleSource", func(s sched.Scheduler) bool { _, ok := s.(invariant.RuleSource); return ok }},
	{"invariant.ReservationHolder", func(s sched.Scheduler) bool { _, ok := s.(invariant.ReservationHolder); return ok }},
}

// capMask is the set of schedCaps s implements, one bit per entry.
func capMask(s sched.Scheduler) uint {
	var m uint
	for i, c := range schedCaps {
		if c.has(s) {
			m |= 1 << i
		}
	}
	return m
}

var (
	maskMutator = capMask(&mutatorSched{})
	maskMetric  = capMask(&metricSched{})
	maskTuner   = capMask(&tunerSched{})
)

// wrapScheduler decorates s as a scheduler of the given kind.
func (r *recorder) wrapScheduler(s sched.Scheduler, kind int) (sched.Scheduler, error) {
	base := &probeSched{inner: s, rec: r, kind: kind, ctr: r.shared(kind)}
	switch capMask(s) {
	case maskMutator:
		return &mutatorSched{base}, nil
	case maskMetric:
		return &metricSched{mutatorSched{base}}, nil
	case maskTuner:
		return &tunerSched{metricSched{mutatorSched{base}}}, nil
	}
	return nil, fmt.Errorf("perfbench: scheduler %s has a capability set no decorator covers", s.Name())
}

func (r *recorder) mustWrapScheduler(s sched.Scheduler, kind int) sched.Scheduler {
	w, err := r.wrapScheduler(s, kind)
	if err != nil {
		panic(err) // the same inner type wrapped before; its set cannot change
	}
	return w
}

// probeSched times and counts Schedule calls.
type probeSched struct {
	inner sched.Scheduler
	rec   *recorder
	kind  int
	ctr   *counters
	ran   bool
}

// unwrapSched returns the scheduler a decorator wraps, or s itself.
func unwrapSched(s sched.Scheduler) sched.Scheduler {
	switch w := s.(type) {
	case *mutatorSched:
		return w.inner
	case *metricSched:
		return w.inner
	case *tunerSched:
		return w.inner
	}
	return s
}

func (s *probeSched) Name() string { return s.inner.Name() }

func (s *probeSched) Clone() sched.Scheduler {
	r := s.rec
	kind := r.childKind(s.kind)
	c := s.inner.Clone()
	if !r.full && kind != kindMain {
		return c
	}
	if kind == kindOracle {
		r.oracle.schedClones++
	}
	return r.mustWrapScheduler(c, kind)
}

func (s *probeSched) Schedule(env sched.Env) {
	r := s.rec
	if !r.full {
		if d := int64(env.Now()) / int64(units.Day); d != r.day || r.dayStart.IsZero() {
			now := time.Now()
			if !r.dayStart.IsZero() {
				r.dayNS = append(r.dayNS, int64(now.Sub(r.dayStart)))
			}
			r.day, r.dayStart = d, now
		}
		s.inner.Schedule(env)
		return
	}
	q := len(env.Queue())
	t0 := r.now()
	s.inner.Schedule(env)
	t1 := r.now()
	d := t1 - t0
	r.schedNS += d
	c := s.ctr
	c.passes++
	c.passNS += d
	c.queueSum += int64(q)
	if len(env.Queue()) < q {
		c.actingPasses++
	}
	name := "oracle.pass"
	if s.kind == kindMain {
		name = "sched.pass"
		r.passNS = append(r.passNS, d)
	} else if !s.ran {
		s.ran = true
		c.worldsRun++
	}
	r.addSpan(name, t0, t1)
}

type mutatorSched struct{ *probeSched }

func (s *mutatorSched) LastPassMutatedState() bool {
	return s.inner.(sched.PassMutator).LastPassMutatedState()
}

type metricSched struct{ mutatorSched }

func (s *metricSched) LastPassHorizon() (units.Time, bool) {
	return s.inner.(sched.PassBounder).LastPassHorizon()
}

func (s *metricSched) LastPassQuiescent() bool {
	return s.inner.(sched.PassQuiescer).LastPassQuiescent()
}

func (s *metricSched) JobRemoved(id int) { s.inner.(sched.Evictor).JobRemoved(id) }

// AdoptScratch unwraps the donor: the inner scheduler only adopts from
// its own concrete type.
func (s *metricSched) AdoptScratch(from sched.Scheduler) {
	s.inner.(scratchAdopter).AdoptScratch(unwrapSched(from))
}

func (s *metricSched) Tunables() (float64, int) { return s.inner.(tunabled).Tunables() }

func (s *metricSched) ProtectedReservation() (int, units.Time, bool) {
	return s.inner.(invariant.ReservationHolder).ProtectedReservation()
}

type tunerSched struct{ metricSched }

func (s *tunerSched) Checkpoint(env sched.Env, m sched.MetricsView) {
	r := s.rec
	ad := s.inner.(sched.Adaptive)
	if !r.full {
		ad.Checkpoint(env, m)
		return
	}
	bf, w := s.Tunables()
	main := s.kind == kindMain
	if main {
		r.inCheckpoint = true
	}
	t0 := r.now()
	ad.Checkpoint(env, m)
	t1 := r.now()
	r.addSpan("tuner.checkpoint", t0, t1)
	r.schedNS += t1 - t0
	if main {
		r.inCheckpoint = false
	}
	c := s.ctr
	c.checkpoints++
	c.checkpointNS += t1 - t0
	if bf2, w2 := s.Tunables(); bf2 != bf || w2 != w {
		c.retunes++
	}
}

func (s *tunerSched) TuningRules() ([]invariant.TuningRule, bool) {
	return s.inner.(invariant.RuleSource).TuningRules()
}

func (s *tunerSched) WhatIfStatus() (whatif.Status, bool) {
	return s.inner.(whatif.Reporter).WhatIfStatus()
}

// Machine and plan decorators. Only machine.Partition is wrapped: it
// implements InPlaceCloner, PlanRecycler and Footprinter, and its plans
// implement PlanCloner. Values handed back to the inner machine or plan
// (a CloneInto destination, a recycled plan) are unwrapped first,
// because the inner types accept only their own concrete type.

type fullMachine interface {
	machine.Machine
	machine.InPlaceCloner
	machine.PlanRecycler
	machine.Footprinter
}

type fullPlan interface {
	machine.Plan
	machine.PlanCloner
}

// wrapMachine decorates m as a machine of the given kind.
func (r *recorder) wrapMachine(m machine.Machine, kind int) (machine.Machine, error) {
	fm, ok := m.(fullMachine)
	if !ok {
		return nil, fmt.Errorf("perfbench: machine %s lacks a capability the decorator forwards", m.Name())
	}
	return &probeMachine{inner: fm, rec: r, kind: kind, ctr: r.shared(kind)}, nil
}

type probeMachine struct {
	inner fullMachine
	rec   *recorder
	kind  int
	ctr   *counters
	free  []*probePlan // recycled plan decorators, reused by Plan
}

func (m *probeMachine) Name() string              { return m.inner.Name() }
func (m *probeMachine) TotalNodes() int           { return m.inner.TotalNodes() }
func (m *probeMachine) IdleNodes() int            { return m.inner.IdleNodes() }
func (m *probeMachine) BusyNodes() int            { return m.inner.BusyNodes() }
func (m *probeMachine) UsedNodes() int            { return m.inner.UsedNodes() }
func (m *probeMachine) RunningCount() int         { return m.inner.RunningCount() }
func (m *probeMachine) CanFitEver(nodes int) bool { return m.inner.CanFitEver(nodes) }
func (m *probeMachine) CanStartNow(nodes int) bool {
	return m.inner.CanStartNow(nodes)
}

func (m *probeMachine) TryStart(jobID, nodes int, now units.Time, walltime units.Duration) (machine.Alloc, bool) {
	m.ctr.starts++
	return m.inner.TryStart(jobID, nodes, now, walltime)
}

func (m *probeMachine) TryStartAt(jobID, nodes int, now units.Time, walltime units.Duration, hint int) (machine.Alloc, bool) {
	m.ctr.starts++
	return m.inner.TryStartAt(jobID, nodes, now, walltime, hint)
}

func (m *probeMachine) Release(a machine.Alloc, now units.Time) { m.inner.Release(a, now) }

func (m *probeMachine) AllocUnits(a machine.Alloc) ([]int, int, bool) {
	return m.inner.AllocUnits(a)
}

func (m *probeMachine) Plan(now units.Time) machine.Plan {
	m.ctr.plans++
	inner := m.inner.Plan(now).(fullPlan)
	if n := len(m.free); n > 0 {
		p := m.free[n-1]
		m.free = m.free[:n-1]
		p.inner = inner
		return p
	}
	return &probePlan{inner: inner, m: m}
}

func (m *probeMachine) Recycle(pl machine.Plan) {
	p, ok := pl.(*probePlan)
	if !ok {
		m.inner.Recycle(pl)
		return
	}
	m.inner.Recycle(p.inner)
	if p.m == m {
		m.free = append(m.free, p)
	}
}

// newClone wraps a fresh inner clone as a world of the child kind and
// counts the fork on the new world's block.
func (m *probeMachine) newClone(inner machine.Machine) machine.Machine {
	kind := m.rec.childKind(m.kind)
	c := &probeMachine{inner: inner.(fullMachine), rec: m.rec, kind: kind, ctr: m.rec.shared(kind)}
	c.ctr.machineClones++
	return c
}

func (m *probeMachine) Clone() machine.Machine { return m.newClone(m.inner.Clone()) }

func (m *probeMachine) CloneInto(dst machine.Machine) machine.Machine {
	d, ok := dst.(*probeMachine)
	if !ok || d.kind != m.rec.childKind(m.kind) {
		return m.newClone(m.inner.CloneInto(dst))
	}
	d.inner = m.inner.CloneInto(d.inner).(fullMachine)
	d.ctr.machineClones++
	return d
}

type probePlan struct {
	inner fullPlan
	m     *probeMachine
}

func (p *probePlan) Now() units.Time { return p.inner.Now() }

func (p *probePlan) EarliestStart(nodes int, walltime units.Duration) (units.Time, int) {
	c := p.m.ctr
	c.earliest++
	c.probeCalls++
	if c.probeCalls%probeEvery != 0 {
		return p.inner.EarliestStart(nodes, walltime)
	}
	t0 := time.Now()
	t, h := p.inner.EarliestStart(nodes, walltime)
	c.probeSampledNS += int64(time.Since(t0))
	c.probeSampled++
	return t, h
}

func (p *probePlan) StartableNow(nodes int, walltime units.Duration) (int, bool) {
	c := p.m.ctr
	c.startable++
	c.probeCalls++
	if c.probeCalls%probeEvery != 0 {
		return p.inner.StartableNow(nodes, walltime)
	}
	t0 := time.Now()
	h, ok := p.inner.StartableNow(nodes, walltime)
	c.probeSampledNS += int64(time.Since(t0))
	c.probeSampled++
	return h, ok
}

func (p *probePlan) Commit(nodes int, start units.Time, walltime units.Duration, hint int) {
	p.m.ctr.commits++
	p.inner.Commit(nodes, start, walltime, hint)
}

func (p *probePlan) Save() machine.PlanMark {
	p.m.ctr.saveRestore++
	return p.inner.Save()
}

func (p *probePlan) Restore(mark machine.PlanMark) {
	p.m.ctr.saveRestore++
	p.inner.Restore(mark)
}

func (p *probePlan) Clone() machine.Plan {
	p.m.ctr.planClones++
	return &probePlan{inner: p.inner.Clone().(fullPlan), m: p.m}
}

func (p *probePlan) CloneInto(dst machine.Plan) machine.Plan {
	p.m.ctr.planClones++
	d, ok := dst.(*probePlan)
	if !ok {
		return &probePlan{inner: p.inner.CloneInto(dst).(fullPlan), m: p.m}
	}
	d.inner = p.inner.CloneInto(d.inner).(fullPlan)
	d.m = p.m
	return d
}

// probeHandler records one span per HTTP request, named by route.
type probeHandler struct {
	inner http.Handler
	rec   *recorder
}

func (h *probeHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	t0 := h.rec.now()
	h.inner.ServeHTTP(w, req)
	h.rec.addSpan(routeName(req), t0, h.rec.now())
}

// routeName classifies a request by the routes the load generator uses.
func routeName(req *http.Request) string {
	switch {
	case req.Method == http.MethodPost && req.URL.Path == "/v1/jobs":
		return "server.post"
	case req.Method == http.MethodGet && req.URL.Path == "/v1/queue":
		return "server.get_queue"
	case req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/v1/jobs/"):
		return "server.get_job"
	}
	return "server.other"
}
