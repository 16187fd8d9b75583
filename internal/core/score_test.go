package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"amjs/internal/job"
	"amjs/internal/sched"
	"amjs/internal/sched/schedtest"
	"amjs/internal/units"
)

func TestScoreWait(t *testing.T) {
	if got := ScoreWait(50, 100); got != 50 {
		t.Errorf("ScoreWait(50,100) = %v", got)
	}
	if got := ScoreWait(100, 100); got != 100 {
		t.Errorf("oldest job must score 100: %v", got)
	}
	if got := ScoreWait(0, 100); got != 0 {
		t.Errorf("fresh job must score 0: %v", got)
	}
	// Paper's stated edge case: empty-queue arrival (max wait 0).
	if got := ScoreWait(0, 0); got != 0 {
		t.Errorf("ScoreWait(0,0) = %v, want 0", got)
	}
	if got := ScoreWait(-5, 100); got != 0 {
		t.Errorf("negative wait must clamp to 0: %v", got)
	}
}

func TestScoreRuntime(t *testing.T) {
	// Shortest job scores 100, longest scores 0.
	if got := ScoreRuntime(100, 100, 500); got != 100 {
		t.Errorf("shortest = %v, want 100", got)
	}
	if got := ScoreRuntime(500, 100, 500); got != 0 {
		t.Errorf("longest = %v, want 0", got)
	}
	if got := ScoreRuntime(300, 100, 500); got != 50 {
		t.Errorf("middle = %v, want 50", got)
	}
	// Paper's stated edge case: single job in queue.
	if got := ScoreRuntime(300, 300, 300); got != 0 {
		t.Errorf("degenerate = %v, want 0", got)
	}
}

func TestBalancedPriority(t *testing.T) {
	if got := BalancedPriority(80, 20, 1); got != 80 {
		t.Errorf("BF=1 must be pure S_w: %v", got)
	}
	if got := BalancedPriority(80, 20, 0); got != 20 {
		t.Errorf("BF=0 must be pure S_r: %v", got)
	}
	if got := BalancedPriority(80, 20, 0.5); got != 50 {
		t.Errorf("BF=0.5 = %v, want 50", got)
	}
}

func TestScoreBoundsProperty(t *testing.T) {
	f := func(wait, waitMax, wall, wallMin, wallMax uint16, bfRaw uint8) bool {
		lo, hi := units.Duration(wallMin), units.Duration(wallMax)
		if lo > hi {
			lo, hi = hi, lo
		}
		w := units.Duration(wall)
		if w < lo {
			w = lo
		}
		if w > hi {
			w = hi
		}
		wt := units.Duration(wait)
		wm := units.Duration(waitMax)
		if wt > wm {
			wt, wm = wm, wt
		}
		sw := ScoreWait(wt, wm)
		sr := ScoreRuntime(w, lo, hi)
		bf := float64(bfRaw) / 255
		sp := BalancedPriority(sw, sr, bf)
		inRange := func(x float64) bool { return x >= 0 && x <= 100 && !math.IsNaN(x) }
		return inRange(sw) && inRange(sr) && inRange(sp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func ids(jobs []*job.Job) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

func TestPrioritizeBF1IsFCFS(t *testing.T) {
	queue := []*job.Job{
		schedtest.J(3, 200, 10, 50, 25),
		schedtest.J(1, 0, 10, 9000, 4000),
		schedtest.J(2, 100, 10, 100, 80),
	}
	got := ids(Prioritize(1000, queue, 1))
	if !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("BF=1 order %v, want FCFS [1 2 3]", got)
	}
}

func TestPrioritizeBF0IsSJF(t *testing.T) {
	queue := []*job.Job{
		schedtest.J(1, 0, 10, 9000, 4000),
		schedtest.J(2, 100, 10, 100, 80),
		schedtest.J(3, 200, 10, 50, 25),
	}
	got := ids(Prioritize(1000, queue, 0))
	if !reflect.DeepEqual(got, []int{3, 2, 1}) {
		t.Errorf("BF=0 order %v, want SJF [3 2 1]", got)
	}
}

func TestPrioritizeMatchesReferenceOrdersProperty(t *testing.T) {
	// BF=1 must agree with sched.SubmitOrder and BF=0 with
	// sched.ShortestFirst on arbitrary queues.
	f := func(specs []uint32) bool {
		if len(specs) > 40 {
			specs = specs[:40]
		}
		queue := make([]*job.Job, len(specs))
		for i, s := range specs {
			queue[i] = schedtest.J(i+1, units.Time(s%5000), 1+int(s%64),
				units.Duration(60+s%10000), units.Duration(30+s%5000))
		}
		now := units.Time(10000)
		if !reflect.DeepEqual(ids(Prioritize(now, queue, 1)), ids(sched.SubmitOrder(now, queue))) {
			return false
		}
		return reflect.DeepEqual(ids(Prioritize(now, queue, 0)), ids(sched.ShortestFirst(now, queue)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPrioritizeEmpty(t *testing.T) {
	if got := Prioritize(0, nil, 0.5); got != nil {
		t.Errorf("empty queue: %v", got)
	}
}

func TestPrioritizeDoesNotMutateInput(t *testing.T) {
	queue := []*job.Job{
		schedtest.J(1, 0, 10, 9000, 4000),
		schedtest.J(2, 100, 10, 100, 80),
	}
	Prioritize(1000, queue, 0)
	if queue[0].ID != 1 || queue[1].ID != 2 {
		t.Error("Prioritize mutated its input")
	}
}

// TestSeededPrioritizeMatchesFromScratch drives one scratch through
// random multi-pass queue histories and requires every seeded pass to
// return exactly what a cold Prioritize returns on the same queue. The
// histories cover tail arrivals, departures from anywhere, drifting
// clocks and BF retunes, degenerate score bands, exact score ties
// broken by submit then ID, scratch adopted from an unrelated queue,
// and queues that break the append-only shape.
func TestSeededPrioritizeMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nextID := 0
	// IDs are drawn out of arrival order so that the ID tie-break is
	// not the arrival order in disguise.
	newJob := func(submit units.Time, walls []units.Duration) *job.Job {
		nextID++
		id := nextID*7919%100003 + 1
		wall := walls[rng.Intn(len(walls))]
		return schedtest.J(id, submit, 1+rng.Intn(64), wall, wall/2)
	}
	check := func(p *prioScratch, now units.Time, queue []*job.Job, bf float64, pass int) {
		t.Helper()
		seeded := p.prioritize(now, queue, bf)
		if got, want := ids(seeded), ids(Prioritize(now, queue, bf)); !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d (now=%d, bf=%g, %d queued): seeded %v, cold %v", pass, now, bf, len(queue), got, want)
		}
		if err := verifyPriorityOrder(now, queue, bf, seeded); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		var cold prioScratch
		cold.prioritize(now, queue, bf)
		if len(queue) > 0 && p.aggHorizon != cold.aggHorizon {
			t.Fatalf("pass %d: aggHorizon %d, cold %d", pass, p.aggHorizon, cold.aggHorizon)
		}
	}
	wideWalls := []units.Duration{600, 1800, 3600, 3600, 7200, 43200}
	flatWalls := []units.Duration{3600}

	for trial := 0; trial < 40; trial++ {
		var p, other prioScratch
		walls := wideWalls
		if trial%5 == 4 {
			walls = flatWalls // wallMax == wallMin on every pass
		}
		now := units.Time(rng.Intn(1000))
		var queue []*job.Job
		bf := 0.5
		for pass := 0; pass < 60; pass++ {
			// Departures (starts and cancels) from anywhere.
			kept := queue[:0]
			for _, j := range queue {
				if rng.Intn(5) != 0 {
					kept = append(kept, j)
				}
			}
			queue = kept
			// Arrivals at the tail, often several at one instant so
			// that waits and then submit times tie.
			for n := rng.Intn(6); n > 0; n-- {
				queue = append(queue, newJob(now, walls))
			}
			switch r := rng.Intn(20); {
			case r == 0: // retune BF
				bf = []float64{0, 0.25, 0.5, 0.75, 1, rng.Float64()}[rng.Intn(6)]
			case r == 1: // reorder: breaks the arrival-order shape
				rng.Shuffle(len(queue), func(a, b int) { queue[a], queue[b] = queue[b], queue[a] })
			case r == 2: // replace: an unrelated queue of fresh jobs
				queue = nil
				for n := 1 + rng.Intn(10); n > 0; n-- {
					queue = append(queue, newJob(now, walls))
				}
			case r == 3: // insert an arrival mid-queue
				if len(queue) > 0 {
					at := rng.Intn(len(queue))
					queue = append(queue[:at], append([]*job.Job{newJob(now, walls)}, queue[at:]...)...)
				}
			case r == 4: // adopt scratch warmed on an unrelated queue
				var alien []*job.Job
				for n := 1 + rng.Intn(20); n > 0; n-- {
					alien = append(alien, newJob(now-units.Time(rng.Intn(5000)), wideWalls))
				}
				other.prioritize(now, alien, rng.Float64())
				p, other = other, prioScratch{}
			}
			check(&p, now, queue, bf, pass)
			// Zero drift leaves waitMax = 0 while every job is fresh.
			if rng.Intn(4) != 0 {
				now += units.Time(rng.Intn(3600))
			}
		}
	}
}

func TestSeededPrioritizeTieBreaks(t *testing.T) {
	// Equal scores fall back to submit time, then to ID; the seeded
	// pass must reproduce that order whatever order it was seeded with.
	queue := []*job.Job{
		schedtest.J(9, 0, 1, 3600, 10),
		schedtest.J(4, 0, 1, 3600, 10),
		schedtest.J(7, 100, 1, 3600, 10),
		schedtest.J(2, 100, 1, 3600, 10),
	}
	var p prioScratch
	p.prioritize(100, queue, 0) // wallMax == wallMin: every score 0
	want := []int{4, 9, 2, 7}
	for pass, now := range []units.Time{100, 500, 100} {
		if got := ids(p.prioritize(now, queue, 0)); !reflect.DeepEqual(got, want) {
			t.Errorf("pass %d: %v, want %v", pass, got, want)
		}
	}
}

func TestVerifyPriorityOrder(t *testing.T) {
	queue := []*job.Job{
		schedtest.J(1, 0, 10, 9000, 4000),
		schedtest.J(2, 100, 10, 100, 80),
	}
	want := Prioritize(1000, queue, 0)
	if err := verifyPriorityOrder(1000, queue, 0, want); err != nil {
		t.Fatalf("correct order rejected: %v", err)
	}
	if err := verifyPriorityOrder(1000, queue, 0, []*job.Job{want[1], want[0]}); err == nil {
		t.Error("swapped order accepted")
	}
	if err := verifyPriorityOrder(1000, queue, 0, want[:1]); err == nil {
		t.Error("short order accepted")
	}
}

// slidingQueue returns n queued jobs and a step that advances one pass:
// the oldest job leaves and reappears as a fresh arrival at the tail
// with a new ID, the clock moving a minute.
func slidingQueue(n int) (queue []*job.Job, step func() units.Time) {
	rng := rand.New(rand.NewSource(int64(n)))
	walls := []units.Duration{600, 1800, 3600, 7200, 43200}
	for i := 0; i < n; i++ {
		wall := walls[rng.Intn(len(walls))]
		queue = append(queue, schedtest.J(i+1, units.Time(60*i), 1+rng.Intn(64), wall, wall/2))
	}
	now, nextID := units.Time(60*n), n
	return queue, func() units.Time {
		j := queue[0]
		copy(queue, queue[1:])
		nextID++
		j.ID, j.Submit = nextID, now
		queue[n-1] = j
		now += 60
		return now
	}
}

func TestSeededPrioritizeSteadyStateAllocs(t *testing.T) {
	queue, step := slidingQueue(256)
	var p prioScratch
	p.prioritize(step(), queue, 0.5)
	if got := testing.AllocsPerRun(50, func() { p.prioritize(step(), queue, 0.5) }); got != 0 {
		t.Errorf("steady-state seeded pass allocates %v times, want 0", got)
	}
}

// BenchmarkPrioritize runs one scheduling pass's priority order over a
// sliding queue (one departure, one arrival per pass). The cold variant
// drops the seed before every pass, so it is the unseeded sort on warm
// buffers.
func BenchmarkPrioritize(b *testing.B) {
	for _, n := range []int{64, 1024} {
		for _, seeded := range []bool{false, true} {
			name := fmt.Sprintf("cold/n=%d", n)
			if seeded {
				name = fmt.Sprintf("seeded/n=%d", n)
			}
			b.Run(name, func(b *testing.B) {
				queue, step := slidingQueue(n)
				var p prioScratch
				// The second pass sizes the survivor map.
				p.prioritize(step(), queue, 0.5)
				p.prioritize(step(), queue, 0.5)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !seeded {
						p.entries, p.prev = p.entries[:0], p.prev[:0]
					}
					p.prioritize(step(), queue, 0.5)
				}
			})
		}
	}
}
