// Package core implements the paper's contribution: metric-aware job
// scheduling (balanced priority scoring plus window-based allocation,
// §III-B) and adaptive policy tuning (§III-C, Algorithm 1).
package core

import (
	"fmt"
	"slices"

	"amjs/internal/job"
	"amjs/internal/units"
)

// ScoreWait is Eq. (1): the job-age score, mapped to [0, 100]. A job
// that has waited as long as the longest-waiting job in the queue scores
// 100; a fresh job scores near 0. When the maximum wait is zero (a job
// just arrived to an empty queue) the score is 0.
//
// Note: the paper's equation prints wait_max/wait_i, which exceeds 100
// and inverts the stated semantics (BF→1 must approach FCFS); we
// implement the evidently intended wait_i/wait_max. See DESIGN.md §2.
func ScoreWait(wait, waitMax units.Duration) float64 {
	if waitMax <= 0 {
		return 0
	}
	if wait < 0 {
		wait = 0
	}
	return 100 * float64(wait) / float64(waitMax)
}

// ScoreRuntime is Eq. (2): the job-shortness score, mapped to [0, 100].
// The shortest requested walltime in the queue scores 100, the longest
// scores 0. With a single job in the queue (max == min) the score is 0.
func ScoreRuntime(walltime, wallMin, wallMax units.Duration) float64 {
	if wallMax <= wallMin {
		return 0
	}
	return 100 * float64(wallMax-walltime) / float64(wallMax-wallMin)
}

// BalancedPriority is Eq. (3): S_p = BF*S_w + (1-BF)*S_r. BF near 1
// favours fairness (job age); BF near 0 favours efficiency (short jobs).
func BalancedPriority(sw, sr, bf float64) float64 {
	return bf*sw + (1-bf)*sr
}

// Prioritize performs Steps 1–4 of the metric-aware algorithm: it scores
// every queued job and returns a new slice sorted by balanced priority,
// highest first. Ties are broken by submission time then ID, so BF=1
// yields exactly the FCFS order.
func Prioritize(now units.Time, queue []*job.Job, bf float64) []*job.Job {
	var scratch prioScratch
	return append([]*job.Job(nil), scratch.prioritize(now, queue, bf)...)
}

// prioScratch holds the scoring and sorting buffers of one Prioritize
// pass. The metric-aware scheduler keeps one per instance so that after
// warm-up a scheduling pass allocates nothing for scoring: the paper's
// evaluation needs thousands of simulations, each running this on every
// pass of every nested fairness simulation. Every buffer grows
// amortised, so a clone that starts from empty scratch regrows in
// O(log n) steps rather than at each new queue high-water mark.
type prioScratch struct {
	jobs  []*job.Job
	waits []units.Duration

	// entries holds the last call's queue in priority order, and each
	// entry's k indexes prev, that call's queue in its own (arrival)
	// order. The next call lays its entries out in this order before
	// sorting (see prioritize); next is that call's map from an index
	// of prev to the job's index in the new queue, or -1 once it left.
	entries []prioEntry
	prev    []*job.Job
	next    []int

	// aggHorizon is the latest submit time among the earliest-submitted
	// holders of the queue's walltime extrema after the last prioritize
	// call. ScoreRuntime scales every job's shortness score by the
	// queue-wide [wallMin, wallMax] band, so any submit-prefix of the
	// queue extending to aggHorizon retains both extrema and scores all
	// shared jobs identically. (The wait score's anchor, the maximum
	// wait, belongs to the earliest-submitted job of all and survives
	// every nonempty prefix for free.) Feeds sched.PassBounder.
	aggHorizon units.Time
}

// prioEntry pairs a job's index in the scored queue with its balanced
// priority, so the sort moves one small struct instead of parallel
// arrays through an interface.
type prioEntry struct {
	score float64
	k     int
}

// comparePrio orders entries of queue by balanced priority, highest
// first, ties broken by (submit, ID). It is a strict total order (IDs
// are unique).
func comparePrio(a, b prioEntry, queue []*job.Job) int {
	if a.score != b.score {
		if a.score > b.score {
			return -1
		}
		return 1
	}
	ja, jb := queue[a.k], queue[b.k]
	if ja.Submit != jb.Submit {
		if ja.Submit < jb.Submit {
			return -1
		}
		return 1
	}
	return ja.ID - jb.ID
}

// sortPrio sorts the entries of queue by comparePrio. An insertion sort
// goes first: on a seeded pass it costs one compare per entry plus one
// move per inversion, with the comparison inlined. Once the moves
// outnumber the entries the input is far from sorted (a cold or
// reshaped queue) and pdqsort finishes the job.
func sortPrio(entries []prioEntry, queue []*job.Job) {
	moves := 0
	for i := 1; i < len(entries); i++ {
		x, j := entries[i], i
		for j > 0 && comparePrio(x, entries[j-1], queue) < 0 {
			entries[j] = entries[j-1]
			j--
		}
		entries[j] = x
		if moves += i - j; moves > len(entries) {
			slices.SortFunc(entries, func(a, b prioEntry) int { return comparePrio(a, b, queue) })
			return
		}
	}
}

// prioritize scores queue into the scratch buffers and sorts them by
// comparePrio. The returned slice is scratch, valid until the next call.
//
// The sort is seeded with the previous call's priority order (see
// score), so consecutive passes sort a nearly sorted input. Because
// comparePrio is a strict total order, every correct sort of the same
// entries returns the same permutation — the seed changes only how fast
// the sort runs, never its result, whatever queue the previous call saw.
func (p *prioScratch) prioritize(now units.Time, queue []*job.Job, bf float64) []*job.Job {
	if len(queue) == 0 {
		return nil
	}
	p.score(now, queue, bf)
	sortPrio(p.entries, queue)
	p.jobs = p.jobs[:0]
	for _, e := range p.entries {
		p.jobs = append(p.jobs, queue[e.k])
	}
	p.prev = append(p.prev[:0], queue...)
	return p.jobs
}

// score fills entries with the balanced priority of every job in the
// nonempty queue, laid out in the previous call's priority order:
// surviving jobs in their old ranks, then the arrivals. A scratch with
// no previous call lays them out in queue order.
func (p *prioScratch) score(now units.Time, queue []*job.Job, bf float64) {
	p.waits = slices.Grow(p.waits[:0], len(queue))[:len(queue)]
	var waitMax units.Duration
	wallMin, wallMax := queue[0].Walltime, queue[0].Walltime
	minHold, maxHold := queue[0].Submit, queue[0].Submit
	for k, j := range queue {
		w := j.WaitAt(now)
		p.waits[k] = w
		if w > waitMax {
			waitMax = w
		}
		if j.Walltime < wallMin || (j.Walltime == wallMin && j.Submit < minHold) {
			wallMin, minHold = j.Walltime, j.Submit
		}
		if j.Walltime > wallMax || (j.Walltime == wallMax && j.Submit < maxHold) {
			wallMax, maxHold = j.Walltime, j.Submit
		}
	}
	p.aggHorizon = minHold
	if maxHold > p.aggHorizon {
		p.aggHorizon = maxHold
	}
	entry := func(k int) prioEntry {
		j := queue[k]
		sw := ScoreWait(p.waits[k], waitMax)
		sr := ScoreRuntime(j.Walltime, wallMin, wallMax)
		return prioEntry{BalancedPriority(sw, sr, bf), k}
	}

	// The engine's queue is in arrival order and between passes only
	// loses jobs and gains them at the tail, so one two-pointer walk
	// over the old and new queues finds every survivor. The first job
	// the walk cannot match exhausts prev, and it and every later job
	// are treated as arrivals: a queue of any other shape just seeds
	// fewer survivors.
	p.next = slices.Grow(p.next[:0], len(p.prev))[:len(p.prev)]
	i, tail := 0, 0
	for ; tail < len(queue); tail++ {
		for i < len(p.prev) && p.prev[i] != queue[tail] {
			p.next[i] = -1
			i++
		}
		if i == len(p.prev) {
			break
		}
		p.next[i] = tail
		i++
	}
	for ; i < len(p.prev); i++ {
		p.next[i] = -1
	}
	// Survivors in their old ranks (compacted in place: the write index
	// never passes the read index), then the arrivals.
	old := p.entries
	p.entries = p.entries[:0]
	for _, e := range old {
		if k := p.next[e.k]; k >= 0 {
			p.entries = append(p.entries, entry(k))
		}
	}
	for k := tail; k < len(queue); k++ {
		p.entries = append(p.entries, entry(k))
	}
}

// verifyPriorityOrder reports an error when got, a seeded prioritize
// result for queue, differs from the reference order: the same entries
// scored by a scratch with no seed and sorted by pdqsort alone.
// Paranoid runs call it on every pass.
func verifyPriorityOrder(now units.Time, queue []*job.Job, bf float64, got []*job.Job) error {
	if len(got) != len(queue) {
		return fmt.Errorf("core: seeded priority order has %d jobs, queue %d (now=%d, bf=%g)",
			len(got), len(queue), now, bf)
	}
	if len(queue) == 0 {
		return nil
	}
	var cold prioScratch
	cold.score(now, queue, bf)
	slices.SortFunc(cold.entries, func(a, b prioEntry) int { return comparePrio(a, b, queue) })
	for r, e := range cold.entries {
		if want := queue[e.k]; got[r] != want {
			return fmt.Errorf("core: seeded priority order diverges from cold sort at rank %d of %d: job %d, want job %d (now=%d, bf=%g)",
				r, len(queue), got[r].ID, want.ID, now, bf)
		}
	}
	return nil
}
