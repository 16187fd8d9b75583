package core

import (
	"math/rand"
	"reflect"
	"testing"

	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/units"
)

// exhaustiveBestPermutation is the seed implementation of the window
// search — a flat next-permutation loop that clones the plan and
// re-places every job per candidate — kept in the test tree as the
// oracle the branch-and-bound search is cross-checked against.
func exhaustiveBestPermutation(plan machine.Plan, window []*job.Job, now units.Time, utilFirst bool) []int {
	n := len(window)
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	if n <= 1 || n > maxPermWindow {
		return identity
	}

	allNow := true
	probe := plan.Clone()
	for _, j := range window {
		ts, hint := probe.EarliestStart(j.Nodes, j.Walltime)
		if ts != now {
			allNow = false
			break
		}
		probe.Commit(j.Nodes, ts, j.Walltime, hint)
	}
	if allNow {
		return identity
	}

	best := append([]int(nil), identity...)
	bestSpan, bestNodes := evalPermutationClone(plan, window, identity, now)

	better := func(span units.Time, nodes int) bool {
		if utilFirst {
			return nodes > bestNodes || (nodes == bestNodes && span < bestSpan)
		}
		return span < bestSpan || (span == bestSpan && nodes > bestNodes)
	}
	perm := append([]int(nil), identity...)
	for nextPermutation(perm) {
		span, nodes := evalPermutationClone(plan, window, perm, now)
		if better(span, nodes) {
			bestSpan, bestNodes = span, nodes
			copy(best, perm)
		}
	}
	return best
}

// nextPermutation advances p to the next lexicographic permutation,
// returning false once p was the last one. It drives the exhaustive
// oracle's enumeration (invariant.VerifyWindow keeps its own copy on
// purpose: an auditor must not share code with what it audits).
func nextPermutation(p []int) bool {
	i := len(p) - 2
	for i >= 0 && p[i] >= p[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := len(p) - 1
	for p[j] <= p[i] {
		j--
	}
	p[i], p[j] = p[j], p[i]
	for l, r := i+1, len(p)-1; l < r; l, r = l+1, r-1 {
		p[l], p[r] = p[r], p[l]
	}
	return true
}

// evalPermutationClone greedily places the window's jobs in the given
// order on a clone of plan, returning the schedule's makespan and the
// node count put to work immediately (the seed's evalPermutation).
func evalPermutationClone(plan machine.Plan, window []*job.Job, perm []int, now units.Time) (units.Time, int) {
	p := plan.Clone()
	makespan := now
	nodesNow := 0
	for _, idx := range perm {
		j := window[idx]
		ts, hint := p.EarliestStart(j.Nodes, j.Walltime)
		if ts == units.Forever {
			continue
		}
		p.Commit(j.Nodes, ts, j.Walltime, hint)
		if end := ts.Add(j.Walltime); end > makespan {
			makespan = end
		}
		if ts == now {
			nodesNow += j.Nodes
		}
	}
	return makespan, nodesNow
}

// oracleMachine builds a randomized machine state: a mix of model
// types, partially loaded with running jobs.
func oracleMachine(r *rand.Rand) machine.Machine {
	var m machine.Machine
	switch r.Intn(3) {
	case 0:
		m = machine.NewFlat(256)
	case 1:
		m = machine.NewPartition(8, 32)
	default:
		m = machine.NewTorus(2, 2, 2, 32)
	}
	for i := 0; i < r.Intn(10); i++ {
		nodes := 1 + r.Intn(200)
		wall := units.Duration(50 + r.Intn(4000))
		m.TryStart(1000+i, nodes, 0, wall)
	}
	return m
}

// oracleWindow builds a randomized window of n jobs. Occasionally a job
// is oversized (can never fit) to exercise the Forever path.
func oracleWindow(r *rand.Rand, n int) []*job.Job {
	window := make([]*job.Job, n)
	for i := range window {
		nodes := 1 + r.Intn(220)
		if r.Intn(20) == 0 {
			nodes = 10_000 // oversized: EarliestStart returns Forever
		}
		window[i] = &job.Job{
			ID:       i + 1,
			User:     "u",
			Nodes:    nodes,
			Walltime: units.Duration(10 + r.Intn(3000)),
			Runtime:  units.Duration(5 + r.Intn(2000)),
			State:    job.Queued,
		}
	}
	return window
}

// The branch-and-bound search must select exactly the permutation the
// seed's exhaustive loop selects — including all tie-breaks — on
// randomized machine states and windows of every searched width
// (2..maxPermWindow), under both objective modes, and must leave the
// shared plan unchanged. The exhaustive loop costs W! plan clones per
// window, so the wide widths get fewer rounds. One long-lived scheduler
// per objective carries its search scratch across widths, as a real run
// does when the tuner moves W.
func TestBestPermutationMatchesExhaustiveOracle(t *testing.T) {
	rounds := func(width int) int {
		switch {
		case width <= 5:
			return 300
		case width == 6:
			return 60
		default:
			return 20
		}
	}
	r := rand.New(rand.NewSource(7))
	for _, utilFirst := range []bool{false, true} {
		s := NewMetricAware(0.5, maxPermWindow)
		s.UtilizationFirst = utilFirst
		for width := 2; width <= maxPermWindow; width++ {
			for i := 0; i < rounds(width); i++ {
				m := oracleMachine(r)
				window := oracleWindow(r, width)
				now := units.Time(r.Intn(40))
				plan := m.Plan(now)
				want := exhaustiveBestPermutation(plan, window, now, utilFirst)

				witness := plan.Clone()
				got := s.bestPermutation(plan, window, now)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("utilFirst=%v width %d round %d on %s: branch-and-bound picked %v, oracle %v (window %v)",
						utilFirst, width, i, m.Name(), got, want, describeWindow(window))
				}
				// The search speculates directly on the shared plan; every
				// commit must have been rewound.
				for _, j := range window {
					gt, gh := plan.EarliestStart(j.Nodes, j.Walltime)
					wt, wh := witness.EarliestStart(j.Nodes, j.Walltime)
					if gt != wt || gh != wh {
						t.Fatalf("utilFirst=%v width %d round %d: plan mutated by search: probe (%d,%v) = (%v,%d), want (%v,%d)",
							utilFirst, width, i, j.Nodes, j.Walltime, gt, gh, wt, wh)
					}
				}
			}
		}
	}
}

func describeWindow(window []*job.Job) [][2]int64 {
	out := make([][2]int64, len(window))
	for i, j := range window {
		out[i] = [2]int64{int64(j.Nodes), int64(j.Walltime)}
	}
	return out
}
