// Sharded ingest lanes: the daemon's high-throughput admission path.
//
// The single-submit path costs one engine-lock acquisition per job;
// under heavy load the lock, not the engine, bounds throughput. The
// lanes amortize it: submissions are staged into per-shard bounded
// queues (sharded by the submitting user, so one chatty user cannot
// serialize everyone), each stamped with a global arrival sequence
// number at enqueue, and a single flusher drains every shard, merges
// the staged items back into arrival order, and injects the whole
// batch into the sim.Live session under ONE lock acquisition.
//
// Ordering contract (what keeps speedup=∞ batch-equivalence
// byte-identical): the global sequence number fixes a total admission
// order identical to the order the same caller would have produced
// with serialized single submits, and the flusher injects strictly in
// that order. The staging lock makes every gathered set a sequence
// prefix: a batch's items are numbered and staged under its read side
// and the flusher sweeps the shards under its write side, so no sweep
// can take a later item while an earlier number is still unstaged.
// Batching changes only when the lock is taken, never what the engine
// observes. TestIngestDifferential pins this against
// sim.Run across machines, policies, modes, and batch sizes.
//
// Backpressure: a full shard fails the item with ErrOverloaded rather
// than blocking the HTTP handler — the caller sees a per-item error
// and retries; the queue bound caps daemon memory under overload.
package server

import (
	"errors"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrOverloaded reports an ingest shard at capacity.
var ErrOverloaded = errors.New("server: ingest queue full, retry later")

// SubmitResult is one item's outcome from a batch submission.
type SubmitResult struct {
	Status JobStatus
	Err    error
}

// submitItem is one staged submission awaiting the flusher.
type submitItem struct {
	req SubmitRequest
	seq uint64
	res *SubmitResult   // result slot, written by the flusher
	wg  *sync.WaitGroup // request-level completion latch
}

// ingestShard is one bounded staging lane.
type ingestShard struct {
	mu     sync.Mutex
	items  []submitItem
	closed bool
}

// lanes is the sharded ingest front end over one Daemon.
type lanes struct {
	d      *Daemon
	shards []ingestShard
	bound  int // per-shard queue capacity
	seed   maphash.Seed

	// staging is read-held by SubmitBatch from its first sequence
	// number through its last append, and write-held by gather for the
	// shard sweep. Lock order: flushMu, staging, shard mu.
	staging sync.RWMutex
	seq     atomic.Uint64
	notify  chan struct{} // wakes the flusher; capacity 1
	stop    chan struct{}
	done    chan struct{}

	// flushMu serializes flushAll between the background flusher and
	// synchronous callers (Drain, Close, tests). Lock order is always
	// flushMu before d.mu.
	flushMu sync.Mutex

	// scratch is the merge buffer reused across flushes.
	scratch []submitItem

	// Metrics, sampled by /metrics.
	enqueued   atomic.Uint64
	flushes    atomic.Uint64
	overflowed atomic.Uint64
	batchSizes *histogram
}

// ingestBatchBuckets spans the flush batch-size distribution the lanes
// produce: 1 (idle daemon) up to the whole-queue drains of a saturated
// one.
var ingestBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

func newLanes(d *Daemon, shards, bound int) *lanes {
	if shards <= 0 {
		shards = defaultIngestShards
	}
	if bound <= 0 {
		bound = defaultIngestQueue
	}
	ln := &lanes{
		d:      d,
		shards: make([]ingestShard, shards),
		bound:  bound,
		seed:   maphash.MakeSeed(),
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		batchSizes: newHistogram("amjsd_ingest_batch_jobs",
			"Jobs injected per engine-lock acquisition (flush batch size).",
			ingestBatchBuckets),
	}
	go ln.run()
	return ln
}

// shardFor hashes the submitting user onto a lane.
func (ln *lanes) shardFor(user string) *ingestShard {
	h := maphash.String(ln.seed, user)
	return &ln.shards[h%uint64(len(ln.shards))]
}

// SubmitBatch stages every request, wakes the flusher, and blocks
// until all of this call's items have been injected (or failed). The
// returned slice has one result per request, index-aligned. Items keep
// their relative order; interleaving with other concurrent callers is
// by arrival at the sequence counter.
func (ln *lanes) SubmitBatch(reqs []SubmitRequest) []SubmitResult {
	results := make([]SubmitResult, len(reqs))
	var wg sync.WaitGroup
	staged := 0
	ln.staging.RLock()
	for i := range reqs {
		sh := ln.shardFor(reqs[i].User)
		seq := ln.seq.Add(1)
		sh.mu.Lock()
		switch {
		case sh.closed:
			sh.mu.Unlock()
			results[i].Err = ErrClosed
		case len(sh.items) >= ln.bound:
			sh.mu.Unlock()
			ln.overflowed.Add(1)
			results[i].Err = ErrOverloaded
		default:
			wg.Add(1)
			sh.items = append(sh.items, submitItem{
				req: reqs[i], seq: seq, res: &results[i], wg: &wg,
			})
			sh.mu.Unlock()
			staged++
		}
	}
	ln.staging.RUnlock()
	if staged > 0 {
		ln.enqueued.Add(uint64(staged))
		select {
		case ln.notify <- struct{}{}:
		default: // a wake-up is already pending
		}
		wg.Wait()
	}
	return results
}

// run is the flusher goroutine: woken by SubmitBatch, it drains the
// lanes until empty, then sleeps again. On stop it performs one final
// drain so no staged item is ever stranded.
func (ln *lanes) run() {
	defer close(ln.done)
	for {
		select {
		case <-ln.stop:
			ln.flushAll()
			return
		case <-ln.notify:
			ln.flushAll()
		}
	}
}

// flushAll drains every shard and injects the merged batch into the
// engine in sequence order, repeating until the lanes are empty. Safe
// for concurrent use (flushMu); callers needing "everything staged so
// far is in the engine" call it directly.
func (ln *lanes) flushAll() {
	ln.flushMu.Lock()
	defer ln.flushMu.Unlock()
	for {
		batch := ln.gather()
		if len(batch) == 0 {
			return
		}
		ln.flush(batch)
	}
}

// gather swaps out every shard's staged items and merges them into
// arrival order. It sweeps under staging's write side, when no batch
// is mid-staging and every numbered item is staged, so the result is a
// sequence prefix. Per-shard slices are already seq-ascending (appends under the
// shard lock), so the sort is a near-sorted merge.
func (ln *lanes) gather() []submitItem {
	batch := ln.scratch[:0]
	ln.staging.Lock()
	for i := range ln.shards {
		sh := &ln.shards[i]
		sh.mu.Lock()
		batch = append(batch, sh.items...)
		sh.items = sh.items[:0]
		sh.mu.Unlock()
	}
	ln.staging.Unlock()
	ln.scratch = batch[:0] // keep the backing array for reuse
	if len(batch) > 1 {
		sort.Slice(batch, func(i, j int) bool { return batch[i].seq < batch[j].seq })
	}
	return batch
}

// flush injects one merged batch under a single engine-lock
// acquisition and releases every waiter.
func (ln *lanes) flush(batch []submitItem) {
	d := ln.d
	d.mu.Lock()
	for i := range batch {
		it := &batch[i]
		it.res.Status, it.res.Err = d.submitLocked(it.req)
	}
	d.mu.Unlock()
	ln.flushes.Add(1)
	ln.batchSizes.observe(float64(len(batch)))
	for i := range batch {
		batch[i].wg.Done()
	}
}

// close marks every shard closed (new submissions fail fast with
// ErrClosed), stops the flusher, and waits for its final drain.
func (ln *lanes) close() {
	for i := range ln.shards {
		ln.shards[i].mu.Lock()
		ln.shards[i].closed = true
		ln.shards[i].mu.Unlock()
	}
	close(ln.stop)
	<-ln.done
}

// depths samples each shard's staged-item count for /metrics.
func (ln *lanes) depths(out []int) []int {
	for i := range ln.shards {
		ln.shards[i].mu.Lock()
		out = append(out, len(ln.shards[i].items))
		ln.shards[i].mu.Unlock()
	}
	return out
}
