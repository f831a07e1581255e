// Package sched is the shared compute pool behind every data-parallel
// hot loop: generic batch prediction, forest/GBT ensemble sharding, and
// the xai batch plane all fan out through one set of persistent workers
// instead of each spawning its own GOMAXPROCS goroutines. That solves
// the composition problem the ad-hoc fan-outs had — a KernelSHAP explain
// inside a batch explain inside a serving goroutine no longer multiplies
// goroutine counts — and gives every worker a reusable arena so
// per-chunk scratch stops hitting the heap.
//
// Deadlock-freedom: chunks go onto one shared queue, and ParallelFor's
// caller *participates* — it executes chunks (its own or other calls')
// while waiting for its call to drain. A worker that re-enters
// ParallelFor from inside a chunk therefore makes progress even when
// every pool worker is busy: the nested call's chunks run inline on the
// spot when the queue is full, and the waiting parent keeps stealing
// work instead of blocking. No goroutine ever parks while holding work.
//
// Determinism: chunks are contiguous index ranges and each chunk writes
// only its own range, so execution order never affects results — the
// bit-identical PredictBatch↔Predict contract survives the pool.
//
// Lifetime: workers start on demand when chunks are queued and exit
// after idleTimeout without work, so an idle process — the default pool
// included — holds no pool goroutines and the pool needs no owner to
// stop it. Close retires a pool at once (Configure closes the pool it
// replaces); calls still in flight on it finish on their callers, who
// drain the queue themselves.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// idleTimeout is how long a worker waits for a chunk before exiting.
// Under load workers never see it; between bursts it bounds how long
// idle goroutines linger.
const idleTimeout = 250 * time.Millisecond

// Worker is the per-goroutine execution context handed to every chunk:
// a stable ID and a small arena of reusable scratch slices keyed by
// slot, so kernels can carve per-chunk buffers without allocating in
// steady state.
type Worker struct {
	// ID is the worker's index (pool workers count up from 0; helper
	// contexts minted for participating callers use fresh IDs above the
	// pool size). Chunks must not use ID to partition shared state —
	// two chunks of one call can run on the same worker.
	ID int

	f64 [][]float64
	f32 [][]float32
}

// Floats returns a float64 scratch slice of length n for the given
// slot, reusing the worker's arena. Contents are undefined; callers
// must fully overwrite (or clear) before reading. Distinct slots never
// alias.
func (w *Worker) Floats(slot, n int) []float64 {
	for len(w.f64) <= slot {
		w.f64 = append(w.f64, nil)
	}
	if cap(w.f64[slot]) < n {
		w.f64[slot] = make([]float64, n)
	}
	w.f64[slot] = w.f64[slot][:n]
	return w.f64[slot]
}

// Floats32 is Floats for float32 scratch (the quantized tree kernels'
// row blocks).
func (w *Worker) Floats32(slot, n int) []float32 {
	for len(w.f32) <= slot {
		w.f32 = append(w.f32, nil)
	}
	if cap(w.f32[slot]) < n {
		w.f32[slot] = make([]float32, n)
	}
	w.f32[slot] = w.f32[slot][:n]
	return w.f32[slot]
}

// chunk is one unit of queued work: fn over [lo, hi) on behalf of call c.
type chunk struct {
	fn     func(w *Worker, lo, hi int)
	lo, hi int
	c      *call
}

// call tracks one ParallelFor invocation across its chunks.
type call struct {
	pending atomic.Int64
	done    chan struct{}
}

func (c *call) finish(n int64) {
	if c.pending.Add(-n) == 0 {
		close(c.done)
	}
}

// Pool is a bounded set of on-demand workers draining one chunk queue.
type Pool struct {
	workers int
	pin     bool
	queue   chan chunk
	// idle holds the worker contexts (IDs 0..workers-1, arenas intact)
	// of the worker slots not running a goroutine; starting a worker
	// takes one, an exiting worker puts its own back.
	idle   chan *Worker
	stop   chan struct{} // closed by Close
	closed sync.Once
	helper sync.Pool // *Worker contexts for participating callers
	nextID atomic.Int64
}

// New builds a pool of n workers (n <= 0 selects GOMAXPROCS). pin locks
// each worker goroutine to an OS thread, which steadies tail latency on
// dedicated cores at the cost of scheduler flexibility; serving setups
// enable it explicitly (explaind -sched-pin). Workers start lazily on
// first use.
func New(n int, pin bool) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: n,
		pin:     pin,
		// 4 chunks of headroom per worker: deep enough to keep workers
		// fed, shallow enough that nested calls overflow to inline
		// execution instead of queuing behind their parents.
		queue: make(chan chunk, 4*n),
		idle:  make(chan *Worker, n),
		stop:  make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		p.idle <- &Worker{ID: i}
	}
	p.helper.New = func() any {
		return &Worker{ID: int(p.nextID.Add(1)) + p.workers - 1}
	}
	return p
}

var (
	defaultPool atomic.Pointer[Pool]
	configureMu sync.Mutex
)

// Default returns the process-wide pool, creating an unpinned
// GOMAXPROCS-sized one on first use.
func Default() *Pool {
	if p := defaultPool.Load(); p != nil {
		return p
	}
	configureMu.Lock()
	defer configureMu.Unlock()
	if p := defaultPool.Load(); p != nil {
		return p
	}
	p := New(0, false)
	defaultPool.Store(p)
	return p
}

// Configure replaces the default pool (size and pinning) before or
// after first use and closes the pool it replaces; in-flight calls on
// the old pool complete normally. explaind calls this at startup when
// -sched-pin is set.
func Configure(workers int, pin bool) {
	configureMu.Lock()
	defer configureMu.Unlock()
	if old := defaultPool.Swap(New(workers, pin)); old != nil {
		old.Close()
	}
}

// Close stops the pool's workers and returns once each has finished its
// current chunk and handed back its slot. Later and in-flight
// ParallelFor calls still complete, executed by their callers. Close is
// idempotent; it must not be called from inside one of p's chunks.
func (p *Pool) Close() {
	p.closed.Do(func() {
		close(p.stop)
		// Every slot back in idle means every worker has exited its loop.
		slots := make([]*Worker, 0, p.workers)
		for len(slots) < p.workers {
			slots = append(slots, <-p.idle)
		}
		for _, w := range slots {
			p.idle <- w
		}
	})
}

// wake starts a worker in an idle slot, if there is one and the pool is
// open.
func (p *Pool) wake() {
	select {
	case <-p.stop:
		return
	default:
	}
	select {
	case w := <-p.idle:
		go p.worker(w)
	default:
	}
}

// worker drains the queue until it has waited idleTimeout for a chunk or
// the pool closes, then hands its slot back. A chunk queued while it
// exits is not stranded: its caller drains the queue until its call
// completes.
func (p *Pool) worker(w *Worker) {
	if p.pin {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	defer func() { p.idle <- w }()
	timer := time.NewTimer(idleTimeout)
	defer timer.Stop()
	for {
		select {
		case ch := <-p.queue:
			ch.fn(w, ch.lo, ch.hi)
			ch.c.finish(1)
			timer.Reset(idleTimeout)
		case <-timer.C:
			return
		case <-p.stop:
			return
		}
	}
}

// running reports how many worker goroutines hold a slot.
func (p *Pool) running() int { return p.workers - len(p.idle) }

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Pinned reports whether workers are locked to OS threads.
func (p *Pool) Pinned() bool { return p.pin }

// ParallelFor runs fn over contiguous chunks covering [0, n). minChunk
// bounds the smallest chunk worth dispatching (<= 0 selects 1): work
// below 2×minChunk runs inline on the caller. fn must treat [lo, hi) as
// its exclusive write range. The caller's goroutine participates in
// execution, so ParallelFor may be called from inside a chunk (nested
// parallel layers compose instead of deadlocking); fn must therefore
// not hold locks that another chunk of the same call might take.
func (p *Pool) ParallelFor(n, minChunk int, fn func(w *Worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if minChunk <= 0 {
		minChunk = 1
	}
	if n < 2*minChunk || p.workers <= 1 {
		w := p.helper.Get().(*Worker)
		fn(w, 0, n)
		p.helper.Put(w)
		return
	}
	// Chunk size: enough chunks for the pool plus the caller, floored at
	// minChunk so tiny tails don't become dispatch overhead.
	size := (n + p.workers) / (p.workers + 1)
	if size < minChunk {
		size = minChunk
	}
	nChunks := int64((n + size - 1) / size)
	c := &call{done: make(chan struct{})}
	c.pending.Store(nChunks)

	w := p.helper.Get().(*Worker)
	defer p.helper.Put(w)

	// Enqueue every chunk past the first; a full queue means the pool is
	// saturated (e.g. a nested call), so the overflow chunk runs inline
	// on the caller instead of queuing behind its own parent.
	var executed int64
	for lo := size; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		select {
		case p.queue <- chunk{fn: fn, lo: lo, hi: hi, c: c}:
			p.wake()
		default:
			fn(w, lo, hi)
			executed++
		}
	}
	// The caller always takes the head chunk itself.
	fn(w, 0, size)
	executed++
	c.finish(executed)

	// Help until this call drains: execute whatever chunk is next in the
	// queue (ours or another call's) rather than parking.
	for {
		select {
		case <-c.done:
			return
		case ch := <-p.queue:
			ch.fn(w, ch.lo, ch.hi)
			ch.c.finish(1)
		}
	}
}

// ParallelFor runs fn over the default pool; see Pool.ParallelFor.
func ParallelFor(n, minChunk int, fn func(w *Worker, lo, hi int)) {
	Default().ParallelFor(n, minChunk, fn)
}
