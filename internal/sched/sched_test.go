package sched

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelForCoversRange checks every index is visited exactly once
// across chunk boundaries, pool sizes and input sizes.
func TestParallelForCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := New(workers, false)
		for _, n := range []int{0, 1, 2, 7, 64, 1000, 4097} {
			hits := make([]int32, n)
			p.ParallelFor(n, 8, func(w *Worker, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

// TestParallelForNested drives the deadlock scenario the shared pool
// exists to survive: every chunk of an outer call starts an inner
// ParallelFor on the same saturated pool. Caller participation must keep
// everything progressing.
func TestParallelForNested(t *testing.T) {
	p := New(2, false)
	var total atomic.Int64
	outer := 64
	inner := 256
	p.ParallelFor(outer, 1, func(w *Worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			p.ParallelFor(inner, 16, func(w *Worker, lo, hi int) {
				total.Add(int64(hi - lo))
			})
		}
	})
	if got := total.Load(); got != int64(outer*inner) {
		t.Fatalf("nested total = %d, want %d", got, outer*inner)
	}
}

// TestParallelForDeterministic pins that chunked execution produces the
// same output slice as a sequential loop (each chunk owns its range).
func TestParallelForDeterministic(t *testing.T) {
	p := New(4, false)
	n := 10000
	out := make([]float64, n)
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i) * 1.5
	}
	for rep := 0; rep < 10; rep++ {
		clear(out)
		p.ParallelFor(n, 64, func(w *Worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = float64(i) * 1.5
			}
		})
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("rep %d: out[%d] = %g, want %g", rep, i, out[i], want[i])
			}
		}
	}
}

// TestWorkerArena checks slot isolation and reuse of per-worker scratch.
func TestWorkerArena(t *testing.T) {
	w := &Worker{}
	a := w.Floats(0, 16)
	b := w.Floats(1, 16)
	a[0], b[0] = 1, 2
	if a[0] != 1 || b[0] != 2 {
		t.Fatal("slots alias")
	}
	a2 := w.Floats(0, 8)
	if &a2[0] != &a[0] {
		t.Fatal("slot 0 not reused at smaller size")
	}
	f := w.Floats32(0, 4)
	f[0] = 3
	if w.Floats32(0, 4)[0] != 3 {
		t.Fatal("float32 slot not reused")
	}
}

// TestWorkerArenaNoSteadyStateAllocs: reusing a warmed arena slot must
// not allocate.
func TestWorkerArenaNoSteadyStateAllocs(t *testing.T) {
	w := &Worker{}
	w.Floats(0, 1024)
	w.Floats32(1, 1024)
	avg := testing.AllocsPerRun(100, func() {
		_ = w.Floats(0, 1024)
		_ = w.Floats32(1, 1024)
	})
	if avg != 0 {
		t.Fatalf("warmed arena allocates %.1f objects/op, want 0", avg)
	}
}

// restoreDefault puts old back as the default pool and closes the pool a
// test configured in its place.
func restoreDefault(old *Pool) {
	if p := defaultPool.Swap(old); p != old {
		p.Close()
	}
}

func TestConfigure(t *testing.T) {
	old := Default()
	defer restoreDefault(old)
	Configure(3, true)
	p := Default()
	if p.Workers() != 3 || !p.Pinned() {
		t.Fatalf("Configure(3, true) -> workers=%d pinned=%v", p.Workers(), p.Pinned())
	}
	var count atomic.Int64
	p.ParallelFor(100, 1, func(w *Worker, lo, hi int) { count.Add(int64(hi - lo)) })
	if count.Load() != 100 {
		t.Fatalf("pinned pool covered %d of 100", count.Load())
	}
}

// workerGoroutines counts live goroutines running p's worker loop, found
// by the pool pointer the runtime prints as the method receiver.
func workerGoroutines(p *Pool) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), fmt.Sprintf("sched.(*Pool).worker(%p", p))
}

// waitNoWorkers polls until p has no worker goroutines left.
func waitNoWorkers(t *testing.T, p *Pool, within time.Duration) {
	t.Helper()
	for end := time.Now().Add(within); ; time.Sleep(5 * time.Millisecond) {
		if p.running() == 0 && workerGoroutines(p) == 0 {
			return
		}
		if time.Now().After(end) {
			t.Fatalf("after %v: %d worker slots busy, %d worker goroutines alive",
				within, p.running(), workerGoroutines(p))
		}
	}
}

// busyFor runs chunks that each hold a worker for a moment, so the pool
// has to start workers, and returns the most worker goroutines seen.
func busyFor(p *Pool) int {
	var peak atomic.Int64
	p.ParallelFor(64, 1, func(w *Worker, lo, hi int) {
		if n := int64(workerGoroutines(p)); n > peak.Load() {
			peak.Store(n)
		}
		time.Sleep(time.Millisecond)
	})
	return int(peak.Load())
}

// TestConfiguredPoolWorkersExit: Configure retires the pool it replaces,
// and every worker of the retired pool exits promptly.
func TestConfiguredPoolWorkersExit(t *testing.T) {
	old := Default()
	defer restoreDefault(old)
	Configure(3, false)
	p := Default()
	if peak := busyFor(p); peak == 0 {
		t.Fatal("configured pool never started a worker")
	}
	Configure(2, false)
	waitNoWorkers(t, p, idleTimeout/2)
	// A retired pool still completes calls, on the caller.
	var count atomic.Int64
	p.ParallelFor(100, 1, func(w *Worker, lo, hi int) { count.Add(int64(hi - lo)) })
	if count.Load() != 100 || p.running() != 0 {
		t.Fatalf("closed pool covered %d of 100 with %d workers", count.Load(), p.running())
	}
}

// TestIdleWorkersExit: an unclosed pool's workers exit on their own once
// idle, and a later call starts them again with their arenas intact.
func TestIdleWorkersExit(t *testing.T) {
	p := New(2, false)
	if busyFor(p) == 0 {
		t.Fatal("pool never started a worker")
	}
	waitNoWorkers(t, p, 10*idleTimeout)
	if busyFor(p) == 0 {
		t.Fatal("pool did not restart workers after idling")
	}
	p.Close()
	waitNoWorkers(t, p, idleTimeout/2)
}
