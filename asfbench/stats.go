package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// heapSampler tracks the peak live heap (runtime/metrics
// /gc/heap/live:bytes, the heap marked live by the latest GC) while a
// workload runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: liveHeap()}
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe(liveHeap())
			}
		}
	}()
	return h
}

func (h *heapSampler) observe(v uint64) {
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// stopMB ends sampling and returns the peak in MiB. A final collection
// makes the heap still live at the end of the workload count too.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	h.observe(liveHeap())
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / mib
}

// processState is a goroutine count and live heap, for the before/after
// deltas of a traced run.
type processState struct {
	goroutines int
	heapMB     float64
}

// Two collections: the first moves sync.Pool contents (the simulator's
// machine pool) to the victim cache, the second frees them, so pooled
// machines are not mistaken for retained memory.
func snapshotProcess() processState {
	runtime.GC()
	runtime.GC()
	return processState{goroutines: runtime.NumGoroutine(), heapMB: float64(liveHeap()) / mib}
}

// putProcessDelta records how far the process is from where it started
// once the workload has been torn down.
func (b *bench) putProcessDelta(before processState) {
	// Let exiting goroutines (connection readers, stopped loops) finish.
	deadline := time.Now().Add(2 * time.Second)
	after := snapshotProcess()
	for after.goroutines > before.goroutines && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		after = snapshotProcess()
	}
	b.put("process.goroutines_delta", float64(after.goroutines-before.goroutines), "count", 1)
	b.put("process.heap_delta_mb", after.heapMB-before.heapMB, "MB", 1)
}
