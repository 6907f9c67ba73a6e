package metrics

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"time"
)

// PeakLiveHeap runs f while sampling the live heap every 100ms and returns
// the peak observed, in bytes. Each sample forces a GC and reads
// /gc/heap/live:bytes, the heap that GC marked live. HeapAlloc would also
// count what f allocated since the GC finished, so a faster f would read
// as a bigger one. The open-system perfgate case and the open gate both
// measure retention with it.
func PeakLiveHeap(f func()) uint64 {
	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			runtime.GC()
			rtmetrics.Read(sample)
			if live := sample[0].Value.Uint64(); live > peak.Load() {
				peak.Store(live)
			}
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Millisecond):
			}
		}
	}()
	f()
	close(stop)
	<-done
	return peak.Load()
}
