package workloads

import (
	"time"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/workload"
)

// openConfig is the flat-memory open-system gate shape: static 1-node
// partitions (one loader and one compute process per job, no quantum
// rotation), Poisson arrivals at a stable ρ=0.5.
func openConfig(jobs int64) core.Config {
	ac := workload.DefaultAppCost()
	return core.Config{
		PartitionSize: 1,
		Topology:      topology.Mesh,
		Policy:        sched.Static,
		Arch:          workload.Adaptive,
		AppCost:       &ac,
		Arrival:       arrival.Spec{Kind: arrival.Poisson, Jobs: jobs, Load: 0.5},
	}
}

// ArrivalThroughput measures the open-system streaming path on the
// cheapest representative configuration and reports simulated jobs per
// wall-clock second — the headline number for the millions-of-jobs goal.
// Memory stays flat by design; allocs/op is the tripwire for per-job
// retention creeping back in.
func ArrivalThroughput(b B) {
	b.ReportAllocs()
	const jobs = 20000
	cfg := openConfig(jobs)
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N(); i++ {
		start := time.Now()
		res, err := core.Run(cfg)
		if err != nil {
			b.Fatalf("open run: %v", err)
		}
		elapsed += time.Since(start)
		if res.Open == nil || res.Open.Jobs != jobs {
			b.Fatalf("open summary missing or short: %+v", res.Open)
		}
	}
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(float64(jobs)*float64(b.N())/s, "jobs_per_sec")
	}
}

// OpenPeakRSS streams one million Poisson jobs through the scheduler while
// sampling the live heap, and reports the peak retained set as
// "peak_bytes" — the machine-checked form of the open-system subsystem's
// bounded-memory claim. A per-job leak of even one pointer-sized cell
// moves this number by megabytes, so the case goal has a wide margin for
// GC timing but a tight one for retention growth.
func OpenPeakRSS(b B) {
	const jobs = 1_000_000
	cfg := openConfig(jobs)
	var peak uint64
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N(); i++ {
		var res *metrics.Result
		var err error
		start := time.Now()
		p := metrics.PeakLiveHeap(func() {
			res, err = core.Run(cfg)
		})
		elapsed += time.Since(start)
		if err != nil {
			b.Fatalf("open run: %v", err)
		}
		if res.Open == nil || res.Open.Jobs != jobs {
			b.Fatalf("open summary missing or short: %+v", res.Open)
		}
		if p > peak {
			peak = p
		}
	}
	b.ReportMetric(float64(peak), "peak_bytes")
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(float64(jobs)*float64(b.N())/s, "jobs_per_sec")
	}
}
