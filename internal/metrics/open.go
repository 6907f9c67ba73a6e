package metrics

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats/stream"
)

// OpenSummary is the bounded-memory result of an open-system run. Where a
// closed batch retains one JobRecord per job, an open run streams every
// completion through a response-time digest and a fixed-budget queue
// series — the summary's size is independent of how many jobs flowed
// through, which is what lets a 10M-job run hold memory flat.
type OpenSummary struct {
	// Jobs is how many jobs completed.
	Jobs int64
	// MeanResponse is the exact streaming mean of job response times;
	// P50/P95/P99 are sketch estimates within the digest's ε
	// (stream.DefaultSketchAlpha); MaxResponse is exact.
	MeanResponse, P50, P95, P99, MaxResponse sim.Time
	// ThroughputPerSec is completed jobs per simulated second.
	ThroughputPerSec float64
	// MeanQueue is the time-average number of jobs waiting for processors
	// (queue-length area over the run, sampled at arrival/completion
	// boundaries); PeakQueue is the largest instantaneous backlog seen.
	MeanQueue float64
	PeakQueue int
	// Queue is the windowed queue-length series (bounded; windows widen as
	// the run grows).
	Queue []QueueWindow
	// Digest is the full response-time digest, for callers that merge runs
	// (E15 merges its seeds) or read other quantiles.
	Digest *stream.Digest
}

// QueueWindow is one window of the queue-length series.
type QueueWindow struct {
	// End is the window's closing instant.
	End sim.Time
	// Mean is the average sampled queue length within the window.
	Mean float64
}

// String renders the headline numbers.
func (o *OpenSummary) String() string {
	return fmt.Sprintf("%d jobs, mean %s, p50 %s, p99 %s, %.1f jobs/s",
		o.Jobs, o.MeanResponse, o.P50, o.P99, o.ThroughputPerSec)
}
