// Package stats provides the small statistical toolkit the replicated
// experiments need: streaming mean/variance (Welford), summaries with
// confidence intervals, bounded-memory quantile digests, and replication
// drivers for running a configuration across seeds.
//
// The simulator is deterministic per seed, so replication here means
// varying the seed-dependent inputs (arrival sequences, synthetic
// workloads) — not rerunning identical configurations.
//
// The estimators themselves live in the leaf package stats/stream (so
// core and metrics can use them without an import cycle through the
// engine); the aliases below keep this package the API the experiments
// code reads.
package stats

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/stats/stream"
)

// Accumulator computes streaming mean and variance (Welford's algorithm),
// numerically stable for long runs. See stream.Accumulator.
type Accumulator = stream.Accumulator

// Summary is a frozen view of an accumulator. See stream.Summary.
type Summary = stream.Summary

// Digest bundles streaming moments with an α-relative-error quantile
// sketch — bounded memory over any number of observations. See
// stream.Digest.
type Digest = stream.Digest

// QuantileSketch is the deterministic relative-error quantile estimator.
// See stream.QuantileSketch.
type QuantileSketch = stream.QuantileSketch

// DefaultSketchAlpha is the default quantile relative-accuracy guarantee.
const DefaultSketchAlpha = stream.DefaultSketchAlpha

// NewDigest returns a digest whose sketch has relative accuracy alpha
// (0 selects DefaultSketchAlpha).
func NewDigest(alpha float64) *Digest { return stream.NewDigest(alpha) }

// NewQuantileSketch returns a sketch with relative accuracy alpha.
func NewQuantileSketch(alpha float64) *QuantileSketch { return stream.NewQuantileSketch(alpha) }

// Replicate runs f for seeds 0..n-1 and summarizes the returned metric.
// Any error aborts the replication, reporting the lowest failing seed.
// Replications run on the engine worker pool; per-replication accumulators
// merge in seed order (each worker folds its observation as it goes, no
// sample slices are retained), so the summary is identical for any worker
// count.
func Replicate(n int, f func(seed int64) (float64, error), opts ...engine.Options) (Summary, error) {
	plan := engine.NewPlan[Accumulator]("stats.Replicate")
	for i := 0; i < n; i++ {
		i := i
		plan.Add(fmt.Sprintf("seed=%d", i), func() (Accumulator, error) {
			var acc Accumulator
			x, err := f(int64(i))
			if err != nil {
				return acc, fmt.Errorf("stats: replication %d: %w", i, err)
			}
			acc.Add(x)
			return acc, nil
		})
	}
	accs, err := engine.Execute(plan, opts...)
	if err != nil {
		return Summary{}, err
	}
	var acc Accumulator
	for i := range accs {
		acc.Merge(&accs[i])
	}
	return acc.Summarize(), nil
}
