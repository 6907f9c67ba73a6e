package stream

import (
	"fmt"
	"math"
	"sort"
)

// DefaultSketchAlpha is the relative accuracy the open-system runs use:
// every quantile estimate q̂ satisfies |q̂ - q| ≤ 0.01·q. The bound is on
// the value axis, not the rank axis, which is the guarantee response-time
// percentiles want ("p99 is right to 1%"), and it holds after any sequence
// of Adds and Merges.
const DefaultSketchAlpha = 0.01

// defaultMaxBuckets bounds sketch memory. At α = 0.01 one bucket spans a
// ×1.0202 value range, so 4096 buckets cover a dynamic range of more than
// 10^35 — far beyond any simulated response time — before the collapse
// path (which sacrifices accuracy only for the lowest values) ever runs.
const defaultMaxBuckets = 4096

// QuantileSketch is a deterministic relative-error quantile estimator over
// non-negative observations, in the DDSketch family: values map to
// log-spaced buckets i = ⌈ln(x)/ln(γ)⌉ with γ = (1+α)/(1-α), so any value
// in bucket i is within relative error α of the bucket's midpoint
// 2γⁱ/(γ+1). Memory is O(buckets), independent of observation count;
// sketches with equal α merge exactly (bucket-wise count addition), and
// every operation is deterministic — no sampling, no randomization — so a
// simulation run reproduces the same sketch bytes for the same seed.
type QuantileSketch struct {
	alpha      float64
	gamma      float64
	lnGamma    float64
	counts     map[int]int64
	n          int64
	zeros      int64 // observations ≤ 0 (response times are never negative)
	min, max   float64
	maxBuckets int
}

// NewQuantileSketch returns a sketch with relative accuracy alpha
// (0 < alpha < 1). Pass DefaultSketchAlpha unless a study needs otherwise.
func NewQuantileSketch(alpha float64) *QuantileSketch {
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("stream: sketch alpha %v out of (0,1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &QuantileSketch{
		alpha:      alpha,
		gamma:      gamma,
		lnGamma:    math.Log(gamma),
		counts:     make(map[int]int64),
		maxBuckets: defaultMaxBuckets,
	}
}

// N reports the number of observations.
func (s *QuantileSketch) N() int64 { return s.n }

// Min and Max report the exact observed extremes (0 with no observations).
func (s *QuantileSketch) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}
func (s *QuantileSketch) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Add folds one observation in.
func (s *QuantileSketch) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	if x <= 0 {
		s.zeros++
		return
	}
	idx := int(math.Ceil(math.Log(x) / s.lnGamma))
	s.counts[idx]++
	if len(s.counts) > s.maxBuckets {
		s.collapseLowest()
	}
}

// collapseLowest folds the lowest bucket into its neighbor above, the
// DDSketch eviction rule: small values lose precision first, so the high
// percentiles a load study reads stay within α.
func (s *QuantileSketch) collapseLowest() {
	lo := math.MaxInt
	next := math.MaxInt
	for i := range s.counts {
		if i < lo {
			next = lo
			lo = i
		} else if i < next {
			next = i
		}
	}
	if next == math.MaxInt {
		return
	}
	s.counts[next] += s.counts[lo]
	delete(s.counts, lo)
}

// Merge folds another sketch in. Both sketches must share the same alpha;
// the merge is exact (the merged sketch equals the sketch of the combined
// stream, up to collapses).
func (s *QuantileSketch) Merge(o *QuantileSketch) error {
	if o == nil || o.n == 0 {
		return nil
	}
	if o.alpha != s.alpha {
		return fmt.Errorf("stream: merging sketches with alpha %v and %v", s.alpha, o.alpha)
	}
	if s.n == 0 {
		s.min, s.max = o.min, o.max
	} else {
		if o.min < s.min {
			s.min = o.min
		}
		if o.max > s.max {
			s.max = o.max
		}
	}
	s.n += o.n
	s.zeros += o.zeros
	for i, c := range o.counts {
		s.counts[i] += c
		if len(s.counts) > s.maxBuckets {
			s.collapseLowest()
		}
	}
	return nil
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed stream,
// within relative error α of the exact order statistic. Bucket keys are
// sorted before the rank walk, so the answer is deterministic regardless
// of insertion or merge order. Returns 0 with no observations.
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	rank := int64(q * float64(s.n-1)) // 0-based rank of the order statistic
	if rank < s.zeros {
		return 0
	}
	keys := make([]int, 0, len(s.counts))
	for i := range s.counts {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	cum := s.zeros
	for _, i := range keys {
		cum += s.counts[i]
		if cum > rank {
			v := 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
			// The extremes are tracked exactly; never report outside them.
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v
		}
	}
	return s.max
}

// Buckets reports how many log-spaced buckets the sketch currently holds —
// the memory footprint, for tests asserting boundedness.
func (s *QuantileSketch) Buckets() int { return len(s.counts) }
