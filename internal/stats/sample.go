package stats

import (
	"math"
	"sort"

	"repro/internal/dist"
)

// Sample accumulates scalar observations (latencies, queue depths) for
// quantile reporting. With cap <= 0 it keeps everything; with a positive
// cap it keeps a uniform reservoir (Vitter's Algorithm R), so a
// long-running server can report percentiles in bounded memory.
type Sample struct {
	cap int
	n   int64
	xs  []float64
	sum float64
	rng *dist.RNG
}

// NewSample returns a sample; cap <= 0 keeps every observation.
func NewSample(cap int, seed int64) *Sample {
	return &Sample{cap: cap, rng: dist.NewRNG(seed)}
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.n++
	s.sum += x
	if s.cap <= 0 || len(s.xs) < s.cap {
		s.xs = append(s.xs, x)
		return
	}
	// Reservoir: keep x with probability cap/n, replacing a uniform victim.
	if j := int64(s.rng.Float64() * float64(s.n)); j < int64(s.cap) {
		s.xs[j] = x
	}
}

// N returns the number of observations recorded.
func (s *Sample) N() int64 { return s.n }

// Mean returns the exact mean over all observations (not just the
// reservoir).
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Raw returns the retained observations (everything with cap <= 0, the
// reservoir otherwise). The slice is shared; callers must not mutate it.
func (s *Sample) Raw() []float64 { return s.xs }

// Percentiles returns the p-th percentiles (each p in [0, 100]) of the
// retained observations by linear interpolation between order
// statistics, with a single copy-and-sort. NaN entries with no
// observations.
func (s *Sample) Percentiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(s.xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sorted := make([]float64, len(s.xs))
	copy(sorted, s.xs)
	sort.Float64s(sorted)
	for i, p := range ps {
		switch {
		case p <= 0:
			out[i] = sorted[0]
		case p >= 100:
			out[i] = sorted[len(sorted)-1]
		default:
			rank := p / 100 * float64(len(sorted)-1)
			lo := int(rank)
			frac := rank - float64(lo)
			if lo+1 >= len(sorted) {
				out[i] = sorted[len(sorted)-1]
			} else {
				out[i] = sorted[lo]*(1-frac) + sorted[lo+1]*frac
			}
		}
	}
	return out
}
