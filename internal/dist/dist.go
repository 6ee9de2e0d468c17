// Package dist provides the probability and sampling primitives shared by
// the value machinery (internal/value) and the workload generators
// (internal/workload): the normal survival function behind the paper's
// Def. 3 finish-probability density, and a deterministic seeded RNG with
// the exponential / truncated-normal / without-replacement draws the
// Sec. 4 workload model needs.
package dist

import (
	"math"
	"math/rand"
)

// NormalSurvival returns P[X > x] for X ~ N(mean, sigma^2). A zero or
// negative sigma degenerates to a point mass at mean.
func NormalSurvival(x, mean, sigma float64) float64 {
	if sigma <= 0 {
		if x < mean {
			return 1
		}
		return 0
	}
	return 0.5 * math.Erfc((x-mean)/(sigma*math.Sqrt2))
}

// RNG is a deterministic pseudo-random source: the same seed always yields
// the same draw sequence, which is what makes workload runs replayable
// across protocols (each protocol sees the identical transaction stream).
type RNG struct {
	r *rand.Rand
}

// NewRNG returns an RNG seeded deterministically from seed. Seeds are
// passed through a SplitMix64 finalizer first so that adjacent seeds
// (0, 1, 2, ... as replication indices) produce decorrelated streams.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(int64(splitmix64(uint64(seed)))))}
}

// splitmix64 is the SplitMix64 finalizer (Steele et al.), a bijective
// avalanche mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform draw from [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw from {0, ..., n-1}.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Exp returns an exponential draw with the given mean (inter-arrival gaps
// of a Poisson process with rate 1/mean).
func (g *RNG) Exp(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// TruncNormal returns a normal draw with the given mean and relative
// standard deviation, truncated by rejection to [lo, hi]. It is used for
// the per-transaction execution-rate jitter factor, where sigma is
// expressed relative to the mean.
func (g *RNG) TruncNormal(mean, relSigma, lo, hi float64) float64 {
	sigma := relSigma * mean
	for i := 0; i < 64; i++ {
		x := g.r.NormFloat64()*sigma + mean
		if x >= lo && x <= hi {
			return x
		}
	}
	// Pathological bounds (mean far outside [lo, hi]); clamp rather than
	// spin forever.
	return math.Max(lo, math.Min(hi, mean))
}

// Zipf draws ranks from {0, ..., n-1} with P(rank r) proportional to
// 1/(r+1)^theta — the Gray et al. / YCSB skewed-access generator. Rank 0
// is the hottest key. theta must be in [0, 1); theta = 0 degenerates to
// uniform, and theta -> 1 approaches the classic 1/r harmonic skew
// (YCSB's default is 0.99). Draws come from the owning RNG, so the
// sequence is deterministic under a fixed seed.
type Zipf struct {
	g     *RNG
	n     int
	theta float64
	// Precomputed constants of the inverse-CDF approximation.
	alpha, zetan, eta float64
}

// Zipf returns a generator over n ranks with skew theta. It panics on
// n < 1 or theta outside [0, 1): callers (workload.Config.Validate)
// are expected to range-check user input first.
func (g *RNG) Zipf(n int, theta float64) *Zipf {
	if n < 1 || theta < 0 || theta >= 1 {
		panic("dist: Zipf needs n >= 1 and theta in [0, 1)")
	}
	z := &Zipf{g: g, n: n, theta: theta}
	if theta > 0 {
		z.zetan = zeta(n, theta)
		z.alpha = 1 / (1 - theta)
		z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	}
	return z
}

// zeta returns the generalized harmonic number H_{n,theta}.
func zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next returns the next rank.
func (z *Zipf) Next() int {
	if z.theta == 0 {
		return z.g.Intn(z.n)
	}
	u := z.g.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	r := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// SampleWithoutReplacement returns k distinct integers drawn uniformly
// from {0, ..., n-1}, in draw order. It runs a sparse partial
// Fisher-Yates shuffle: O(k) time and space regardless of n.
func (g *RNG) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		k = n
	}
	moved := make(map[int]int, k)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + g.r.Intn(n-i)
		vj, ok := moved[j]
		if !ok {
			vj = j
		}
		vi, ok := moved[i]
		if !ok {
			vi = i
		}
		out[i] = vj
		moved[j] = vi
	}
	return out
}
