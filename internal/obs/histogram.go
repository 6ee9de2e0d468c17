package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram is a log-scale (power-of-two bucket) histogram. Bucket i
// covers raw values in (2^(minExp+i-1), 2^(minExp+i)]; values at or
// below 2^minExp land in the first bucket, values above 2^maxExp in the
// +Inf bucket. Observe costs one bits.Len64 and two uncontended atomic
// adds — no floating point, no locks — which is what makes it safe on
// the per-operation hot path. Order-of-magnitude resolution is the
// point: latency regressions worth acting on move buckets, not
// percentage points within one.
//
// Raw values are integers in the caller's unit (nanoseconds for
// latencies, counts for sizes); Scale converts them to the exported
// unit at exposition time (1e-9 for ns→seconds, 1 for counts), so the
// hot path never multiplies floats.
type Histogram struct {
	minExp, maxExp int
	scale          float64
	counts         []atomic.Uint64 // len = maxExp-minExp+2; last is +Inf
	sum            atomic.Int64    // raw units
}

func newHistogram(minExp, maxExp int, scale float64) *Histogram {
	if minExp < 0 || maxExp > 62 || minExp > maxExp {
		panic("obs: bad histogram exponent range")
	}
	if scale == 0 {
		scale = 1
	}
	return &Histogram{
		minExp: minExp,
		maxExp: maxExp,
		scale:  scale,
		counts: make([]atomic.Uint64, maxExp-minExp+2),
	}
}

// Observe records one raw value (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	var e int
	if v > 0 {
		// bits.Len64(v-1) maps (2^(e-1), 2^e] to e: exact powers of two
		// belong to their own bucket, matching the exported le bounds.
		e = bits.Len64(uint64(v - 1))
	} else {
		v = 0
	}
	idx := e - h.minExp
	switch {
	case idx < 0:
		idx = 0
	case idx >= len(h.counts):
		idx = len(h.counts) - 1
	}
	h.counts[idx].Add(1)
	h.sum.Add(v)
}

func (h *Histogram) expose(w io.Writer, fam *family, label string) {
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		var le string
		if i == len(h.counts)-1 {
			le = "+Inf"
		} else {
			le = formatFloat(h.scale * math.Ldexp(1, h.minExp+i))
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name, bucketLabels(fam, label, le), cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", fam.name, labelPart(fam, label),
		formatFloat(h.scale*float64(h.sum.Load())))
	fmt.Fprintf(w, "%s_count%s %d\n", fam.name, labelPart(fam, label), cum)
}

func bucketLabels(fam *family, label, le string) string {
	if fam.labelKey == "" {
		return `{le="` + le + `"}`
	}
	return "{" + fam.labelKey + "=" + fmt.Sprintf("%q", label) + `,le="` + le + `"}`
}

// Histogram registers an unlabeled histogram with buckets 2^minExp ..
// 2^maxExp in raw units, exported multiplied by scale (0 = 1).
func (r *Registry) Histogram(name, help string, minExp, maxExp int, scale float64) *Histogram {
	h := newHistogram(minExp, maxExp, scale)
	r.register(name, help, "histogram", "").add("", h)
	return h
}

// HistogramVec is a family of histograms keyed by one label.
type HistogramVec struct {
	fam            *family
	minExp, maxExp int
	scale          float64
}

// HistogramVec registers a histogram family with one label key; every
// series shares the bucket layout.
func (r *Registry) HistogramVec(name, help, labelKey string, minExp, maxExp int, scale float64) *HistogramVec {
	if minExp < 0 || maxExp > 62 || minExp > maxExp {
		panic("obs: bad histogram exponent range")
	}
	return &HistogramVec{
		fam:    r.register(name, help, "histogram", labelKey),
		minExp: minExp, maxExp: maxExp, scale: scale,
	}
}

// With returns the histogram for the given label value; hot paths
// should cache the result.
func (v *HistogramVec) With(label string) *Histogram {
	return v.fam.get(label, func() series {
		return newHistogram(v.minExp, v.maxExp, v.scale)
	}).(*Histogram)
}

// NsHistogram registers a latency histogram observing nanoseconds and
// exporting seconds, with buckets from ~1µs (2^10 ns) to ~17s (2^34 ns)
// — the standard layout shared by every latency metric in the system.
func (r *Registry) NsHistogram(name, help string) *Histogram {
	return r.Histogram(name, help, NsMinExp, NsMaxExp, 1e-9)
}

// NsHistogramVec is NsHistogram with one label key.
func (r *Registry) NsHistogramVec(name, help, labelKey string) *HistogramVec {
	return r.HistogramVec(name, help, labelKey, NsMinExp, NsMaxExp, 1e-9)
}

// Standard nanosecond-histogram bucket range: 2^10 ns ≈ 1µs up to
// 2^34 ns ≈ 17s, 26 buckets including +Inf.
const (
	NsMinExp = 10
	NsMaxExp = 34
)
