package stats

import (
	"math"
	"testing"
)

func TestSamplePercentile(t *testing.T) {
	s := NewSample(0, 1)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {100, 100}, {50, 50.5}, {99, 99.01},
	} {
		if got := s.Percentiles(tc.p)[0]; math.Abs(got-tc.want) > 0.02 {
			t.Errorf("P%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if s.N() != 100 {
		t.Errorf("N = %d", s.N())
	}
	if got := s.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("Mean = %v", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	s := NewSample(0, 1)
	if !math.IsNaN(s.Percentiles(50)[0]) {
		t.Error("empty percentile should be NaN")
	}
	if s.Mean() != 0 {
		t.Error("empty mean should be 0")
	}
}

func TestSampleReservoir(t *testing.T) {
	s := NewSample(100, 7)
	const n = 100000
	for i := 0; i < n; i++ {
		s.Add(float64(i % 1000))
	}
	if s.N() != n {
		t.Errorf("N = %d, want %d", s.N(), n)
	}
	if len(s.Raw()) != 100 {
		t.Errorf("reservoir size = %d, want 100", len(s.Raw()))
	}
	// The exact mean is unaffected by the reservoir.
	if got := s.Mean(); math.Abs(got-499.5) > 1e-9 {
		t.Errorf("Mean = %v, want 499.5", got)
	}
	// The reservoir median of a uniform 0..999 stream should be near 500;
	// a reservoir of 100 has standard error ~ 29, so ±150 is generous but
	// catches a broken (biased) reservoir.
	if med := s.Percentiles(50)[0]; med < 350 || med > 650 {
		t.Errorf("reservoir median = %v, want ~500", med)
	}
}
