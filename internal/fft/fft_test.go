package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFFTKnownValues(t *testing.T) {
	// FFT of [1,0,0,0] is all ones.
	out := FFTReal([]float64{1, 0, 0, 0})
	for i, v := range out {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT[%d] = %v, want 1", i, v)
		}
	}
	// FFT of constant c over n points: [n*c, 0, ..., 0].
	out = FFTReal([]float64{2, 2, 2, 2})
	if cmplx.Abs(out[0]-8) > 1e-12 {
		t.Fatalf("DC bin = %v, want 8", out[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(out[i]) > 1e-12 {
			t.Fatalf("bin %d = %v, want 0", i, out[i])
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 5, 8, 12, 16, 17, 31, 64, 100} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		got := FFT(x)
		for k := 0; k < n; k++ {
			var want complex128
			for j := 0; j < n; j++ {
				ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
				want += x[j] * cmplx.Exp(complex(0, ang))
			}
			if cmplx.Abs(got[k]-want) > 1e-8*float64(n) {
				t.Fatalf("n=%d k=%d: got %v want %v", n, k, got[k], want)
			}
		}
	}
}

func TestQuickParseval(t *testing.T) {
	// Parseval: sum|x|^2 == (1/n) sum|X|^2.
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e3 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		spec := FFTReal(xs)
		var timeE, freqE float64
		for _, v := range xs {
			timeE += v * v
		}
		for _, c := range spec {
			freqE += real(c)*real(c) + imag(c)*imag(c)
		}
		freqE /= float64(len(xs))
		return math.Abs(timeE-freqE) <= 1e-6*(1+timeE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestWelchPeakAndLength(t *testing.T) {
	const fs = 1.0
	const f0 = 0.1
	n := 512
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, n)
	for i := range x {
		x[i] = 3*math.Sin(2*math.Pi*f0*float64(i)/fs) + 0.1*rng.NormFloat64()
	}
	freqs, psd := Welch(x, fs, 128)
	if len(freqs) != 65 || len(psd) != 65 {
		t.Fatalf("welch lengths = %d,%d want 65", len(freqs), len(psd))
	}
	best := 0
	for i := range psd {
		if psd[i] > psd[best] {
			best = i
		}
	}
	if math.Abs(freqs[best]-f0) > 0.01 {
		t.Fatalf("welch peak at %v, want %v", freqs[best], f0)
	}
}

func TestWelchShortSeries(t *testing.T) {
	x := []float64{1, 2, 3}
	freqs, psd := Welch(x, 1, 128)
	if len(freqs) == 0 || len(psd) == 0 {
		t.Fatal("short series should still yield one segment")
	}
	if f, p := Welch(nil, 1, 64); f != nil || p != nil {
		t.Fatal("empty input should return nil")
	}
}

func TestSpectralMoments(t *testing.T) {
	freqs := []float64{0, 1, 2, 3, 4}
	psd := []float64{0, 0, 1, 0, 0} // all power at 2 Hz
	c, v, _, _ := SpectralMoments(freqs, psd)
	if math.Abs(c-2) > 1e-12 || math.Abs(v) > 1e-12 {
		t.Fatalf("centroid=%v var=%v, want 2, 0", c, v)
	}
	c, _, _, _ = SpectralMoments(freqs, []float64{0, 0, 0, 0, 0})
	if !math.IsNaN(c) {
		t.Fatal("zero spectrum should give NaN centroid")
	}
}

func TestHannWindow(t *testing.T) {
	w := HannWindow(5)
	if w[0] != 0 || w[4] != 0 {
		t.Fatalf("hann endpoints = %v, %v, want 0", w[0], w[4])
	}
	if math.Abs(w[2]-1) > 1e-12 {
		t.Fatalf("hann midpoint = %v, want 1", w[2])
	}
	if HannWindow(1)[0] != 1 {
		t.Fatal("1-point hann should be [1]")
	}
}

func BenchmarkFFT1024(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkWelch4096(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, 4096)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Welch(x, 1, 256)
	}
}
