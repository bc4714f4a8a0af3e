// Package fft implements the discrete Fourier transform substrate needed by
// the TSFRESH-style feature extractor: an iterative radix-2 FFT, a Bluestein
// chirp-z fallback for arbitrary lengths, real-input helpers, and Welch's
// method for power-spectral-density estimation.
//
// The implementation is self-contained (stdlib only) and deterministic. All
// transforms are unnormalized in the forward direction.
package fft

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// FFT returns the forward discrete Fourier transform of x. The input is not
// modified. Power-of-two lengths use the iterative radix-2 algorithm;
// other lengths fall back to Bluestein's algorithm. An empty input returns
// an empty slice.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	copy(out, x)
	if n&(n-1) == 0 {
		radix2(out, false)
		return out
	}
	return bluestein(out, false)
}

// FFTReal transforms a real-valued series and returns the full complex
// spectrum of length len(x).
func FFTReal(x []float64) []complex128 {
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	return FFT(cx)
}

// radix2 performs an in-place iterative Cooley-Tukey FFT. len(a) must be a
// power of two. When inverse is true the conjugate twiddles are used (the
// caller applies the 1/n normalization).
func radix2(a []complex128, inverse bool) {
	n := len(a)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wStep := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				even := a[start+k]
				odd := a[start+k+half] * w
				a[start+k] = even + odd
				a[start+k+half] = even - odd
				w *= wStep
			}
		}
	}
}

// bluestein computes an arbitrary-length DFT as a convolution, which is
// evaluated with a power-of-two FFT of length >= 2n-1.
func bluestein(x []complex128, inverse bool) []complex128 {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Chirp: w[k] = exp(sign * i*pi*k^2/n). Use k^2 mod 2n to keep the
	// argument small for long series.
	w := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		w[k] = cmplx.Exp(complex(0, sign*math.Pi*float64(kk)/float64(n)))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * w[k]
		b[k] = cmplx.Conj(w[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(w[k])
	}
	radix2(a, false)
	radix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	radix2(a, true)
	invM := complex(1/float64(m), 0)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		out[k] = a[k] * invM * w[k]
	}
	return out
}

// HannWindow returns the n-point Hann window.
func HannWindow(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := 0; i < n; i++ {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return w
}

// Welch estimates the one-sided power spectral density of a real series
// sampled at fs Hz using Welch's method: the series is split into
// Hann-windowed segments of length segLen with 50% overlap, each segment's
// modified periodogram is computed, and the periodograms are averaged.
// Segments are mean-detrended, matching scipy.signal.welch's default.
// If the series is shorter than segLen, a single shortened segment is used.
func Welch(x []float64, fs float64, segLen int) (freqs, psd []float64) {
	n := len(x)
	if n == 0 || segLen <= 0 {
		return nil, nil
	}
	if segLen > n {
		segLen = n
	}
	step := segLen / 2
	if step == 0 {
		step = 1
	}
	win := HannWindow(segLen)
	winPower := 0.0
	for _, w := range win {
		winPower += w * w
	}
	half := segLen/2 + 1
	acc := make([]float64, half)
	segments := 0
	seg := make([]float64, segLen)
	for start := 0; start+segLen <= n; start += step {
		copy(seg, x[start:start+segLen])
		// Detrend (constant) then window.
		mean := 0.0
		for _, v := range seg {
			mean += v
		}
		mean /= float64(segLen)
		for i := range seg {
			seg[i] = (seg[i] - mean) * win[i]
		}
		spec := FFTReal(seg)
		scale := 1 / (fs * winPower)
		for k := 0; k < half; k++ {
			p := (real(spec[k])*real(spec[k]) + imag(spec[k])*imag(spec[k])) * scale
			if k != 0 && !(segLen%2 == 0 && k == half-1) {
				p *= 2
			}
			acc[k] += p
		}
		segments++
	}
	if segments == 0 {
		return nil, nil
	}
	freqs = make([]float64, half)
	psd = make([]float64, half)
	for k := 0; k < half; k++ {
		freqs[k] = fs * float64(k) / float64(segLen)
		psd[k] = acc[k] / float64(segments)
	}
	return freqs, psd
}

// SpectralMoments summarizes a PSD with its centroid, variance, skewness
// and kurtosis over frequency, the aggregates tsfresh derives from spectra.
// A zero-power spectrum yields NaNs.
func SpectralMoments(freqs, psd []float64) (centroid, variance, skew, kurt float64) {
	total := 0.0
	for _, p := range psd {
		total += p
	}
	nan := math.NaN()
	if total == 0 || len(psd) == 0 || len(freqs) != len(psd) {
		return nan, nan, nan, nan
	}
	for i, p := range psd {
		centroid += freqs[i] * p / total
	}
	for i, p := range psd {
		d := freqs[i] - centroid
		variance += d * d * p / total
	}
	if variance == 0 {
		return centroid, variance, nan, nan
	}
	sd := math.Sqrt(variance)
	for i, p := range psd {
		d := (freqs[i] - centroid) / sd
		skew += d * d * d * p / total
		kurt += d * d * d * d * p / total
	}
	return centroid, variance, skew, kurt
}
