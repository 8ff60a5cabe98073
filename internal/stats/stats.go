// Package stats provides the statistical machinery the availability
// study relies on: numerically stable moment accumulation, Student-t
// confidence intervals for Monte-Carlo estimates (the paper reports
// 99% confidence at 1e6 iterations), and availability metric
// conversions ("number of nines", downtime per year).
//
// Normal quantiles come from dist.NormQuantile (Acklam + Halley): the
// single shared inverse-CDF implementation of the repository.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"herald/internal/dist"
)

// Accumulator tracks count, mean and variance of a stream of
// observations using Welford's online algorithm, which stays accurate
// for the tiny unavailability magnitudes (1e-9) this study produces.
// The zero value is ready to use.
type Accumulator struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Merge folds another accumulator into this one (Chan et al. parallel
// variance update), used to combine per-worker Monte-Carlo batches.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	delta := b.mean - a.mean
	total := a.n + b.n
	a.mean += delta * float64(b.n) / float64(total)
	a.m2 += b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(total)
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.n = total
}

// N returns the number of observations.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the running mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Min returns the smallest observation; NaN when empty.
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.min
}

// Max returns the largest observation; NaN when empty.
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.max
}

// Variance returns the unbiased sample variance (0 for fewer than two
// observations).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// ConfidenceInterval returns the symmetric Student-t confidence
// interval of the mean at the given confidence level (e.g. 0.99). For
// n < 2 the interval is degenerate at the mean; a level outside (0, 1)
// — including NaN — yields a NaN interval rather than a panic.
func (a *Accumulator) ConfidenceInterval(level float64) Interval {
	if !(level > 0 && level < 1) {
		return Interval{math.NaN(), math.NaN()}
	}
	if a.n < 2 {
		return Interval{a.mean, a.mean}
	}
	h := a.HalfWidth(level)
	return Interval{a.mean - h, a.mean + h}
}

// HalfWidth returns the Student-t confidence half-width at the given
// level. As the paper notes (§III), the Monte-Carlo error is inversely
// proportional to the square root of the iteration count times the
// t coefficient for the target confidence. A level outside (0, 1) —
// including NaN — yields NaN rather than a panic, so callers can
// validate with a single IsNaN check.
func (a *Accumulator) HalfWidth(level float64) float64 {
	if !(level > 0 && level < 1) {
		return math.NaN()
	}
	if a.n < 2 {
		return 0
	}
	tcrit := StudentTQuantile(float64(a.n-1), 0.5+level/2)
	return tcrit * a.StdErr()
}

// Interval is a closed interval [Lo, Hi].
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Width returns Hi - Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

func (iv Interval) String() string { return fmt.Sprintf("[%g, %g]", iv.Lo, iv.Hi) }

// ---------------------------------------------------------------------
// Student-t distribution
// ---------------------------------------------------------------------

// StudentTCDF returns P(T <= t) for the Student-t law with nu degrees
// of freedom, via the regularized incomplete beta function.
func StudentTCDF(nu, t float64) float64 {
	if nu <= 0 {
		panic(fmt.Sprintf("stats: t degrees of freedom %v must be positive", nu))
	}
	if t == 0 {
		return 0.5
	}
	x := nu / (nu + t*t)
	p := 0.5 * RegIncBeta(nu/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// StudentTQuantile returns the p-quantile of the Student-t law with nu
// degrees of freedom. For nu > 1e6 the normal quantile is returned.
//
// The inversion starts from Hill's Cornish-Fisher expansion around the
// normal quantile (exact closed forms for nu = 1 and 2) and polishes
// with safeguarded Newton steps on StudentTCDF using the analytic t
// density — typically 2-4 CDF evaluations instead of the ~200 a
// bracketed bisection needs. The Monte-Carlo summary path evaluates
// this once per Run for the confidence half-width.
func StudentTQuantile(nu, p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: t quantile probability %v outside (0,1)", p))
	}
	if nu > 1e6 {
		return dist.NormQuantile(p)
	}
	if p == 0.5 {
		return 0
	}
	switch nu {
	case 1:
		// Cauchy: F^-1(p) = tan(pi (p - 1/2)).
		return math.Tan(math.Pi * (p - 0.5))
	case 2:
		return (2*p - 1) / math.Sqrt(2*p*(1-p))
	}

	// Hill (1970): t ~ z + g1/nu + g2/nu^2 + g3/nu^3 + g4/nu^4.
	z := dist.NormQuantile(p)
	z2 := z * z
	g1 := z * (z2 + 1) / 4
	g2 := z * ((5*z2+16)*z2 + 3) / 96
	g3 := z * (((3*z2+19)*z2+17)*z2 - 15) / 384
	g4 := z * ((((79*z2+776)*z2+1482)*z2-1920)*z2 - 945) / 92160
	inv := 1 / nu
	x := z + inv*(g1+inv*(g2+inv*(g3+inv*g4)))

	// Safeguarded Newton on f(x) = CDF(x) - p with the analytic pdf;
	// steps that leave the maintained bracket fall back to bisection.
	lgn, _ := math.Lgamma((nu + 1) / 2)
	lgd, _ := math.Lgamma(nu / 2)
	logC := lgn - lgd - 0.5*math.Log(nu*math.Pi)
	lo, hi := math.Inf(-1), math.Inf(1)
	for i := 0; i < 60; i++ {
		f := StudentTCDF(nu, x) - p
		if f == 0 {
			return x
		}
		if f > 0 {
			hi = x
		} else {
			lo = x
		}
		pdf := math.Exp(logC - (nu+1)/2*math.Log1p(x*x/nu))
		next := x - f/pdf
		// Accept a converged step before safeguarding: at the root the
		// proposal can land exactly on a bracket edge.
		if math.Abs(next-x) <= 1e-13*(1+math.Abs(x)) && !math.IsNaN(next) {
			return next
		}
		if !(next > lo && next < hi) || pdf == 0 || math.IsNaN(next) {
			switch {
			case math.IsInf(lo, -1):
				next = hi - 1
			case math.IsInf(hi, 1):
				next = lo + 1
			default:
				next = (lo + hi) / 2
			}
		}
		x = next
	}
	return x
}

// RegIncBeta computes the regularized incomplete beta function
// I_x(a, b) by the continued-fraction expansion (Numerical Recipes
// betacf), accurate to ~1e-14 over the domain used here.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lga, _ := math.Lgamma(a)
	lgb, _ := math.Lgamma(b)
	lgab, _ := math.Lgamma(a + b)
	front := math.Exp(lgab - lga - lgb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the incomplete beta continued fraction by modified
// Lentz's method.
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 500; m++ {
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + 2*fm) * (a + 2*fm))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + 2*fm) * (qap + 2*fm))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return h
}

// ---------------------------------------------------------------------
// Availability metrics
// ---------------------------------------------------------------------

// HoursPerYear is the conversion constant used for downtime-per-year
// reporting.
const HoursPerYear = 8766.0 // 365.25 days

// Nines converts an availability in [0,1) to the "number of nines"
// scale used throughout the paper's figures:
// nines = -log10(1 - availability). Availability 1 maps to +Inf.
func Nines(availability float64) float64 {
	if availability >= 1 {
		return math.Inf(1)
	}
	if availability < 0 {
		panic(fmt.Sprintf("stats: availability %v < 0", availability))
	}
	return -math.Log10(1 - availability)
}

// FromNines converts a number-of-nines back to an availability.
func FromNines(nines float64) float64 {
	if math.IsInf(nines, 1) {
		return 1
	}
	return 1 - math.Pow(10, -nines)
}

// Unavailability returns 1 - availability, clamped at 0.
func Unavailability(availability float64) float64 {
	u := 1 - availability
	if u < 0 {
		return 0
	}
	return u
}

// DowntimeHoursPerYear converts an availability to expected downtime
// hours per year.
func DowntimeHoursPerYear(availability float64) float64 {
	return Unavailability(availability) * HoursPerYear
}

// DowntimeMinutesPerYear converts an availability to expected downtime
// minutes per year.
func DowntimeMinutesPerYear(availability float64) float64 {
	return DowntimeHoursPerYear(availability) * 60
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

// Histogram is a fixed-bin histogram over [Lo, Hi) with overflow and
// underflow counters, used to inspect downtime distributions from the
// Monte-Carlo simulator.
type Histogram struct {
	Lo, Hi    float64
	Counts    []int64
	Underflow int64
	Overflow  int64
	total     int64
}

// NewHistogram returns a histogram with bins equal-width bins spanning
// [lo, hi). It panics unless lo < hi and bins >= 1.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if hi <= lo || bins < 1 {
		panic(fmt.Sprintf("stats: invalid histogram [%v,%v) with %d bins", lo, hi, bins))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Lo:
		h.Underflow++
	case x >= h.Hi:
		h.Overflow++
	default:
		i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
		if i == len(h.Counts) { // guard against round-up at the edge
			i--
		}
		h.Counts[i]++
	}
}

// Total returns the number of observations recorded, including
// under/overflow.
func (h *Histogram) Total() int64 { return h.total }

// Merge folds another histogram with identical binning into this one;
// it panics on a binning mismatch. Used to combine per-worker
// Monte-Carlo histograms.
func (h *Histogram) Merge(o *Histogram) {
	if h.Lo != o.Lo || h.Hi != o.Hi || len(h.Counts) != len(o.Counts) {
		panic("stats: merging histograms with different binning")
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Underflow += o.Underflow
	h.Overflow += o.Overflow
	h.total += o.total
}

// histogramState is the JSON shape of a Histogram, carrying the
// unexported running total across process boundaries.
type histogramState struct {
	Lo        float64 `json:"lo"`
	Hi        float64 `json:"hi"`
	Counts    []int64 `json:"counts"`
	Underflow int64   `json:"underflow"`
	Overflow  int64   `json:"overflow"`
	Total     int64   `json:"total"`
}

// MarshalJSON encodes the histogram including its observation total.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramState{
		Lo: h.Lo, Hi: h.Hi, Counts: h.Counts,
		Underflow: h.Underflow, Overflow: h.Overflow, Total: h.total,
	})
}

// UnmarshalJSON decodes a histogram serialized by MarshalJSON.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var st histogramState
	if err := json.Unmarshal(b, &st); err != nil {
		return err
	}
	if st.Hi <= st.Lo || len(st.Counts) < 1 {
		return fmt.Errorf("stats: invalid histogram [%v,%v) with %d bins", st.Lo, st.Hi, len(st.Counts))
	}
	h.Lo, h.Hi, h.Counts = st.Lo, st.Hi, st.Counts
	h.Underflow, h.Overflow, h.total = st.Underflow, st.Overflow, st.Total
	return nil
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Quantile returns an approximate q-quantile from binned data
// (midpoint rule): the bin holding the ceil(q·n)-th smallest
// observation (empirical type-1 quantile). Underflow answers h.Lo and
// overflow h.Hi; NaN when empty or for q outside [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 || !(q >= 0 && q <= 1) {
		return math.NaN()
	}
	// The rank of the q-quantile observation, clamped to [1, total]:
	// at q=1 the target is the maximum observation itself, which lives
	// in the last non-empty bin — not h.Hi, which a truncating
	// int64(q*total) with a strict cum>target test used to answer even
	// with all mass in an interior bin.
	target := int64(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	if target > h.total {
		target = h.total
	}
	cum := h.Underflow
	if cum >= target {
		return h.Lo
	}
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			return h.BinCenter(i)
		}
	}
	// Only Overflow mass remains above the last bin.
	return h.Hi
}

// ---------------------------------------------------------------------
// Small-sample helpers
// ---------------------------------------------------------------------

// Mean returns the arithmetic mean of xs (NaN when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs (NaN when empty). The input is not
// modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// GeoMean returns the geometric mean of strictly positive xs (NaN when
// empty or when any element is non-positive).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
