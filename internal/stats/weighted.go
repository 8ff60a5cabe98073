package stats

import (
	"encoding/json"
	"math"
)

// WeightedAccumulator tracks the moments an importance-sampled
// Monte-Carlo stream needs: alongside the raw count n it maintains
//
//	w    = Σ wᵢ
//	w2   = Σ wᵢ²
//	mean = Σ wᵢ xᵢ / Σ wᵢ   (the self-normalized estimator)
//	m2   = Σ wᵢ (xᵢ - mean)²
//	s1   = Σ wᵢ² (xᵢ - mean)
//	v2   = Σ wᵢ² (xᵢ - mean)²
//
// all centred on the current weighted mean, updated online in the
// Welford/Chan style so Add-then-Merge over any partition of the stream
// is exact (identical merge order ⇒ bit-identical state, the same
// contract Accumulator gives the shard layer). v2/s1 feed the
// delta-method standard error of the ratio estimator; w²/w2 is the
// Kish effective sample size. With all weights equal to 1 every
// accessor agrees with the unweighted Accumulator. The zero value is
// ready to use.
type WeightedAccumulator struct {
	n    int64
	w    float64
	w2   float64
	mean float64
	m2   float64
	s1   float64
	v2   float64
}

// Add folds one observation x carrying importance weight w >= 0.
// Zero-weight observations count toward n but carry no mass (the
// likelihood ratio underflowed; its contribution is genuinely
// negligible in that case).
func (a *WeightedAccumulator) Add(x, w float64) {
	a.n++
	if w == 0 {
		return
	}
	if a.w == 0 {
		a.w, a.w2, a.mean = w, w*w, x
		return
	}
	total := a.w + w
	delta := x - a.mean
	dA := delta * (w / total) // shift of the running mean
	dB := dA - delta          // = -(delta·wA/total): singleton's offset from the new mean
	w2B := w * w
	a.m2 += a.w*dA*dA + w*dB*dB
	a.v2 += -2*dA*a.s1 + a.w2*dA*dA + w2B*dB*dB
	a.s1 += -a.w2*dA - w2B*dB
	a.mean += dA
	a.w = total
	a.w2 += w2B
}

// Merge folds another weighted accumulator into this one. Both sides'
// centred moments are shifted to the combined mean before summing, so
// any grouping of a stream into sub-accumulators merged in stream
// order reproduces the sequential Add result exactly.
func (a *WeightedAccumulator) Merge(b *WeightedAccumulator) {
	if b.n == 0 {
		return
	}
	if b.w == 0 {
		a.n += b.n
		return
	}
	if a.w == 0 {
		n := a.n + b.n
		*a = *b
		a.n = n
		return
	}
	total := a.w + b.w
	delta := b.mean - a.mean
	dA := delta * (b.w / total)
	dB := dA - delta
	a.m2 = a.m2 + a.w*dA*dA + b.m2 + b.w*dB*dB
	a.v2 = (a.v2 - 2*dA*a.s1 + a.w2*dA*dA) + (b.v2 - 2*dB*b.s1 + b.w2*dB*dB)
	a.s1 = (a.s1 - a.w2*dA) + (b.s1 - b.w2*dB)
	a.mean += dA
	a.w = total
	a.w2 += b.w2
	a.n += b.n
}

// N returns the number of observations (zero-weight ones included).
func (a *WeightedAccumulator) N() int64 { return a.n }

// SumW returns Σw, the total importance weight seen.
func (a *WeightedAccumulator) SumW() float64 { return a.w }

// ESS returns the Kish effective sample size (Σw)²/Σw² — the number of
// equally-weighted observations carrying the same information. 0 when
// no mass has been recorded.
func (a *WeightedAccumulator) ESS() float64 {
	if a.w2 == 0 {
		return 0
	}
	return a.w * a.w / a.w2
}

// Mean returns the self-normalized estimate Σwx/Σw (0 when empty).
// Under an importance-sampling proposal Q this is the consistent
// estimator of E_P[x] with the smaller variance in the zero-inflated
// regime; it is exact for constants regardless of the weights.
func (a *WeightedAccumulator) Mean() float64 { return a.mean }

// MeanHT returns the Horvitz–Thompson estimate Σwx/n, unbiased when
// the weights are exact likelihood ratios (E_Q[w] = 1). It is reported
// as a diagnostic: a MeanHT far from Mean flags weight degeneracy.
func (a *WeightedAccumulator) MeanHT() float64 {
	if a.n == 0 {
		return 0
	}
	return a.w * a.mean / float64(a.n)
}

// Variance returns the weighted sample variance of the observations
// (frequency-weight convention, scaled n/(n-1); 0 for fewer than two
// observations). With unit weights it equals Accumulator.Variance.
func (a *WeightedAccumulator) Variance() float64 {
	if a.n < 2 || a.w == 0 {
		return 0
	}
	return a.m2 / a.w * float64(a.n) / float64(a.n-1)
}

// StdErr returns the delta-method standard error of the
// self-normalized mean: sqrt(Σw²(x-mean)² · n/(n-1)) / Σw. With unit
// weights it reduces exactly to Accumulator.StdErr.
func (a *WeightedAccumulator) StdErr() float64 {
	if a.n < 2 || a.w == 0 {
		return 0
	}
	v := a.v2 * float64(a.n) / float64(a.n-1)
	if !(v > 0) {
		return 0
	}
	return math.Sqrt(v) / a.w
}

// WeightedAccumulatorState is the exported snapshot of a
// WeightedAccumulator: the exact sufficient statistics of the weighted
// stream. It is the wire and checkpoint representation used by sharded
// biased runs; restoring a state and continuing reproduces the
// accumulator bit-for-bit.
type WeightedAccumulatorState struct {
	N    int64   `json:"n"`
	W    float64 `json:"w"`
	W2   float64 `json:"w2"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	S1   float64 `json:"s1"`
	V2   float64 `json:"v2"`
}

// State returns the accumulator's exact snapshot.
func (a *WeightedAccumulator) State() WeightedAccumulatorState {
	return WeightedAccumulatorState{N: a.n, W: a.w, W2: a.w2, Mean: a.mean, M2: a.m2, S1: a.s1, V2: a.v2}
}

// SetState overwrites the accumulator with a previously captured
// snapshot.
func (a *WeightedAccumulator) SetState(st WeightedAccumulatorState) {
	a.n, a.w, a.w2, a.mean, a.m2, a.s1, a.v2 = st.N, st.W, st.W2, st.Mean, st.M2, st.S1, st.V2
}

// MarshalJSON encodes the accumulator as its state snapshot.
func (a WeightedAccumulator) MarshalJSON() ([]byte, error) {
	return json.Marshal(a.State())
}

// UnmarshalJSON decodes a snapshot back into the accumulator.
func (a *WeightedAccumulator) UnmarshalJSON(b []byte) error {
	var st WeightedAccumulatorState
	if err := json.Unmarshal(b, &st); err != nil {
		return err
	}
	a.SetState(st)
	return nil
}
