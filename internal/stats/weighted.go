package stats

import "encoding/json"

// WeightedAccumulator tracks the moments an importance-sampled
// Monte-Carlo stream needs: alongside the raw count n it maintains
//
//	w    = Σ wᵢ
//	w2   = Σ wᵢ²
//	mean = Σ wᵢ xᵢ / Σ wᵢ   (the self-normalized estimator)
//	s1   = Σ wᵢ² (xᵢ - mean)
//	v2   = Σ wᵢ² (xᵢ - mean)²
//
// all centred on the current weighted mean, updated online in the
// Welford/Chan style so Add-then-Merge over any partition of the stream
// is exact (identical merge order ⇒ bit-identical state, the contract
// the shard layer relies on). v2 and s1 give Deviations, the sum a
// delta-method standard error of a ratio estimator needs. With all
// weights equal to 1, Mean agrees with the unweighted Accumulator. The
// zero value is ready to use.
type WeightedAccumulator struct {
	n    int64
	w    float64
	w2   float64
	mean float64
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

// SumW2 returns Σw², the sum of the squared weights.
func (a *WeightedAccumulator) SumW2() float64 { return a.w2 }

// Mean returns the self-normalized estimate Σwx/Σw (0 when no mass has
// been recorded). Under an importance-sampling proposal Q this is the
// consistent estimator of E_P[x]; it is exact for constants regardless
// of the weights.
func (a *WeightedAccumulator) Mean() float64 { return a.mean }

// Deviations returns Σw²(x-c)², the squared weighted deviations of the
// observations from c, as v2 + 2(mean-c)·s1 + (mean-c)²·w2.
func (a *WeightedAccumulator) Deviations(c float64) float64 {
	d := a.mean - c
	return a.v2 + 2*d*a.s1 + d*d*a.w2
}

// weightedJSON is the wire and checkpoint form of a
// WeightedAccumulator: its exact sufficient statistics, so a decoded
// accumulator continues and merges bit-for-bit like the original.
type weightedJSON struct {
	N    int64   `json:"n"`
	W    float64 `json:"w"`
	W2   float64 `json:"w2"`
	Mean float64 `json:"mean"`
	S1   float64 `json:"s1"`
	V2   float64 `json:"v2"`
}

// MarshalJSON encodes the accumulator's sufficient statistics.
func (a WeightedAccumulator) MarshalJSON() ([]byte, error) {
	return json.Marshal(weightedJSON{N: a.n, W: a.w, W2: a.w2, Mean: a.mean, S1: a.s1, V2: a.v2})
}

// UnmarshalJSON decodes the statistics MarshalJSON encodes.
func (a *WeightedAccumulator) UnmarshalJSON(b []byte) error {
	var st weightedJSON
	if err := json.Unmarshal(b, &st); err != nil {
		return err
	}
	*a = WeightedAccumulator{n: st.N, w: st.W, w2: st.W2, mean: st.Mean, s1: st.S1, v2: st.V2}
	return nil
}
