package xrand

import "math"

// NormFloat64 returns a standard normal variate using a 256-layer
// ziggurat (Marsaglia & Tsang 2000). One 64-bit draw supplies the
// 52-bit magnitude, the sign and the layer index, so ~99% of draws
// cost one table compare and one multiply — no logarithm or square
// root, unlike the polar method (NormPolarFloat64) it replaces on the
// hot paths (lognormal batches, Marsaglia-Tsang gamma rejection). Like
// ExpFloat64, it consumes a variable number of generator outputs per
// draw; replay reproduces exactly when the whole stream is replayed
// from its seed.
func (s *Source) NormFloat64() float64 {
	u := s.Uint64()
	j := u >> 12 // 52 uniform bits for the magnitude
	i := u & 0xff
	if j < zigNormK[i] {
		x := float64(j) * zigNormW[i]
		if u&0x100 != 0 {
			return -x
		}
		return x
	}
	return s.normSlow(u)
}

// normSlow finishes a ziggurat normal draw whose first 64-bit draw u
// fell outside the fast-accept region (~1% of draws): u's low byte
// indexes the layer (0 is the tail strip) and bit 8 carries the sign.
// Factoring it out keeps NormFloat64's fast path small and lets
// MarsagliaTsang inline that path while sharing the identical slow
// continuation, so both consume the stream exactly alike.
func (s *Source) normSlow(u uint64) float64 {
	for {
		j := u >> 12
		i := u & 0xff       // layer index from disjoint low bits
		neg := u&0x100 != 0 // sign from another disjoint bit
		x := float64(j) * zigNormW[i]
		switch {
		case j < zigNormK[i]: // inside the layer's rectangle
		case i == 0: // the base strip's tail beyond zigNormR
			x = s.normTail()
		case zigNormF[i]+s.Float64()*(zigNormF[i-1]-zigNormF[i]) < math.Exp(-0.5*x*x):
			// under the density, in the layer's wedge
		default: // rejected: the next draw starts over
			u = s.Uint64()
			continue
		}
		if neg {
			return -x
		}
		return x
	}
}

// normTail samples the normal tail beyond zigNormR by Marsaglia's
// exponential-majorant rejection.
func (s *Source) normTail() float64 {
	for {
		x := -math.Log(s.OpenFloat64()) * (1 / zigNormR)
		y := -math.Log(s.OpenFloat64())
		if y+y >= x*x {
			return zigNormR + x
		}
	}
}

// zigNormR is the right edge of the base strip for the 256-layer
// normal ziggurat (Marsaglia & Tsang's constant).
const zigNormR = 3.6541528853610088

// Ziggurat tables for the standard normal law, built at init from the
// Marsaglia & Tsang recurrence against the unnormalized density
// f(x) = exp(-x^2/2): zigNormK[i] are acceptance thresholds against
// 52-bit uniforms, zigNormW[i] scale those uniforms onto layer widths,
// and zigNormF[i] are the density values at the layer edges.
var (
	zigNormK [256]uint64
	zigNormW [256]float64
	zigNormF [256]float64
)

func init() {
	const m = 1 << 52
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	// The common layer area is derived from zigNormR at init rather
	// than hard-coded, keeping the pair exactly consistent:
	// v = r f(r) + integral of f beyond r.
	v := zigNormR*f(zigNormR) + math.Sqrt(math.Pi/2)*math.Erfc(zigNormR/math.Sqrt2)
	dn, tn := zigNormR, zigNormR
	q := v / f(zigNormR)
	zigNormK[0] = uint64(zigNormR / q * m)
	zigNormK[1] = 0
	zigNormW[0] = q / m
	zigNormW[255] = zigNormR / m
	zigNormF[0] = 1
	zigNormF[255] = f(zigNormR)
	for i := 254; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(v/dn+f(dn)))
		zigNormK[i+1] = uint64(dn / tn * m)
		tn = dn
		zigNormF[i] = f(dn)
		zigNormW[i] = dn / m
	}
}
