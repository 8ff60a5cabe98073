package xrand

import "math"

// MarsagliaTsang returns one Gamma(d+1/3, 1) variate by Marsaglia &
// Tsang's squeeze-rejection (ACM TOMS 2000), given d = a - 1/3 and
// c = 1/(3 sqrt(d)) for a shape a >= 1: x standard normal,
// v = (1+cx)^3, and d*v is accepted under the squeeze
// u < 1 - 0.0331 x^4 or the exact log test, u uniform on (0, 1).
//
// It is NormFloat64, then OpenFloat64, per attempt, and consumes the
// stream exactly as those calls would, with the xoshiro state held in
// locals across both draws and the ziggurat normal's fast path inlined;
// the state is written back before every return and before every slow
// continuation (normSlow, the log test). The xoshiro step is spelled
// out at both draws, as in ExpFloat64N: a helper returning the state
// inlines, but measured about 0.9 ns slower per draw.
func (s *Source) MarsagliaTsang(d, c float64) float64 {
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	for {
		u := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		j := u >> 12
		i := u & 0xff
		var x float64
		if j < zigNormK[i] {
			x = float64(j) * zigNormW[i]
			if u&0x100 != 0 {
				x = -x
			}
		} else {
			s.s[0], s.s[1], s.s[2], s.s[3] = s0, s1, s2, s3
			x = s.normSlow(u)
			s0, s1, s2, s3 = s.s[0], s.s[1], s.s[2], s.s[3]
		}
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		var un float64
		for un == 0 { // OpenFloat64: a zero draw is redrawn
			w := rotl(s1*5, 7) * 9
			t := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = rotl(s3, 45)
			un = float64(w>>11) / (1 << 53)
		}
		s.s[0], s.s[1], s.s[2], s.s[3] = s0, s1, s2, s3
		x2 := x * x
		if un < 1-0.0331*x2*x2 {
			return d * v
		}
		if math.Log(un) < 0.5*x2+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
