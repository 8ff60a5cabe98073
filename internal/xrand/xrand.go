// Package xrand provides a fast, reproducible pseudo-random number
// generator substrate for Monte-Carlo availability simulation.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// SplitMix64 so that any 64-bit seed yields a well-mixed state. The
// package supports two ways of deriving statistically independent
// streams from a single master seed:
//
//   - Jump: advances the state by 2^128 steps, giving up to 2^128
//     non-overlapping subsequences (used for parallel simulation
//     workers);
//   - NewStream(seed, i): hashes (seed, i) through SplitMix64, a cheap
//     scheme suitable for per-iteration replay streams.
//
// Source implements math/rand's Source64, so it can also back a
// *rand.Rand when convenient.
package xrand

import "math"

// Source is a xoshiro256** PRNG. The zero value is NOT a valid
// generator; construct with New or NewStream.
type Source struct {
	s [4]uint64
}

// splitMix64 advances x by the SplitMix64 sequence and returns the next
// output. It is the recommended seeding generator for xoshiro.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given 64-bit seed.
func New(seed uint64) *Source {
	var s Source
	s.Seed(int64(seed))
	return &s
}

// NewStream returns the stream-th independent Source derived from seed.
// Streams with distinct (seed, stream) pairs are decorrelated by hashing
// both through SplitMix64 before state expansion.
func NewStream(seed uint64, stream uint64) *Source {
	var s Source
	s.SeedStream(seed, stream)
	return &s
}

// SeedStream resets the generator in place to the stream-th independent
// state derived from seed, producing exactly the sequence of
// NewStream(seed, stream) without allocating. It is the per-iteration
// replay primitive of the Monte-Carlo hot loop: one stack-resident
// Source is reseeded for each iteration index.
func (s *Source) SeedStream(seed uint64, stream uint64) {
	x := seed
	h := splitMix64(&x)
	x = h ^ (stream * 0xd2b74407b1ce6e93)
	s.s[0] = splitMix64(&x)
	s.s[1] = splitMix64(&x)
	s.s[2] = splitMix64(&x)
	s.s[3] = splitMix64(&x)
	s.normalize()
}

// Seed resets the generator state from a 64-bit seed. It implements
// math/rand.Source.
func (s *Source) Seed(seed int64) {
	x := uint64(seed)
	s.s[0] = splitMix64(&x)
	s.s[1] = splitMix64(&x)
	s.s[2] = splitMix64(&x)
	s.s[3] = splitMix64(&x)
	s.normalize()
}

// normalize guards against the (astronomically unlikely, but illegal)
// all-zero state.
func (s *Source) normalize() {
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits. It implements
// math/rand.Source64, and it is the innermost call of every draw in
// the Monte-Carlo hot loop. It is a call, not inlined: go1.24 rates it
// at cost 112 against the inlining budget of 80 (go build
// -gcflags=-m=2). Spelled with bits.RotateLeft64 it can fit the
// budget (cost 79 in one form), but Float64, which then inlines it,
// exceeds the budget itself (cost 87), so the call only moves one
// level up. The samplers that need the state in registers
// (ExpFloat64N, MarsagliaTsang) step it in locals themselves.
func (s *Source) Uint64() uint64 {
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	result := rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	s.s[0], s.s[1], s.s[2], s.s[3] = s0, s1, s2, s3
	return result
}

// Int63 returns a non-negative 63-bit random integer. It implements
// math/rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// Float64 returns a uniformly distributed float64 in [0, 1) with 53
// bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// OpenFloat64 returns a uniformly distributed float64 in the open
// interval (0, 1). It never returns exactly 0, which makes it safe to
// feed into logarithms and inverse CDFs.
func (s *Source) OpenFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return u
		}
	}
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1.
// It uses a 256-layer ziggurat (Marsaglia & Tsang), which resolves
// ~98.6% of draws with one 64-bit draw, one table compare and one
// multiply — no logarithm. The sequence is deterministic per stream but
// consumes a variable number of generator outputs per draw; replay
// therefore reproduces exactly when the whole stream is replayed from
// its seed (the contract the simulator's per-iteration streams rely
// on).
func (s *Source) ExpFloat64() float64 {
	u := s.Uint64()
	j := u >> 11  // 53 uniform bits
	i := u & 0xff // layer index from disjoint low bits
	if j < zigExpK[i] {
		return float64(j) * zigExpW[i]
	}
	return s.expSlow(u)
}

// expSlow finishes a ziggurat exponential draw whose first uniform u
// fell outside the fast-accept region (~1.4% of draws). Factoring it
// out keeps ExpFloat64's fast path small and lets ExpFloat64N share
// the identical slow continuation, so both consume the stream exactly
// alike.
func (s *Source) expSlow(u uint64) float64 {
	for {
		j := u >> 11
		i := u & 0xff
		if j < zigExpK[i] {
			return float64(j) * zigExpW[i]
		}
		if i == 0 {
			// Tail beyond x = zigExpR: memorylessness restarts the
			// exponential at the tail edge.
			return zigExpR + s.ExpInvFloat64()
		}
		x := float64(j) * zigExpW[i]
		if zigExpF[i]+s.Float64()*(zigExpF[i-1]-zigExpF[i]) < math.Exp(-x) {
			return x
		}
		u = s.Uint64()
	}
}

// ExpFloat64N fills dst with independent rate-1 exponential variates.
// It draws from the same ziggurat as ExpFloat64 and consumes the
// stream identically to len(dst) sequential ExpFloat64 calls, so a
// replayed stream may switch freely between the two. The batch form
// keeps the xoshiro state in registers across the whole fill,
// amortizing the per-call state loads/stores that dominate
// single-draw cost; the rare non-fast draws (~1.4%) flush state back
// and take the shared slow continuation.
func (s *Source) ExpFloat64N(dst []float64) {
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	for n := range dst {
		u := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		j := u >> 11
		i := u & 0xff
		if j < zigExpK[i] {
			dst[n] = float64(j) * zigExpW[i]
			continue
		}
		s.s[0], s.s[1], s.s[2], s.s[3] = s0, s1, s2, s3
		dst[n] = s.expSlow(u)
		s0, s1, s2, s3 = s.s[0], s.s[1], s.s[2], s.s[3]
	}
	s.s[0], s.s[1], s.s[2], s.s[3] = s0, s1, s2, s3
}

// ExpInvFloat64 returns an exponentially distributed float64 with
// rate 1 by inverse-transform sampling (-ln U). It consumes exactly one
// uniform per draw (modulo the astronomically rare zero rejection in
// OpenFloat64), which makes it the reference sampler for tests that
// need fixed stream consumption.
func (s *Source) ExpInvFloat64() float64 {
	return -math.Log(s.OpenFloat64())
}

// Ziggurat tables for the rate-1 exponential law, built once at init
// from the Marsaglia & Tsang (2000) recurrence with 256 layers:
// zigExpK[i] are acceptance thresholds against 53-bit uniforms,
// zigExpW[i] scale those uniforms onto layer widths, and zigExpF[i] are
// the density values at the layer edges.
var (
	zigExpK [256]uint64
	zigExpW [256]float64
	zigExpF [256]float64
)

// zigExpR is the right edge of the base strip; zigExpV the common layer
// area (Marsaglia & Tsang's constants for N = 256).
const (
	zigExpR = 7.697117470131487
	zigExpV = 3.949659822581572e-3
)

func init() {
	const m = 1 << 53
	de, te := zigExpR, zigExpR
	q := zigExpV / math.Exp(-de)
	zigExpK[0] = uint64(de / q * m)
	zigExpK[1] = 0
	zigExpW[0] = q / m
	zigExpW[255] = de / m
	zigExpF[0] = 1
	zigExpF[255] = math.Exp(-de)
	for i := 254; i >= 1; i-- {
		de = -math.Log(zigExpV/de + math.Exp(-de))
		zigExpK[i+1] = uint64(de / te * m)
		te = de
		zigExpF[i] = math.Exp(-de)
		zigExpW[i] = de / m
	}
}

// NormPolarFloat64 returns a standard normal variate using the
// Marsaglia polar method. It is the reference sampler the ziggurat
// NormFloat64 is cross-checked against; hot paths should prefer
// NormFloat64.
func (s *Source) NormPolarFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0. Lemire's multiply-shift rejection method keeps it unbiased.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Uint32n returns a uniformly distributed uint32 in [0, n). It panics
// if n == 0. Like Intn it is bias-free (Lemire's multiply-shift
// rejection), but on 32-bit operands the 128-bit product collapses to
// one native 64-bit multiply, and the rejection threshold — the only
// division in the algorithm — is computed lazily on a path taken with
// probability below n/2^32. It is the uniform-index sampler of the
// simulation hot loops, where n is a disk count.
func (s *Source) Uint32n(n uint32) uint32 {
	if n == 0 {
		panic("xrand: Uint32n called with n == 0")
	}
	prod := uint64(uint32(s.Uint64()>>32)) * uint64(n)
	if low := uint32(prod); low < n {
		thresh := -n % n // (2^32 - n) % n, the bias-free cutoff
		for low < thresh {
			prod = uint64(uint32(s.Uint64()>>32)) * uint64(n)
			low = uint32(prod)
		}
	}
	return uint32(prod >> 32)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Bernoulli returns true with probability p. Values of p <= 0 always
// return false and p >= 1 always return true.
func (s *Source) Bernoulli(p float64) bool {
	if p >= 1 {
		return true
	}
	return p > 0 && s.Float64() < p
}

// jumpPoly is the xoshiro256** jump polynomial; calling Jump advances
// the state by 2^128 steps.
var jumpPoly = [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}

// Jump advances the generator 2^128 steps, equivalent to 2^128 calls to
// Uint64. It is used to partition one seed into non-overlapping
// parallel subsequences.
func (s *Source) Jump() {
	var t [4]uint64
	for _, jp := range jumpPoly {
		for b := uint(0); b < 64; b++ {
			if jp&(1<<b) != 0 {
				t[0] ^= s.s[0]
				t[1] ^= s.s[1]
				t[2] ^= s.s[2]
				t[3] ^= s.s[3]
			}
			s.Uint64()
		}
	}
	s.s = t
}

// Clone returns an independent copy of the generator in its current
// state. The copy and the original produce identical sequences.
func (s *Source) Clone() *Source {
	c := *s
	return &c
}
