package gpu

import "math/rand"

// waveRNG is a wave's random stream. It is the additive lagged-Fibonacci
// generator behind math/rand's NewSource with a cheaper Seed: after
// g.seed(s), g.Float64() yields exactly the stream of
// rand.New(rand.NewSource(s)).Float64(), f == 1 redraw included.
//
// math/rand seeds word i of its 607-word state from three steps of the
// Lehmer LCG x -> 48271x mod (2^31-1), at steps lcgSkip+3i+1..3, each
// step a division that waits on the one before. Step n from x0 is
// x0*48271^n mod (2^31-1), so seed takes the powers from a table and
// reduces each product on its own, with no division.
type waveRNG struct {
	vec  [rngLen]int64
	tap  int
	feed int
}

const (
	rngLen   = 607 // math/rand's state words
	rngTap   = 273
	lcgMod   = 1<<31 - 1 // the seeding LCG's modulus, a Mersenne prime
	lcgMul   = 48271
	lcgSkip  = 20       // LCG steps math/rand takes before word 0
	zeroSeed = 89482311 // math/rand's stand-in for a seed of 0 mod lcgMod
)

// lcgPow[i] holds lcgMul^n mod lcgMod for the three LCG steps n that
// make word i of the state: lcgSkip+3i+1, +2 and +3.
var lcgPow [rngLen][3]uint64

// rngCooked is math/rand's table of words XORed into the seeded state.
var rngCooked [rngLen]int64

func init() {
	pow := uint64(1)
	for n := 0; n < lcgSkip; n++ {
		pow = mulMod(pow, lcgMul)
	}
	for i := range lcgPow {
		for j := range lcgPow[i] {
			pow = mulMod(pow, lcgMul)
			lcgPow[i][j] = pow
		}
	}
	// Recover rngCooked from a math/rand source seeded with 1. Its first
	// rngLen draws rewrite every state word once, each with the draw
	// itself, so they give the state after those draws; undoing the
	// draws' additions in reverse gives the seeded state, whose words are
	// the LCG words for x0 = 1 XOR rngCooked.
	src := rand.NewSource(1).(rand.Source64)
	feed := func(j int) int { return (rngLen - rngTap - 1 - j + rngLen) % rngLen }
	var vec [rngLen]int64
	for j := 0; j < rngLen; j++ {
		vec[feed(j)] = int64(src.Uint64())
	}
	for j := rngLen - 1; j >= 0; j-- {
		vec[feed(j)] -= vec[rngLen-1-j] // draw j's tap word
	}
	for i := range rngCooked {
		rngCooked[i] = vec[i] ^ lcgWord(1, i)
	}
}

// mulMod returns a*b mod lcgMod for a, b in [1, lcgMod) without
// dividing: the product is below 2^62, and folding its bits 31 and up
// onto the low ones (2^31 = 1 mod lcgMod) leaves a sum below 2*lcgMod.
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&lcgMod + p>>31
	if p >= lcgMod {
		p -= lcgMod
	}
	return p
}

// lcgWord is word i of the state math/rand seeds from LCG start x0,
// before the cooked XOR.
func lcgWord(x0 uint64, i int) int64 {
	p := &lcgPow[i]
	return int64(mulMod(x0, p[0]))<<40 ^ int64(mulMod(x0, p[1]))<<20 ^ int64(mulMod(x0, p[2]))
}

// seed resets g to the state rand.NewSource(s) starts from.
func (g *waveRNG) seed(s int64) {
	g.tap, g.feed = 0, rngLen-rngTap
	s %= lcgMod
	if s < 0 {
		s += lcgMod
	}
	if s == 0 {
		s = zeroSeed
	}
	for i := range g.vec {
		g.vec[i] = lcgWord(uint64(s), i) ^ rngCooked[i]
	}
}

// Float64 returns the next value of the stream, in [0, 1).
func (g *waveRNG) Float64() float64 {
	for {
		g.tap--
		if g.tap < 0 {
			g.tap += rngLen
		}
		g.feed--
		if g.feed < 0 {
			g.feed += rngLen
		}
		x := g.vec[g.feed] + g.vec[g.tap]
		g.vec[g.feed] = x
		if f := float64(x&(1<<63-1)) / (1 << 63); f < 1 {
			return f
		}
	}
}
