package sim

import "math/rand"

// rand.NewSource is the additive lagged-Fibonacci generator (607, 273):
// draw k returns vec[334-k] + vec[607-k] (indices mod 607) and stores the
// sum at vec[334-k]. The register is seeded by 1 841 steps of the LCG
// x -> 48271·x mod 2³¹-1, three per entry after 20 of warm-up, each entry
// XORed with a fixed constant.
const (
	rngLen = 607
	rngTap = 273
	rngMod = 1<<31 - 1
	rngA   = 48271
)

// rngTab[i] is what initial register entry i needs besides the seed: the
// LCG jumped ahead to the entry's first step, 48271^(21+3i), and the
// entry's constant. Written by init, read-only afterwards.
var rngTab [rngLen]struct{ jump, cooked uint64 }

// initialEntry is register entry i right after Seed(s), s already
// normalised: three consecutive LCG states packed at bits 40, 20 and 0.
func initialEntry(i int, s uint64) uint64 {
	e := &rngTab[i]
	x1 := e.jump * s % rngMod
	x2 := rngA * x1 % rngMod
	x3 := rngA * x2 % rngMod
	return x1<<40 ^ x2<<20 ^ x3 ^ e.cooked
}

// init builds rngTab. math/rand does not export its 607 constants, but
// they fall out of outputs o[1..607] of one reference stream (seed 1): from
// draw 274 on the tap operand is the output of 273 draws earlier, so
// o[k] - o[k-273] is the initial entry at draw k's feed index (entries
// 0..60 and 334..606); draws 1..273, feed + tap both still initial, give
// the rest. XORing out seed 1's LCG part leaves the constant.
func init() {
	j := uint64(1)
	for n := 0; n < 21; n++ {
		j = j * rngA % rngMod
	}
	for i := range rngTab {
		rngTab[i].jump = j
		j = j * rngA % rngMod * rngA % rngMod * rngA % rngMod
	}
	ref := rand.NewSource(1).(rand.Source64)
	var o [rngLen + 1]uint64
	for k := 1; k <= rngLen; k++ {
		o[k] = ref.Uint64()
	}
	var v [rngLen]uint64
	for k := rngTap + 1; k <= rngLen; k++ {
		v[(2*rngLen-rngTap-k)%rngLen] = o[k] - o[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[rngLen-rngTap-k] = o[k] - v[rngLen-k]
	}
	for i := range rngTab {
		rngTab[i].cooked = v[i] ^ initialEntry(i, 1)
	}
}

// lazySource is a rand.Source64 whose stream is bit-identical to
// rand.NewSource(seed) but which seeds no register until it has to. For
// the first 273 draws both operands are still initial entries, closed
// forms of the seed, so the only state is the seed and a draw count. Draw
// 274 reads back draw 1's sum: there the stream seeds the real source,
// skips what it has already produced and delegates from then on. It lives
// by value in its clock.
type lazySource struct {
	s    uint32        // seed as rngSource.Seed normalises it, never 0
	k    uint16        // draws served from the closed form, <= rngTap
	full rand.Source64 // the seeded register, from draw 274 on
}

func (l *lazySource) Seed(seed int64) {
	seed %= rngMod
	if seed < 0 {
		seed += rngMod
	}
	if seed == 0 {
		seed = 89482311
	}
	*l = lazySource{s: uint32(seed)}
}

func (l *lazySource) Int63() int64 { return int64(l.Uint64() &^ (1 << 63)) }

func (l *lazySource) Uint64() uint64 {
	if l.full == nil {
		if l.k < rngTap {
			l.k++
			k, s := int(l.k), uint64(l.s)
			return initialEntry(rngLen-rngTap-k, s) + initialEntry(rngLen-k, s)
		}
		l.full = rand.NewSource(int64(l.s)).(rand.Source64)
		for i := 0; i < rngTap; i++ {
			l.full.Uint64()
		}
	}
	return l.full.Uint64()
}
