package paillier

import (
	"fmt"
	"math/big"
)

// Fixed-base comb exponentiation (Lim–Lee, CRYPTO '94 family). When the same
// base is exponentiated over and over — the pool's blinding base hⁿ, a
// re-randomization generator — the squaring chain of a generic square-and-
// multiply is pure waste: every power of the base is known ahead of time.
// FixedBase precomputes base^(d·2^(i·w)) for every window position i and
// digit d, after which base^e costs only one multiplication per non-zero
// w-bit digit of e (~bits/w multiplications, no squarings at all). For the
// pool's 400-bit short exponents at w = 8 that is ~50 multiplications versus
// the ~500 squaring-equivalents of big.Int.Exp — a 5–8× refill speedup on
// top of the short-exponent win.
//
// The table is sized adaptively: the widest w whose table fits the byte
// budget, so callers trade memory for speed with one knob.

// DefaultFixedBaseBudget caps one FixedBase table at 16 MiB — enough for
// w = 8 over a 400-bit exponent at a 2048-bit modulus (~6.5 MiB) while
// keeping a handful of tables affordable in one process.
const DefaultFixedBaseBudget = 16 << 20

// FixedBase holds comb tables for one constant base modulo one modulus.
// The tables live in one limb slab in Montgomery form (mont.go), and Exp
// multiplies in that form. It is immutable after construction and safe for
// concurrent Exp calls.
type FixedBase struct {
	mc   *mont
	base *big.Int // base mod m, for exponents wider than the tables
	w    uint
	bits int        // max exponent bit length the table covers
	tabs []big.Word // entry (i, d) = base^(d·2^(i·w))·R mod m at ((i·(2^w−1))+d−1)·n, d = 1..2^w−1
}

// fixedBaseWindow picks the widest window whose comb table for maxBits-bit
// exponents fits the byte budget, clamped to [1, 8]. Wider windows shrink
// the per-Exp multiplication count (~maxBits/w) but grow the table
// exponentially (⌈maxBits/w⌉·(2^w−1) residues).
func fixedBaseWindow(maxBits int, m *big.Int, budget int64) uint {
	if budget <= 0 {
		budget = DefaultFixedBaseBudget
	}
	eb := int64(montLimbs(m)) * wordBytes
	for w := uint(8); w > 1; w-- {
		wins := int64((maxBits + int(w) - 1) / int(w))
		if wins*int64((1<<w)-1)*eb <= budget {
			return w
		}
	}
	return 1
}

// NewFixedBase precomputes comb tables for base mod m covering exponents up
// to maxBits bits. budget caps the table memory in bytes (<= 0 selects
// DefaultFixedBaseBudget); the window width adapts to it. Construction costs
// ~maxBits squarings plus ⌈maxBits/w⌉·(2^w−2) multiplications mod m — a
// one-time cost amortized across every later Exp. m must be odd (Montgomery
// form); an even modulus panics.
func NewFixedBase(base, m *big.Int, maxBits int, budget int64) *FixedBase {
	if maxBits < 1 {
		panic(fmt.Sprintf("paillier: NewFixedBase maxBits %d < 1", maxBits))
	}
	mc := newMont(m, "NewFixedBase")
	w := fixedBaseWindow(maxBits, m, budget)
	wins := (maxBits + int(w) - 1) / int(w)
	n := mc.limbs()
	per := ((1 << w) - 1) * n
	f := &FixedBase{mc: mc, base: new(big.Int).Mod(base, m), w: w, bits: maxBits,
		tabs: make([]big.Word, wins*per)}
	scratch := make([]big.Word, mc.scratchWords())
	cur := make([]big.Word, n) // base^(2^(i·w)), advanced per window
	mc.to(cur, f.base, scratch)
	for i := 0; i < wins; i++ {
		tab := f.tabs[i*per : (i+1)*per]
		copy(tab[:n], cur)
		mc.powers(tab, scratch)
		if i+1 < wins {
			for s := uint(0); s < w; s++ {
				mc.mul(cur, cur, cur, scratch)
			}
		}
	}
	return f
}

// Window reports the comb window width the byte budget selected.
func (f *FixedBase) Window() uint { return f.w }

// Bits reports the largest exponent bit length the table covers.
func (f *FixedBase) Bits() int { return f.bits }

// Bytes reports the table's memory footprint: the length of the limb slab.
func (f *FixedBase) Bytes() int64 { return int64(len(f.tabs)) * wordBytes }

// Exp returns base^e mod m using the comb tables: one table lookup and
// multiplication per non-zero w-bit digit of e, no squarings. e must be
// non-negative; exponents wider than the table's coverage fall back to
// big.Int.Exp so the result is always exact.
func (f *FixedBase) Exp(e *big.Int) *big.Int {
	if e.Sign() < 0 {
		panic("paillier: FixedBase.Exp negative exponent")
	}
	if e.BitLen() > f.bits {
		return new(big.Int).Exp(f.base, e, f.mc.mod)
	}
	n := f.mc.limbs()
	per := ((1 << f.w) - 1) * n
	buf := make([]big.Word, n+f.mc.scratchWords())
	acc, scratch := buf[:n], buf[n:]
	have := false
	for i := 0; i*per < len(f.tabs); i++ {
		d := windowDigit(e, i*int(f.w), f.w)
		if d == 0 {
			continue
		}
		ent := f.tabs[i*per+int(d-1)*n:][:n]
		if have {
			f.mc.mul(acc, acc, ent, scratch)
		} else {
			copy(acc, ent)
			have = true
		}
	}
	if !have {
		return big.NewInt(1) // e == 0
	}
	return f.mc.from(acc, scratch)
}
