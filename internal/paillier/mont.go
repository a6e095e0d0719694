package paillier

import (
	"fmt"
	"math/big"
	"math/bits"
	_ "unsafe" // for go:linkname
)

// Montgomery core. The Straus dot kernels and the Lim–Lee combs multiply
// residues modulo an odd modulus (N², p² or q²) thousands of times per
// evaluation. big.Int.Mul followed by Mod pays a schoolbook product and a
// long division per step; Montgomery multiplication (CIOS: multiply and
// reduce interleaved row by row) replaces the division with a second
// multiply-add pass. Both passes run on math/big's assembly vector kernel
// addMulVVW, the same loop nat.montgomery drives inside big.Int.Exp; a
// pure-Go math/bits row loop is slower than Mul+Mod itself at 4096 bits, so
// the kernel is pulled in by linkname (math/big marks it as a push linkname,
// go.dev/issue/67401). Values enter Montgomery form once per table entry and
// leave it once per result, and every product is fully reduced, so the
// integers returned are exactly those Mul+Mod would produce.

// addMulVVW computes z += x·y over len(z) == len(x) words and returns the
// carry word.
//
//go:linkname addMulVVW math/big.addMulVVW
//go:noescape
func addMulVVW(z, x []big.Word, y big.Word) (c big.Word)

// wordBytes is the size of one limb in bytes.
const wordBytes = bits.UintSize / 8

// montLimbs reports the limb count of residues modulo m.
func montLimbs(m *big.Int) int { return len(m.Bits()) }

// mont is a Montgomery context for one odd modulus m of n limbs, R = 2^(W·n).
// It is immutable after construction and safe for concurrent use; callers
// supply the scratch space.
type mont struct {
	mod *big.Int
	m   []big.Word // modulus limbs, little-endian, len n
	k0  big.Word   // −m⁻¹ mod 2^W
	rr  []big.Word // R² mod m: to() multiplies by it
	one []big.Word // the plain integer 1: from() multiplies by it
}

// newMont builds the Montgomery context for m. It panics on an even or
// non-positive modulus: Montgomery reduction needs m odd, and every caller
// passes N², p² or q².
func newMont(m *big.Int, op string) *mont {
	if m.Sign() <= 0 || m.Bit(0) == 0 {
		panic(fmt.Sprintf("paillier: %s modulus must be odd and positive (Montgomery form), got %d-bit even or non-positive value", op, m.BitLen()))
	}
	n := montLimbs(m)
	c := &mont{mod: m, m: append([]big.Word(nil), m.Bits()...), one: make([]big.Word, n)}
	c.one[0] = 1
	// Newton's iteration doubles the correct low bits of m[0]⁻¹ per step:
	// m[0] is its own inverse mod 8 (3 bits), so 5 steps reach 96 ≥ 64.
	m0 := c.m[0]
	inv := m0
	for i := 0; i < 5; i++ {
		inv *= 2 - m0*inv
	}
	c.k0 = -inv
	r2 := new(big.Int).Lsh(one, uint(2*n*bits.UintSize))
	c.rr = c.pad(r2.Mod(r2, m))
	return c
}

// limbs reports n, the limb count of every residue in this context.
func (c *mont) limbs() int { return len(c.m) }

// pad returns x (already reduced, 0 ≤ x < m) as exactly n limbs.
func (c *mont) pad(x *big.Int) []big.Word {
	z := make([]big.Word, c.limbs())
	copy(z, x.Bits())
	return z
}

// mul sets z = x·y·R⁻¹ mod m, fully reduced. x and y must be n-limb values
// below m; z may alias either. scratch must hold at least 2n words.
func (c *mont) mul(z, x, y, scratch []big.Word) {
	n := c.limbs()
	t := scratch[:2*n]
	clear(t)
	var carry big.Word
	for i := 0; i < n; i++ {
		c2 := addMulVVW(t[i:n+i], x, y[i])
		c3 := addMulVVW(t[i:n+i], c.m, t[i]*c.k0)
		cx := carry + c2
		cy := cx + c3
		t[n+i] = cy
		if cx < c2 || cy < c3 {
			carry = 1
		} else {
			carry = 0
		}
	}
	// The row sum is below 2m: one conditional subtraction reduces it.
	hi := t[n:]
	if carry != 0 || !lessVV(hi, c.m) {
		var borrow uint
		for i := range hi {
			var d uint
			d, borrow = bits.Sub(uint(hi[i]), uint(c.m[i]), borrow)
			z[i] = big.Word(d)
		}
		return
	}
	copy(z, hi)
}

// powers fills tab, a run of n-limb entries whose first entry holds x, with
// x, x², x³, … in Montgomery form: the window table of one base.
func (c *mont) powers(tab, scratch []big.Word) {
	n := c.limbs()
	for d := n; d < len(tab); d += n {
		c.mul(tab[d:d+n], tab[d-n:d], tab[:n], scratch)
	}
}

// lessVV reports x < y for equal-length limb vectors.
func lessVV(x, y []big.Word) bool {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
}

// to sets z to x·R mod m, the Montgomery form of x. x may be any integer;
// values outside [0, m) are reduced first.
func (c *mont) to(z []big.Word, x *big.Int, scratch []big.Word) {
	if x.Sign() < 0 || x.Cmp(c.mod) >= 0 {
		x = new(big.Int).Mod(x, c.mod)
	}
	xs := scratch[2*c.limbs():]
	clear(xs[:c.limbs()])
	copy(xs, x.Bits())
	c.mul(z, xs[:c.limbs()], c.rr, scratch)
}

// from returns the plain integer x·R⁻¹ mod m for a Montgomery-form x.
func (c *mont) from(x, scratch []big.Word) *big.Int {
	z := make([]big.Word, c.limbs())
	c.mul(z, x, c.one, scratch)
	return new(big.Int).SetBits(z)
}

// scratchWords is the scratch size mul, to and from need: the 2n-word row
// accumulator plus an n-word operand buffer for to.
func (c *mont) scratchWords() int { return 3 * c.limbs() }
