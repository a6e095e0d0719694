package paillier

import (
	"fmt"
	"math/big"
)

// Fast exponentiation engine. BlindFL's homomorphic matmuls spend nearly all
// their CPU in MulPlain = Exp(c, k mod N, N²). Two structural facts make the
// textbook call wasteful:
//
//  1. Scalars are signed fixed-point encodings whose magnitude needs only
//     ~F+log₂|v| bits (~45 for the default codec), but the ring image of a
//     negative value is N−|k| — a full-width exponent. MulPlainSigned
//     exponentiates by the small magnitude and inverts once mod N², turning
//     half the workload from 2048-bit exponentiations into ~45-bit ones.
//  2. Every matmul output cell is a dot product Π cᵢ^{kᵢ}. Exponentiating
//     each factor separately repeats the squaring chain per base; DotRow uses
//     Straus' interleaved multi-exponentiation (a.k.a. Shamir's trick) with
//     per-base window tables, sharing one squaring chain across the whole
//     row and batching all negative factors into a single inversion.
//
// DotTables additionally lets callers reuse the window tables when the same
// bases are exponentiated by many different scalar vectors (each batch row of
// a dense matmul hits the same weight column), amortizing table construction.

// SignedExp is a scalar exponent in signed-magnitude form: the represented
// value is −Mag when Neg, else Mag. A nil or zero Mag means zero (Neg is
// ignored). Mag must be non-negative.
type SignedExp struct {
	Mag *big.Int
	Neg bool
}

// IsZero reports whether the exponent is zero.
func (e SignedExp) IsZero() bool { return e.Mag == nil || e.Mag.Sign() == 0 }

// mustInverse inverts x mod m, panicking with a clear message when x is not
// invertible. A ciphertext that shares a factor with N² is either corrupted
// or reveals a factor of N; continuing with a nil big.Int would surface much
// later as an opaque nil dereference, so fail loudly at the source instead.
func mustInverse(x, m *big.Int, op string) *big.Int {
	inv := new(big.Int).ModInverse(x, m)
	if inv == nil {
		panic(fmt.Sprintf("paillier: %s: ciphertext not invertible mod N² (corrupted ciphertext or wrong key)", op))
	}
	return inv
}

// MulPlainSigned returns ⟦±mag·a⟧ (negated when neg): the signed fast path of
// MulPlain. It exponentiates by the small magnitude and inverts once mod N²
// instead of exponentiating by the full-width ring image N−mag. The returned
// ciphertext decrypts identically to MulPlain(a, ±mag) (the group elements
// differ, the plaintexts agree). Panics like Neg if a is not invertible and
// the scalar is negative.
func (pk *PublicKey) MulPlainSigned(a *Ciphertext, mag *big.Int, neg bool) *Ciphertext {
	if mag == nil || mag.Sign() == 0 {
		return &Ciphertext{C: big.NewInt(1)}
	}
	if mag.Sign() < 0 {
		panic("paillier: MulPlainSigned magnitude must be non-negative")
	}
	if a == nil || a.C == nil {
		panic("paillier: MulPlainSigned on corrupted ciphertext (nil value)")
	}
	var c *big.Int
	if so := SecretOpsFor(pk); so != nil {
		c = so.ExpCRT(a.C, mag) // secret-key side: two half-width chains
	} else {
		c = new(big.Int).Exp(a.C, mag, pk.N2)
	}
	if neg {
		c = mustInverse(c, pk.N2, "MulPlainSigned")
	}
	return &Ciphertext{C: c}
}

// DotWindow picks a Straus window width for exponents of the given bit
// length. reuse is how many exponent vectors will be evaluated against the
// same tables (PrecomputeDot callers); higher reuse amortizes the per-base
// table cost (2^w−2 multiplications) and favors a wider window.
func DotWindow(bits, reuse int) uint {
	var w uint
	switch {
	case bits <= 4:
		w = 1
	case bits <= 16:
		w = 2
	case bits <= 128:
		w = 3
	case bits <= 512:
		w = 4
	default:
		w = 5
	}
	if reuse >= 8 && bits > 16 {
		w++ // table cost amortized: trade table size for fewer window digits
	}
	if w > 6 {
		w = 6
	}
	return w
}

// windowDigit extracts bits [off, off+w) of x as an integer.
func windowDigit(x *big.Int, off int, w uint) uint {
	var d uint
	for j := int(w) - 1; j >= 0; j-- {
		d = d<<1 | x.Bit(off+j)
	}
	return d
}

// MaxDotWindow bounds the Straus/cache window width: 2^10−1 table entries
// per base is the widest layout the persistent table cache ever pays for.
const MaxDotWindow = 10

// DotTables holds per-base window tables for Straus multi-exponentiation
// over a fixed slice of ciphertext bases (one weight-matrix column, say).
// Build once with PrecomputeDot, evaluate with Dot for each exponent vector.
// Every table entry is stored in Montgomery form (mont.go) in one contiguous
// limb slab, and the chains multiply in that form.
//
// When a SecretOps is registered for the key at build time, the tables are
// built modulo p² and q² instead of N² and Dot runs two half-width squaring
// chains recombined once per evaluation — the CRT split for decrypt-adjacent
// matmuls. The recombined result is bit-identical to the public-path Dot.
type DotTables struct {
	w      uint
	bases  int
	so     *SecretOps // non-nil selects the CRT dual-chain mode
	halves []dotHalf  // one chain mod N², or two mod p² and q² (CRT mode)
	slab   []big.Word // backing store of every half's tables
}

// dotHalf is the window tables of one chain modulus. Entry d (1..2^w−1) of
// base i, cs[i]^d·R mod m, sits at tab[(i·(2^w−1)+d−1)·n:][:n].
type dotHalf struct {
	mc  *mont
	tab []big.Word
}

// Window reports the table's Straus window width.
func (t *DotTables) Window() uint { return t.w }

// Bytes reports the tables' memory footprint: the length of the limb slab.
func (t *DotTables) Bytes() int64 { return int64(len(t.slab)) * wordBytes }

// dotModuli lists the chain moduli PrecomputeDot builds tables for under pk:
// N², or p² and q² when a SecretOps is registered.
func dotModuli(pk *PublicKey) (*SecretOps, []*big.Int) {
	if so := SecretOpsFor(pk); so != nil {
		return so, []*big.Int{so.sk.p2, so.sk.q2}
	}
	return nil, []*big.Int{pk.N2}
}

// DotTablesBytes reports the exact Bytes of the tables PrecomputeDot would
// build for the given number of bases and window width under pk's current
// SecretOps registration, so callers can size caches before building.
func (pk *PublicKey) DotTablesBytes(bases int, w uint) int64 {
	_, mods := dotModuli(pk)
	limbs := 0
	for _, m := range mods {
		limbs += montLimbs(m)
	}
	return int64(bases) * int64((1<<w)-1) * int64(limbs) * wordBytes
}

// precomputeHalf fills h.tab with the width-w power tables of the bases.
func precomputeHalf(cs []*Ciphertext, w uint, h *dotHalf) {
	n := h.mc.limbs()
	per := ((1 << w) - 1) * n
	scratch := make([]big.Word, h.mc.scratchWords())
	for i, c := range cs {
		tab := h.tab[i*per : (i+1)*per]
		h.mc.to(tab[:n], c.C, scratch)
		h.mc.powers(tab, scratch)
	}
}

// PrecomputeDot builds Straus window tables of width w for the given bases.
// The tables hold len(cs)·(2^w−1) residues mod N², so callers choose w via
// dotWindow-style reasoning: wider windows pay off when the tables are reused
// across many Dot calls (the hetensor table cache goes up to MaxDotWindow).
// It panics on a key whose N² is even: Montgomery form needs an odd modulus.
func (pk *PublicKey) PrecomputeDot(cs []*Ciphertext, w uint) *DotTables {
	if w < 1 || w > MaxDotWindow {
		panic(fmt.Sprintf("paillier: PrecomputeDot window %d out of range [1,%d]", w, MaxDotWindow))
	}
	so, mods := dotModuli(pk)
	t := &DotTables{w: w, bases: len(cs), so: so, halves: make([]dotHalf, len(mods))}
	entries := len(cs) * ((1 << w) - 1)
	words := 0
	for i, m := range mods {
		t.halves[i].mc = newMont(m, "PrecomputeDot")
		words += entries * t.halves[i].mc.limbs()
	}
	t.slab = make([]big.Word, words)
	rest := t.slab
	for i := range t.halves {
		h := &t.halves[i]
		size := entries * h.mc.limbs()
		h.tab, rest = rest[:size:size], rest[size:]
		precomputeHalf(cs, w, h)
	}
	return t
}

// Dot computes ⟦Σ kᵢ·mᵢ⟧ = Π cᵢ^{kᵢ} over the precomputed bases with one
// shared squaring chain. es must align with the bases passed to
// PrecomputeDot; zero exponents contribute nothing (so sparse exponent
// vectors are cheap). Negative factors accumulate into a separate
// denominator inverted once at the end.
func (t *DotTables) Dot(es []SignedExp) *Ciphertext {
	if len(es) != t.bases {
		panic(fmt.Sprintf("paillier: Dot over %d exponents for %d bases", len(es), t.bases))
	}
	maxBits := 0
	for i := range es {
		if es[i].IsZero() {
			continue
		}
		if es[i].Mag.Sign() < 0 {
			panic("paillier: Dot exponent magnitude must be non-negative")
		}
		if bl := es[i].Mag.BitLen(); bl > maxBits {
			maxBits = bl
		}
	}
	if maxBits == 0 {
		return &Ciphertext{C: big.NewInt(1)}
	}
	if t.so != nil {
		// CRT dual chain: the shared squaring chain runs twice at half
		// width (≈¼ the per-multiplication cost each), recombined once.
		xp := strausChain(&t.halves[0], es, maxBits, t.w)
		xq := strausChain(&t.halves[1], es, maxBits, t.w)
		return &Ciphertext{C: t.so.combine(xp, xq)}
	}
	return &Ciphertext{C: strausChain(&t.halves[0], es, maxBits, t.w)}
}

// strausChain runs one Straus interleaved chain over the width-w tables of
// one modulus m and returns pos·neg⁻¹ mod m, where pos and neg accumulate
// the positive and negative factors. The accumulators stay in Montgomery
// form in one buffer allocated per call, and each stays unset until its
// first contribution so leading all-zero window columns cost nothing.
func strausChain(h *dotHalf, es []SignedExp, maxBits int, width uint) *big.Int {
	mc := h.mc
	n := mc.limbs()
	w := int(width)
	per := ((1 << width) - 1) * n
	buf := make([]big.Word, 2*n+mc.scratchWords())
	pos, neg, scratch := buf[:n], buf[n:2*n], buf[2*n:]
	var havePos, haveNeg bool
	digits := (maxBits + w - 1) / w
	for d := digits - 1; d >= 0; d-- {
		if havePos || haveNeg {
			for s := 0; s < w; s++ {
				if havePos {
					mc.mul(pos, pos, pos, scratch)
				}
				if haveNeg {
					mc.mul(neg, neg, neg, scratch)
				}
			}
		}
		off := d * w
		for i := range es {
			if es[i].IsZero() {
				continue
			}
			dig := windowDigit(es[i].Mag, off, width)
			if dig == 0 {
				continue
			}
			f := h.tab[i*per+int(dig-1)*n:][:n]
			acc, have := pos, &havePos
			if es[i].Neg {
				acc, have = neg, &haveNeg
			}
			if *have {
				mc.mul(acc, acc, f, scratch)
			} else {
				copy(acc, f)
				*have = true
			}
		}
	}
	// maxBits > 0, so the top digit column set at least one accumulator.
	if !haveNeg {
		return mc.from(pos, scratch)
	}
	inv := mustInverse(mc.from(neg, scratch), mc.mod, "Dot")
	if !havePos {
		return inv
	}
	// pos·R times the plain inverse, reduced once: pos·neg⁻¹ in plain form.
	mc.mul(neg, pos, mc.pad(inv), scratch)
	return new(big.Int).SetBits(append([]big.Word(nil), neg...))
}

// DotRow computes the encrypted dot product ⟦Σ kᵢ·mᵢ⟧ = Π cᵢ^{kᵢ} for one
// row of ciphertexts and signed scalar exponents, using Straus interleaved
// multi-exponentiation: one shared squaring chain across all bases, per-base
// window tables sized to the largest exponent magnitude, and a single
// inversion for all negative factors. It decrypts identically to the
// textbook loop Σ AddCipher(MulPlain(cᵢ, kᵢ)) with signed kᵢ. Zero exponents
// skip their base entirely (no table is built).
func (pk *PublicKey) DotRow(cs []*Ciphertext, es []SignedExp) *Ciphertext {
	if len(cs) != len(es) {
		panic(fmt.Sprintf("paillier: DotRow over %d ciphertexts, %d exponents", len(cs), len(es)))
	}
	maxBits, nz := 0, 0
	for i := range es {
		if es[i].IsZero() {
			continue
		}
		nz++
		if bl := es[i].Mag.BitLen(); bl > maxBits {
			maxBits = bl
		}
	}
	if nz == 0 {
		return &Ciphertext{C: big.NewInt(1)}
	}
	if nz == 1 {
		for i := range es {
			if !es[i].IsZero() {
				return pk.MulPlainSigned(cs[i], es[i].Mag, es[i].Neg)
			}
		}
	}
	// Gather the non-zero factors so tables are only built for live bases.
	liveC := make([]*Ciphertext, 0, nz)
	liveE := make([]SignedExp, 0, nz)
	for i := range es {
		if !es[i].IsZero() {
			liveC = append(liveC, cs[i])
			liveE = append(liveE, es[i])
		}
	}
	t := pk.PrecomputeDot(liveC, DotWindow(maxBits, 1))
	return t.Dot(liveE)
}
