package paillier

import (
	"math/big"
	"math/bits"
	mrand "math/rand"
	"strings"
	"testing"
)

// montModulus turns fuzz bytes into an odd modulus of 1–64 limbs.
func montModulus(raw []byte) *big.Int {
	if len(raw) > 64*wordBytes {
		raw = raw[:64*wordBytes]
	}
	m := new(big.Int).SetBytes(raw)
	return m.SetBit(m, 0, 1)
}

// checkMont cross-checks one Montgomery context against big.Int: to/from
// round trips (including inputs ≥ m on the to path), a product in
// Montgomery form, a product of plain operands (x·y·R⁻¹) and in-place
// squaring through an aliased destination.
func checkMont(t *testing.T, m, x, y *big.Int) {
	t.Helper()
	c := newMont(m, "test")
	n := c.limbs()
	scratch := make([]big.Word, c.scratchWords())
	xr := new(big.Int).Mod(x, m)
	yr := new(big.Int).Mod(y, m)

	xm := make([]big.Word, n)
	ym := make([]big.Word, n)
	c.to(xm, x, scratch)
	c.to(ym, y, scratch)
	if got := c.from(xm, scratch); got.Cmp(xr) != 0 {
		t.Fatalf("%d-limb m: from(to(x)) = %v, want x mod m = %v", n, got, xr)
	}
	zm := make([]big.Word, n)
	c.mul(zm, xm, ym, scratch)
	want := new(big.Int).Mul(xr, yr)
	want.Mod(want, m)
	if got := c.from(zm, scratch); got.Cmp(want) != 0 {
		t.Fatalf("%d-limb m: Montgomery product = %v, want %v", n, got, want)
	}

	// Plain operands: z = x·y·R⁻¹, so z < m and z·R ≡ x·y (mod m).
	z := make([]big.Word, n)
	c.mul(z, c.pad(xr), c.pad(yr), scratch)
	zi := new(big.Int).SetBits(append([]big.Word(nil), z...))
	if zi.Cmp(m) >= 0 {
		t.Fatalf("%d-limb m: product %v not fully reduced", n, zi)
	}
	lhs := new(big.Int).Lsh(zi, uint(n*bits.UintSize))
	lhs.Sub(lhs, new(big.Int).Mul(xr, yr)).Mod(lhs, m)
	if lhs.Sign() != 0 {
		t.Fatalf("%d-limb m: z·R ≢ x·y (mod m)", n)
	}

	c.mul(xm, xm, xm, scratch) // aliased squaring
	want.Mul(xr, xr).Mod(want, m)
	if got := c.from(xm, scratch); got.Cmp(want) != 0 {
		t.Fatalf("%d-limb m: aliased square = %v, want %v", n, got, want)
	}
}

// TestMontMulMatchesBigInt sweeps every limb count 1–64 with random,
// top-bit-set and extreme operands.
func TestMontMulMatchesBigInt(t *testing.T) {
	rng := mrand.New(mrand.NewSource(11))
	for limbs := 1; limbs <= 64; limbs++ {
		bound := new(big.Int).Lsh(one, uint(limbs*bits.UintSize))
		for _, m := range []*big.Int{
			new(big.Int).Sub(bound, one),                      // all ones
			new(big.Int).Add(new(big.Int).Rsh(bound, 1), one), // top bit plus 1
			montModulus(new(big.Int).Rand(rng, bound).Bytes()),
		} {
			mMinus1 := new(big.Int).Sub(m, one)
			for _, xy := range [][2]*big.Int{
				{big.NewInt(0), big.NewInt(0)},
				{mMinus1, mMinus1},
				{new(big.Int).Rand(rng, m), new(big.Int).Rand(rng, m)},
				{new(big.Int).Lsh(m, 3), new(big.Int).Add(m, big.NewInt(5))}, // ≥ m on the to path
			} {
				checkMont(t, m, xy[0], xy[1])
			}
		}
	}
	checkMont(t, big.NewInt(1), big.NewInt(7), big.NewInt(9)) // the trivial ring
}

// FuzzMontMul fuzzes the Montgomery core against big.Int over odd moduli
// of 1–64 limbs; operands up to twice the modulus width exercise the
// reduce-first to path.
func FuzzMontMul(f *testing.F) {
	f.Add([]byte{3}, []byte{2}, []byte{2})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0xff}, []byte{0xfe, 0x01})
	f.Add(append([]byte{0x80}, make([]byte, 511)...), []byte{0x12, 0x34}, append([]byte{0xff}, make([]byte, 600)...))
	f.Fuzz(func(t *testing.T, rawM, rawX, rawY []byte) {
		m := montModulus(rawM)
		limit := 2*len(m.Bytes()) + wordBytes
		if len(rawX) > limit {
			rawX = rawX[:limit]
		}
		if len(rawY) > limit {
			rawY = rawY[:limit]
		}
		checkMont(t, m, new(big.Int).SetBytes(rawX), new(big.Int).SetBytes(rawY))
	})
}

// dotFuzzBases is the fixed base vector FuzzDotTables evaluates against.
const dotFuzzBases = 5

// fuzzExps decodes fuzz bytes into dotFuzzBases signed exponents: per
// exponent, one header byte (sign in the top bit, magnitude length in the
// low four) followed by that many magnitude bytes. Missing bytes mean zero.
func fuzzExps(raw []byte) []SignedExp {
	es := make([]SignedExp, dotFuzzBases)
	for i := range es {
		if len(raw) == 0 {
			break
		}
		h := raw[0]
		raw = raw[1:]
		l := min(int(h&0x0f), len(raw))
		es[i] = SignedExp{Mag: new(big.Int).SetBytes(raw[:l]), Neg: h&0x80 != 0}
		raw = raw[l:]
	}
	return es
}

// FuzzDotTables fuzzes DotTables.Dot in public and CRT mode at every window
// width up to 8 against the product of big.Int.Exp over the positive
// factors times one ModInverse of the negative ones. Both modes must return
// exactly that group element.
func FuzzDotTables(f *testing.F) {
	f.Add([]byte{0x01, 0x05}, uint8(0), false)
	f.Add([]byte{0x81, 0x05, 0x02, 0xff, 0xff}, uint8(3), true)
	f.Add([]byte{0x86, 1, 2, 3, 4, 5, 6, 0x06, 6, 5, 4, 3, 2, 1, 0x00, 0x8f}, uint8(7), false)
	f.Add([]byte{0x80, 0x80, 0x80, 0x81, 0x01}, uint8(1), true)
	k := testKey
	pk := &k.PublicKey
	cs := make([]*Ciphertext, dotFuzzBases)
	for i := range cs {
		c, err := pk.Encrypt(Rand, big.NewInt(int64(1000*i+17)))
		if err != nil {
			f.Fatal(err)
		}
		cs[i] = c
	}
	var public, crt [8]*DotTables
	for w := range public {
		public[w] = pk.PrecomputeDot(cs, uint(w+1))
	}
	RegisterSecretOps(k)
	for w := range crt {
		crt[w] = pk.PrecomputeDot(cs, uint(w+1))
	}
	UnregisterSecretOps(pk)
	f.Fuzz(func(t *testing.T, raw []byte, win uint8, useCRT bool) {
		es := fuzzExps(raw)
		tabs := public[int(win)%len(public)]
		if useCRT {
			tabs = crt[int(win)%len(crt)]
		}
		pos, neg := big.NewInt(1), big.NewInt(1)
		for i, e := range es {
			if e.IsZero() {
				continue
			}
			acc := pos
			if e.Neg {
				acc = neg
			}
			acc.Mul(acc, new(big.Int).Exp(cs[i].C, e.Mag, pk.N2)).Mod(acc, pk.N2)
		}
		want := pos.Mul(pos, new(big.Int).ModInverse(neg, pk.N2))
		want.Mod(want, pk.N2)
		if got := tabs.Dot(es); got.C.Cmp(want) != 0 {
			t.Fatalf("w=%d crt=%v: Dot diverges from Π Exp · ModInverse", tabs.Window(), useCRT)
		}
	})
}

// TestEvenModulusPanics: Montgomery form needs an odd modulus, so both table
// builders must refuse an even one loudly instead of returning garbage.
func TestEvenModulusPanics(t *testing.T) {
	even := new(big.Int).Lsh(big.NewInt(12345), 70)
	expectOdd := func(what string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			msg, _ := r.(string)
			if !strings.Contains(msg, "must be odd") {
				t.Fatalf("%s: panic %v, want a must-be-odd message", what, r)
			}
		}()
		f()
	}
	expectOdd("NewFixedBase", func() { NewFixedBase(big.NewInt(3), even, 16, 0) })
	pk := &PublicKey{N: even, N2: new(big.Int).Mul(even, even)}
	expectOdd("PrecomputeDot", func() { pk.PrecomputeDot([]*Ciphertext{{C: big.NewInt(3)}}, 2) })
}
