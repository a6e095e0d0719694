// Package paillier implements the Paillier additively homomorphic
// cryptosystem (Paillier, EUROCRYPT '99) as used by BlindFL's federated
// source layers. It supports:
//
//	Enc(v)             — encryption under a public key
//	Dec(⟦v⟧)           — decryption with the secret key (CRT-accelerated)
//	⟦u⟧ + ⟦v⟧ = ⟦u+v⟧  — homomorphic addition (AddCipher)
//	⟦u⟧ + v  = ⟦u+v⟧   — plaintext addition (AddPlain)
//	k·⟦v⟧    = ⟦k·v⟧   — scalar multiplication (MulPlain)
//
// Plaintexts are elements of Z_n; callers encode signed fixed-point values
// via the fixedpoint package.
//
// DecryptSigned is the bulk decryption of those values: it returns the
// signed plaintext (values above n/2 negative) given a bound |v| < 2^bits
// the caller's layout guarantees. Any |v| < p/2 is determined by its residue
// mod the prime factor p, so when bits ≤ p.BitLen()−2 it runs only the p
// half of the CRT decryption — one exponentiation mod p² instead of two plus
// the recombination, about half the cost. Wider bounds fall back to Decrypt,
// which stays the full CRT reference path. The implementation uses g = n+1, so encryption
// costs one n-bit exponentiation (the random blinding r^n) plus two
// multiplications.
//
// On top of the textbook operations the package provides a fast
// exponentiation engine (signed.go) for the homomorphic matmul hot paths:
//
//	MulPlainSigned — scalar multiplication by a signed-magnitude scalar,
//	  exponentiating by the small magnitude and inverting once mod n²
//	  instead of exponentiating by the full-width ring image n−|k|;
//	DotRow / DotTables — Straus interleaved multi-exponentiation computing
//	  an encrypted dot product Π cᵢ^{kᵢ} with one shared squaring chain,
//	  per-base window tables, and a single inversion for all negative
//	  factors;
//	Pool + WithShortExp — precomputed encryption blindings, optionally
//	  drawn as (h^n)^α for a short random α in the style of
//	  Damgård–Jurik–Nielsen, replacing the full n-bit refill
//	  exponentiation with a ~400-bit one.
//
// and an amortized precomputation runtime (fixedbase.go, crt.go) that turns
// one-time work into per-op savings:
//
//	FixedBase — Lim–Lee comb tables for a constant base (the pool's hⁿ):
//	  after a one-time table build, base^e costs ~bits/8 multiplications
//	  with no squarings. Short-exp pool refills use it by default
//	  (WithFixedBase ablates it).
//	SecretOps — the key holder's CRT fast paths: ExpCRT (exponentiate mod
//	  p² and q² separately, exponents reduced modulo the subgroup orders,
//	  recombine), an adaptive MulPlain (CRT-split for short scalars,
//	  decrypt–scale–re-blind for full-width ring images), and dual-chain
//	  Straus tables in PrecomputeDot/DotRow. Obtain with sk.Ops();
//	  RegisterSecretOps routes the public entry points through it for keys
//	  this process holds — a single-trust-domain optimization (see crt.go).
//
// The Straus tables and the comb tables multiply on one Montgomery core
// (mont.go) for the odd moduli N², p² and q². Each table build converts its
// residues into Montgomery form once, into one contiguous limb slab, and
// each result converts back once; every product in between is a CIOS
// multiply-and-reduce with no long division. The rows of that loop run on
// math/big's assembly addMulVVW, reached by a go:linkname pull that
// math/big explicitly permits, because the same loop written over
// math/bits in pure Go is slower than the big.Int.Mul+Mod it replaces.
// Products are fully reduced, so the kernels return exactly the integers
// Mul+Mod would. Encrypt, Decrypt, DecryptSigned, ExpCRT and the textbook
// ablation stay on big.Int.Exp, which already reduces in Montgomery form in
// assembly.
package paillier

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"sync"
)

var one = big.NewInt(1)

// PublicKey holds the encryption key. N is the modulus; ciphertexts live in
// Z_{N²}.
type PublicKey struct {
	N  *big.Int
	N2 *big.Int // N², cached
}

// fingerprint returns a cheap 64-bit identity for the modulus, used to key
// the process-wide pool and SecretOps registries. Mixing the lowest and
// highest limbs with the bit length is O(1) — unlike the previous
// N.String() key, which performed an O(n²) binary→decimal conversion of a
// 2048-bit modulus on every registry lookup. Lookups confirm the full
// modulus value on a hit, so a collision can only cost the fast path, never
// correctness.
func (pk *PublicKey) fingerprint() uint64 {
	ws := pk.N.Bits()
	if len(ws) == 0 {
		return 0
	}
	return uint64(ws[0]) ^ uint64(ws[len(ws)-1])<<1 ^ uint64(pk.N.BitLen())
}

// PrivateKey holds the decryption key together with the CRT parameters that
// make Dec roughly 3× faster than the textbook formula.
type PrivateKey struct {
	PublicKey
	p, q   *big.Int // prime factors of N
	p2, q2 *big.Int // p², q²
	pOrder *big.Int // p−1
	qOrder *big.Int // q−1
	hp, hq *big.Int // CRT decryption constants
	qInvP  *big.Int // q⁻¹ mod p

	lambda *big.Int // lcm(p−1, q−1), cached for DecryptTextbook
	mu     *big.Int // L(g^λ mod N²)⁻¹ mod N, cached for DecryptTextbook

	opsOnce sync.Once
	ops     *SecretOps // CRT fast-path handle, built once by Ops()
}

// Ciphertext is an element of Z_{N²} encrypting one plaintext.
type Ciphertext struct {
	C *big.Int
}

// GenerateKey creates a key pair with an n-bit modulus using randomness from
// random (crypto/rand.Reader in production). Bits must be at least 128; real
// deployments use 2048, the test suite uses smaller keys for speed.
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	if bits < 128 {
		return nil, fmt.Errorf("paillier: key size %d too small (min 128)", bits)
	}
	for {
		p, err := rand.Prime(random, bits/2)
		if err != nil {
			return nil, err
		}
		q, err := rand.Prime(random, bits-bits/2)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		// gcd(pq, (p-1)(q-1)) must be 1; guaranteed when p, q are distinct
		// primes of equal size, but verify to be safe.
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		phi := new(big.Int).Mul(pm1, qm1)
		if new(big.Int).GCD(nil, nil, n, phi).Cmp(one) != 0 {
			continue
		}
		priv := &PrivateKey{
			PublicKey: PublicKey{N: n, N2: new(big.Int).Mul(n, n)},
			p:         p, q: q,
			p2:     new(big.Int).Mul(p, p),
			q2:     new(big.Int).Mul(q, q),
			pOrder: pm1,
			qOrder: qm1,
		}
		// hp = L_p(g^(p−1) mod p²)⁻¹ mod p with g = n+1:
		// g^(p−1) mod p² = 1 + (p−1)·n mod p², so L_p of it is ((p−1)·n/p... )
		// Compute directly for clarity.
		gp := new(big.Int).Exp(new(big.Int).Add(n, one), pm1, priv.p2)
		priv.hp = new(big.Int).ModInverse(lFunc(gp, p), p)
		gq := new(big.Int).Exp(new(big.Int).Add(n, one), qm1, priv.q2)
		priv.hq = new(big.Int).ModInverse(lFunc(gq, q), q)
		if priv.hp == nil || priv.hq == nil {
			continue
		}
		priv.qInvP = new(big.Int).ModInverse(q, p)
		if priv.qInvP == nil {
			continue
		}
		// Cache λ = lcm(p−1, q−1) and µ = L(g^λ mod N²)⁻¹ mod N at keygen so
		// DecryptTextbook measures only the decryption exponentiation.
		priv.lambda = new(big.Int).Mul(pm1, qm1)
		priv.lambda.Div(priv.lambda, new(big.Int).GCD(nil, nil, pm1, qm1))
		gl := new(big.Int).Exp(new(big.Int).Add(n, one), priv.lambda, priv.N2)
		priv.mu = new(big.Int).ModInverse(lFunc(gl, n), n)
		if priv.mu == nil {
			continue
		}
		return priv, nil
	}
}

// lFunc computes L(x) = (x−1)/d.
func lFunc(x, d *big.Int) *big.Int {
	r := new(big.Int).Sub(x, one)
	return r.Div(r, d)
}

// Encrypt encrypts m ∈ Z_N under pk: c = (1 + m·N)·r^N mod N².
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int) (*Ciphertext, error) {
	if m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		return nil, fmt.Errorf("paillier: plaintext out of Z_N range")
	}
	r, err := randUnit(random, pk.N)
	if err != nil {
		return nil, err
	}
	// g^m = (1+N)^m = 1 + m·N (mod N²).
	gm := new(big.Int).Mul(m, pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, pk.N2)
	var rn *big.Int
	if so := SecretOpsFor(pk); so != nil {
		rn = so.ExpCRT(r, pk.N) // own-key encryption: CRT-split blinding
	} else {
		rn = new(big.Int).Exp(r, pk.N, pk.N2)
	}
	c := gm.Mul(gm, rn)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}, nil
}

// randUnit draws r uniformly from Z_N^* (gcd(r, N) = 1).
func randUnit(random io.Reader, n *big.Int) (*big.Int, error) {
	for {
		r, err := rand.Int(random, n)
		if err != nil {
			return nil, err
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, n).Cmp(one) == 0 {
			return r, nil
		}
	}
}

// Decrypt recovers the plaintext of c using CRT: decrypt modulo p and q
// separately, then recombine.
func (sk *PrivateKey) Decrypt(c *Ciphertext) *big.Int {
	mp := decryptMod(c, sk.p, sk.p2, sk.pOrder, sk.hp)
	mq := decryptMod(c, sk.q, sk.q2, sk.qOrder, sk.hq)
	// CRT combine: m = mq + q·((mp − mq)·qInvP mod p)
	d := new(big.Int).Sub(mp, mq)
	d.Mul(d, sk.qInvP)
	d.Mod(d, sk.p)
	m := d.Mul(d, sk.q)
	m.Add(m, mq)
	m.Mod(m, sk.N)
	return m
}

// decryptMod returns the plaintext of c modulo one prime factor r of N:
// L_r(c^(r−1) mod r²)·h mod r, one exponentiation mod r².
func decryptMod(c *Ciphertext, r, r2, order, h *big.Int) *big.Int {
	cr := new(big.Int).Exp(c.C, order, r2)
	m := lFunc(cr, r)
	m.Mul(m, h)
	return m.Mod(m, r)
}

// DecryptSigned returns the plaintext of c as a signed integer, taking
// values above N/2 as negative (fixedpoint.FromRing of Decrypt), for a
// caller that knows |m| < 2^bits. When bits ≤ p.BitLen()−2 the plaintext is
// below p/2 in magnitude, so its residue mod p alone determines it: one
// exponentiation mod p², centred into (−p/2, p/2), replaces the two of the
// CRT decryption and the recombination. Wider bounds take Decrypt. The
// bound is the caller's promise and is not checked: the p-only result is
// still exact for any |m| < p/2, but a plaintext beyond that decrypts to
// its centred residue mod p, not to what Decrypt returns, so a comparison
// against Decrypt (the protocol's integrity spot-check) exposes it.
func (sk *PrivateKey) DecryptSigned(c *Ciphertext, bits int) *big.Int {
	var m, r *big.Int
	if bits <= sk.p.BitLen()-2 {
		m, r = decryptMod(c, sk.p, sk.p2, sk.pOrder, sk.hp), sk.p
	} else {
		m, r = sk.Decrypt(c), sk.N
	}
	if m.Cmp(new(big.Int).Rsh(r, 1)) > 0 {
		m.Sub(m, r)
	}
	return m
}

// DecryptTextbook recovers the plaintext with the textbook formula
// m = L(c^λ mod N²)·µ mod N, without the CRT split. λ and µ are computed
// once at keygen, so this measures only the decryption exponentiation. It
// exists for the decryption ablation benchmark; Decrypt is ~3–4× faster and
// functionally identical.
func (sk *PrivateKey) DecryptTextbook(c *Ciphertext) *big.Int {
	cl := new(big.Int).Exp(c.C, sk.lambda, sk.N2)
	m := lFunc(cl, sk.N)
	m.Mul(m, sk.mu)
	return m.Mod(m, sk.N)
}

// AddCipher returns ⟦a+b⟧ given ⟦a⟧ and ⟦b⟧ under the same key.
func (pk *PublicKey) AddCipher(a, b *Ciphertext) *Ciphertext {
	c := new(big.Int).Mul(a.C, b.C)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}
}

// AddPlain returns ⟦a+m⟧ given ⟦a⟧ and a plaintext m ∈ Z_N, without a fresh
// encryption: ⟦a⟧·g^m = ⟦a⟧·(1+m·N) mod N². Panics with a clear message on
// a corrupted (nil-valued) ciphertext instead of returning one that fails
// later inside big.Int.
func (pk *PublicKey) AddPlain(a *Ciphertext, m *big.Int) *Ciphertext {
	if a == nil || a.C == nil {
		panic("paillier: AddPlain on corrupted ciphertext (nil value)")
	}
	gm := new(big.Int).Mul(new(big.Int).Mod(m, pk.N), pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, pk.N2)
	c := gm.Mul(gm, a.C)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}
}

// MulPlain returns ⟦k·a⟧ given ⟦a⟧ and a plaintext scalar k (may be
// negative; it is reduced into Z_N). When a SecretOps is registered for pk
// (the caller's process holds the key) the CRT fast path is taken; its
// result decrypts identically but is a different group element for
// full-width scalars (see SecretOps.MulPlain).
func (pk *PublicKey) MulPlain(a *Ciphertext, k *big.Int) *Ciphertext {
	if so := SecretOpsFor(pk); so != nil {
		return so.MulPlain(a, k)
	}
	kk := new(big.Int).Mod(k, pk.N)
	return &Ciphertext{C: new(big.Int).Exp(a.C, kk, pk.N2)}
}

// Neg returns ⟦−a⟧ by inverting the ciphertext mod N². A valid ciphertext is
// always invertible; Neg panics with a clear message when handed a corrupted
// one (a value sharing a factor with N) instead of returning a ciphertext
// wrapping nil that fails later inside big.Int.
func (pk *PublicKey) Neg(a *Ciphertext) *Ciphertext {
	if a == nil || a.C == nil {
		panic("paillier: Neg on corrupted ciphertext (nil value)")
	}
	return &Ciphertext{C: mustInverse(a.C, pk.N2, "Neg")}
}

// EncryptZero returns a fresh encryption of zero (useful for re-randomizing).
func (pk *PublicKey) EncryptZero(random io.Reader) (*Ciphertext, error) {
	return pk.Encrypt(random, big.NewInt(0))
}

// Rand is the default randomness source for the package.
var Rand = rand.Reader
