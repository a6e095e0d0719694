// Package secureml implements the MPC baseline of the paper's efficiency
// comparison (Table 5): SecureML (Mohassel & Zhang, S&P'17), which
// outsources both features and model as additive secret shares over the
// ring Z_2^64 and multiplies with Beaver matrix triples.
//
// Two triple-generation modes are provided, matching the paper's two
// columns:
//
//   - Paillier-based two-party generation (the "SecureML" column): the
//     cross terms A₀·B₁ and A₁·B₀ are computed under homomorphic
//     encryption, which dominates the per-batch cost;
//   - client-aided generation (the "SecureML (Client-aided)" column): a
//     non-colluding dealer samples the triple in plaintext, so an iteration
//     involves no cryptography at all.
//
// Data outsourcing makes every matrix dense: shares of a sparse matrix must
// hide which entries are zero, so the servers pay for the full
// dimensionality — the effect BlindFL's Table 5 quantifies.
//
// The non-linear activations (which real SecureML evaluates with garbled
// circuits) are outside the scope of the timing comparison — the paper
// explicitly benchmarks "only the time cost of matrix multiplication"; the
// training helper here reconstructs logits for the loss in the clear and is
// used for functional tests only.
package secureml

import (
	"math/big"
	"math/rand"

	"blindfl/internal/fixedpoint"
	"blindfl/internal/paillier"
	"blindfl/internal/parallel"
	"blindfl/internal/tensor"
)

// Codec is SecureML's fixed-point codec: 13 fractional bits, as in the
// original paper, leaving headroom for one multiplication in Z_2^64.
var Codec = fixedpoint.Codec{F: 13}

// ringOffset = 2¹⁹² shifts masked cross-term plaintexts into the positive
// range of Z_N without changing their value mod 2⁶⁴.
var ringOffset = new(big.Int).Lsh(big.NewInt(1), 192)

// Ring is a rows×cols matrix over Z_2^64.
type Ring struct {
	Rows, Cols int
	V          []uint64
}

// NewRing allocates a zeroed ring matrix.
func NewRing(rows, cols int) *Ring {
	return &Ring{Rows: rows, Cols: cols, V: make([]uint64, rows*cols)}
}

// Encode converts a float matrix into the ring at scale 1.
func Encode(d *tensor.Dense) *Ring {
	r := NewRing(d.Rows, d.Cols)
	for i, v := range d.Data {
		r.V[i] = Codec.EncodeU64(v, 1)
	}
	return r
}

// Decode converts a ring matrix back to floats at the given scale.
func Decode(r *Ring, scale uint) *tensor.Dense {
	d := tensor.NewDense(r.Rows, r.Cols)
	for i, v := range r.V {
		d.Data[i] = Codec.DecodeU64(v, scale)
	}
	return d
}

// Add returns r + o.
func (r *Ring) Add(o *Ring) *Ring {
	out := NewRing(r.Rows, r.Cols)
	for i := range r.V {
		out.V[i] = r.V[i] + o.V[i]
	}
	return out
}

// Sub returns r − o.
func (r *Ring) Sub(o *Ring) *Ring {
	out := NewRing(r.Rows, r.Cols)
	for i := range r.V {
		out.V[i] = r.V[i] - o.V[i]
	}
	return out
}

// MatMul returns r·o over the ring.
func (r *Ring) MatMul(o *Ring) *Ring {
	if r.Cols != o.Rows {
		panic("secureml: MatMul dim mismatch")
	}
	out := NewRing(r.Rows, o.Cols)
	parallel.For(r.Rows, func(i int) {
		orow := out.V[i*o.Cols : (i+1)*o.Cols]
		rrow := r.V[i*r.Cols : (i+1)*r.Cols]
		for k, a := range rrow {
			if a == 0 {
				continue
			}
			brow := o.V[k*o.Cols : (k+1)*o.Cols]
			for j, b := range brow {
				orow[j] += a * b
			}
		}
	})
	return out
}

// Transpose returns rᵀ.
func (r *Ring) Transpose() *Ring {
	out := NewRing(r.Cols, r.Rows)
	for i := 0; i < r.Rows; i++ {
		for j := 0; j < r.Cols; j++ {
			out.V[j*r.Rows+i] = r.V[i*r.Cols+j]
		}
	}
	return out
}

// Truncate arithmetically shifts every entry right by F bits, reducing the
// scale by one (SecureML's local-share truncation).
func (r *Ring) Truncate() *Ring {
	out := NewRing(r.Rows, r.Cols)
	for i, v := range r.V {
		out.V[i] = Codec.TruncateU64(v)
	}
	return out
}

// Share splits a ring matrix into two additive shares.
func Share(rng *rand.Rand, r *Ring) (*Ring, *Ring) {
	s0 := NewRing(r.Rows, r.Cols)
	s1 := NewRing(r.Rows, r.Cols)
	for i, v := range r.V {
		s0.V[i] = rng.Uint64()
		s1.V[i] = v - s0.V[i]
	}
	return s0, s1
}

// Reconstruct adds two shares back together.
func Reconstruct(s0, s1 *Ring) *Ring { return s0.Add(s1) }

// Triple is a Beaver matrix triple for the product shape (n×d)·(d×m):
// C = A·B with every matrix additively shared between the two servers.
type Triple struct {
	A0, A1 *Ring // n×d
	B0, B1 *Ring // d×m
	C0, C1 *Ring // n×m
}

// GenTripleDealer generates a triple at a trusted dealer (the client-aided
// mode): pure plaintext sampling and one ring matmul.
func GenTripleDealer(rng *rand.Rand, n, d, m int) *Triple {
	a := NewRing(n, d)
	b := NewRing(d, m)
	for i := range a.V {
		a.V[i] = rng.Uint64()
	}
	for i := range b.V {
		b.V[i] = rng.Uint64()
	}
	c := a.MatMul(b)
	t := &Triple{}
	t.A0, t.A1 = Share(rng, a)
	t.B0, t.B1 = Share(rng, b)
	t.C0, t.C1 = Share(rng, c)
	return t
}

// GenTriplePaillier generates a triple with the two-party HE protocol:
// each server samples its own A_i, B_i; the cross terms A₀·B₁ and A₁·B₀
// are computed homomorphically (server i encrypts its B, the peer
// multiplies by its A and masks). This is the cryptographic cost that makes
// non-aided SecureML slow, and it is executed for real here: d·m
// encryptions plus n·d·m homomorphic multiply-accumulates per cross term.
func GenTriplePaillier(rng *rand.Rand, sk0, sk1 *paillier.PrivateKey, n, d, m int) *Triple {
	t := &Triple{A0: NewRing(n, d), A1: NewRing(n, d), B0: NewRing(d, m), B1: NewRing(d, m)}
	for i := range t.A0.V {
		t.A0.V[i] = rng.Uint64()
		t.A1.V[i] = rng.Uint64()
	}
	for i := range t.B0.V {
		t.B0.V[i] = rng.Uint64()
		t.B1.V[i] = rng.Uint64()
	}
	// C = A·B = A0B0 + A0B1 + A1B0 + A1B1. Local terms stay local; cross
	// terms are secret-shared via HE.
	x01a, x01b := crossTermHE(rng, sk1, t.A0, t.B1) // shares of A0·B1
	x10a, x10b := crossTermHE(rng, sk0, t.A1, t.B0) // shares of A1·B0 (roles swapped)
	t.C0 = t.A0.MatMul(t.B0).Add(x01a).Add(x10b)
	t.C1 = t.A1.MatMul(t.B1).Add(x01b).Add(x10a)
	return t
}

// crossTermHE computes additive shares of A·B where A is held by the
// "multiplier" party and B by the key owner: the owner encrypts B under its
// key, the multiplier homomorphically computes ⟦A·B − R⟧ for a random mask
// R and returns it for decryption. Returns (multiplier's share R, owner's
// share A·B − R).
func crossTermHE(rng *rand.Rand, owner *paillier.PrivateKey, a, b *Ring) (*Ring, *Ring) {
	pk := &owner.PublicKey
	// Owner encrypts every entry of B.
	encB := make([]*paillier.Ciphertext, len(b.V))
	parallel.For(len(b.V), func(i int) {
		c, err := pk.Encrypt(paillier.Rand, new(big.Int).SetUint64(b.V[i]))
		if err != nil {
			panic(err)
		}
		encB[i] = c
	})
	// Multiplier computes ⟦A·B⟧ row by row and masks it. The masks are
	// drawn serially in (i, j) order: rng is not safe for concurrent use,
	// and a fixed draw order keeps the triple a function of the seed.
	n, d, m := a.Rows, a.Cols, b.Cols
	mask := NewRing(n, m)
	for i := range mask.V {
		mask.V[i] = rng.Uint64()
	}
	ownerShare := NewRing(n, m)
	parallel.For(n, func(i int) {
		for j := 0; j < m; j++ {
			acc := &paillier.Ciphertext{C: big.NewInt(1)} // ⟦0⟧
			for k := 0; k < d; k++ {
				aik := a.V[i*d+k]
				if aik == 0 {
					continue
				}
				acc = pk.AddCipher(acc, pk.MulPlain(encB[k*m+j], new(big.Int).SetUint64(aik)))
			}
			r := mask.V[i*m+j]
			// ⟦A·B − r + 2¹⁹²⟧: the 2¹⁹² offset (a multiple of 2⁶⁴, far
			// above any attainable |A·B − r|) keeps the plaintext positive
			// in Z_N so that reducing the decryption mod 2⁶⁴ yields exactly
			// (A·B − r) mod 2⁶⁴.
			off := new(big.Int).Sub(ringOffset, new(big.Int).SetUint64(r))
			masked := pk.AddPlain(acc, off)
			dec := owner.Decrypt(masked)
			ownerShare.V[i*m+j] = dec.Uint64()
		}
	})
	return mask, ownerShare
}

// MatMulBeaver multiplies secret-shared X (n×d, scale 1) by secret-shared
// W (d×m, scale 1) using a triple, returning shares of X·W at scale 2
// (callers truncate). Both servers' computation runs here back to back,
// which is how a two-server deployment behaves on one machine.
func MatMulBeaver(x0, x1, w0, w1 *Ring, t *Triple) (*Ring, *Ring) {
	// Open E = X − A and F = W − B.
	e := x0.Sub(t.A0).Add(x1.Sub(t.A1))
	f := w0.Sub(t.B0).Add(w1.Sub(t.B1))
	// Z_i = i·E·F + E·B_i + A_i·F + C_i.
	ef := e.MatMul(f)
	z0 := e.MatMul(t.B0).Add(t.A0.MatMul(f)).Add(t.C0)
	z1 := ef.Add(e.MatMul(t.B1)).Add(t.A1.MatMul(f)).Add(t.C1)
	return z0, z1
}
