package hetensor

import (
	"fmt"
	"math/big"

	"blindfl/internal/fixedpoint"
	"blindfl/internal/paillier"
	"blindfl/internal/parallel"
	"blindfl/internal/tensor"
)

// Ciphertext packing: one Paillier plaintext is ~512–2048 bits wide while a
// scale-2 fixed-point value uses only ~120, so K consecutive matrix entries
// are packed into the lanes of a single ciphertext (fixedpoint.LaneCodec).
// Every homomorphic operation then touches ~K× fewer ciphertexts: K× fewer
// blinding exponentiations on the encryption paths and K× fewer ciphertext
// multiplications in the plaintext·ciphertext matmuls — the throughput lever
// behind the packed federated source layers.

// PackHeadroom is the integer growth allowance per lane in bits, covering
// HE2SS masks (2^20) and matmul accumulation on top of a scale-2 value.
const PackHeadroom = 43

// packingFor sizes the lane layout for a public key. Keys accepted by
// paillier.GenerateKey (≥128 bits… in practice ≥512 here) always fit at
// least one lane at the default codec, so sizing cannot fail for usable keys.
func packingFor(pk *paillier.PublicKey) fixedpoint.LaneCodec {
	lc, err := fixedpoint.NewLaneCodec(Codec, pk.N.BitLen(), 2, PackHeadroom)
	if err != nil {
		panic(fmt.Sprintf("hetensor: %v", err))
	}
	return lc
}

// WideHeadroom is the per-lane growth allowance of the wide lane layout
// (WideLanes). PackHeadroom covers a data-sized operand times a weight
// share; the Embed-MatMul forward multiplies two secret shares instead — a
// masked embedding share by an encrypted weight share — and both absorb an
// HE2SS mask of magnitude 2^20 every step. Their products outgrew the
// default lanes within two epochs of a 160-row run; the 64 extra bits give
// each share 2^32× more room than that.
const WideHeadroom = PackHeadroom + 64

// WideLanes is the wide lane layout for a public key: fewer, wider lanes.
// At 2048 bits it still holds 10 lanes, and a full group decrypts mod p
// alone.
func WideLanes(pk *paillier.PublicKey) fixedpoint.LaneCodec {
	lc, err := fixedpoint.NewLaneCodec(Codec, pk.N.BitLen(), 2, WideHeadroom)
	if err != nil {
		panic(fmt.Sprintf("hetensor: %v", err))
	}
	return lc
}

// PackedMatrix is a rows×cols matrix of fixed-point values packed K-per-
// ciphertext under PK. Columns are partitioned into blocks of Block columns;
// each block is packed independently into ⌈Block/K⌉ ciphertexts, so
// concatenations of equally-blocked rows (embedding lookups) keep their lane
// alignment. A plain matrix uses Block == Cols.
type PackedMatrix struct {
	Rows, Cols int
	Block      int
	Scale      uint
	W          uint // lane width in bits
	K          int  // lanes per ciphertext
	PK         *paillier.PublicKey
	C          []*paillier.Ciphertext

	// id is the table-cache identity; see CipherMatrix. Unexported: gob
	// drops it and the receiver mints its own.
	id uint64
}

func (m *PackedMatrix) codec() fixedpoint.LaneCodec {
	return fixedpoint.LaneCodec{Codec: Codec, W: m.W, K: m.K}
}

// GroupsPerBlock returns the ciphertexts spanning one block.
func (m *PackedMatrix) GroupsPerBlock() int { return (m.Block + m.K - 1) / m.K }

// GroupsPerRow returns the ciphertexts spanning one row.
func (m *PackedMatrix) GroupsPerRow() int { return (m.Cols / m.Block) * m.GroupsPerBlock() }

// Row returns the ciphertext groups of row i.
func (m *PackedMatrix) Row(i int) []*paillier.Ciphertext {
	g := m.GroupsPerRow()
	return m.C[i*g : (i+1)*g]
}

// RowSlice returns a view of rows [lo, hi) sharing m's ciphertexts and lane
// layout. The chunk unit of the streamed protocol paths.
func (m *PackedMatrix) RowSlice(lo, hi int) *PackedMatrix {
	if lo < 0 || hi < lo || hi > m.Rows {
		panic(fmt.Sprintf("hetensor: packed RowSlice [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	g := m.GroupsPerRow()
	return &PackedMatrix{Rows: hi - lo, Cols: m.Cols, Block: m.Block, Scale: m.Scale, W: m.W, K: m.K,
		PK: m.PK, C: m.C[lo*g : hi*g]}
}

// laneCount returns how many lanes group g (indexed within a row) holds.
func (m *PackedMatrix) laneCount(g int) int {
	gInBlock := g % m.GroupsPerBlock()
	lanes := m.Block - gInBlock*m.K
	if lanes > m.K {
		lanes = m.K
	}
	return lanes
}

// groupCol returns the first logical column covered by group g of a row.
func (m *PackedMatrix) groupCol(g int) int {
	gpb := m.GroupsPerBlock()
	return (g/gpb)*m.Block + (g%gpb)*m.K
}

func (m *PackedMatrix) layoutCheck(o *PackedMatrix, op string) {
	if m.Rows != o.Rows || m.Cols != o.Cols || m.Block != o.Block || m.W != o.W || m.K != o.K {
		panic(fmt.Sprintf("hetensor: %s packed layout mismatch: %d×%d/%d lanes %d×%d vs %d×%d/%d lanes %d×%d",
			op, m.Rows, m.Cols, m.Block, m.K, m.W, o.Rows, o.Cols, o.Block, o.K, o.W))
	}
}

// NewPackedMatrix allocates a packed matrix of unrandomized encryptions of
// zero, the accumulator identity, with the key's default lane layout.
func NewPackedMatrix(pk *paillier.PublicKey, rows, cols, block int, scale uint) *PackedMatrix {
	return newPacked(pk, packingFor(pk), rows, cols, block, scale)
}

// newLike allocates a zero accumulator under m's key and lane layout: each
// kernel result inherits its packed operand's layout, so wide lanes stay
// wide through the products and the HE2SS conversion.
func (m *PackedMatrix) newLike(rows, cols, block int, scale uint) *PackedMatrix {
	return newPacked(m.PK, m.codec(), rows, cols, block, scale)
}

func newPacked(pk *paillier.PublicKey, lc fixedpoint.LaneCodec, rows, cols, block int, scale uint) *PackedMatrix {
	if block <= 0 {
		block = cols
	}
	if cols%block != 0 {
		panic(fmt.Sprintf("hetensor: packed block %d does not divide cols %d", block, cols))
	}
	m := &PackedMatrix{Rows: rows, Cols: cols, Block: block, Scale: scale, W: lc.W, K: lc.K, PK: pk}
	m.C = make([]*paillier.Ciphertext, rows*m.GroupsPerRow())
	for i := range m.C {
		m.C[i] = &paillier.Ciphertext{C: big.NewInt(1)}
	}
	return m
}

// PackEncrypt encrypts a dense matrix with K values per ciphertext
// (Block = Cols). Uses the registered blinding pool for pk when present.
func PackEncrypt(pk *paillier.PublicKey, d *tensor.Dense, scale uint) *PackedMatrix {
	return PackEncryptBlocks(pk, d, scale, d.Cols)
}

// PackEncryptBlocks is PackEncrypt with an explicit block width (columns are
// packed per block so the layout matches block-structured matrices such as
// per-field embedding lookups).
func PackEncryptBlocks(pk *paillier.PublicKey, d *tensor.Dense, scale uint, block int) *PackedMatrix {
	return PackEncryptLanes(pk, d, scale, block, packingFor(pk))
}

// PackEncryptLanes is PackEncryptBlocks with an explicit lane layout (the
// key's default, or WideLanes).
func PackEncryptLanes(pk *paillier.PublicKey, d *tensor.Dense, scale uint, block int, lc fixedpoint.LaneCodec) *PackedMatrix {
	out := newPacked(pk, lc, d.Rows, d.Cols, block, scale)
	gpr := out.GroupsPerRow()
	parallel.For(d.Rows*gpr, func(t int) {
		i, g := t/gpr, t%gpr
		col := out.groupCol(g)
		lanes := out.laneCount(g)
		m := lc.PackRing(d.Row(i)[col:col+lanes], scale, pk.N)
		c, err := paillier.EncryptPooled(pk, m)
		if err != nil {
			panic(fmt.Sprintf("hetensor: pack encrypt: %v", err))
		}
		out.C[t] = c
	})
	out.MintID()
	return out
}

// plainBits bounds the signed plaintext of a ciphertext holding the given
// number of W-bit lanes: every lane magnitude stays below 2^(W−1), so the
// packed sum Σ vᵢ·2^(i·W) stays below 2^(lanes·W), and one bit of slack
// goes on top. It is the bound paillier.PrivateKey.DecryptSigned takes, and
// it picks that call's path: groups narrow enough to sit below p/2 decrypt
// mod p alone.
func plainBits(w uint, lanes int) int { return lanes*int(w) + 1 }

// DecryptPacked decrypts a packed matrix back to float64 at its scale.
func DecryptPacked(sk *paillier.PrivateKey, m *PackedMatrix) *tensor.Dense {
	out := tensor.NewDense(m.Rows, m.Cols)
	lc := m.codec()
	gpr := m.GroupsPerRow()
	parallel.For(len(m.C), func(t int) {
		i, g := t/gpr, t%gpr
		col := m.groupCol(g)
		lanes := m.laneCount(g)
		vals := lc.Unpack(sk.DecryptSigned(m.C[t], plainBits(m.W, lanes)), lanes, m.Scale)
		copy(out.Row(i)[col:col+lanes], vals)
	})
	return out
}

// AddCipher returns the elementwise homomorphic sum m + o for identical
// layouts and scales.
func (m *PackedMatrix) AddCipher(o *PackedMatrix) *PackedMatrix {
	m.layoutCheck(o, "AddCipher")
	if m.Scale != o.Scale {
		panic(fmt.Sprintf("hetensor: packed AddCipher scale mismatch %d vs %d", m.Scale, o.Scale))
	}
	out := &PackedMatrix{Rows: m.Rows, Cols: m.Cols, Block: m.Block, Scale: m.Scale, W: m.W, K: m.K, PK: m.PK,
		C: make([]*paillier.Ciphertext, len(m.C))}
	parallel.For(len(m.C), func(i int) {
		out.C[i] = m.PK.AddCipher(m.C[i], o.C[i])
	})
	return out
}

// SubPlainFresh returns ⟦m − d⟧ using fresh packed encryptions of −d, which
// also re-randomizes every ciphertext: the send half of HE2SS, at 1/K of the
// unpacked blinding cost.
func (m *PackedMatrix) SubPlainFresh(d *tensor.Dense) *PackedMatrix {
	if m.Rows != d.Rows || m.Cols != d.Cols {
		panic("hetensor: packed SubPlainFresh shape mismatch")
	}
	neg := tensor.NewDense(d.Rows, d.Cols)
	for i, v := range d.Data {
		neg.Data[i] = -v
	}
	return m.AddCipher(PackEncryptLanes(m.PK, neg, m.Scale, m.Block, m.codec()))
}

// MulPlainLeftPacked computes ⟦X·W⟧ from plaintext X and packed encrypted W.
// The result keeps W's block layout at scale W.Scale+1; the homomorphic work
// is 1/K of the unpacked MulPlainLeft.
func MulPlainLeftPacked(x *tensor.Dense, w *PackedMatrix) *PackedMatrix {
	if x.Cols != w.Rows {
		panic(fmt.Sprintf("hetensor: MulPlainLeftPacked inner dim mismatch %d×%d · %d×%d", x.Rows, x.Cols, w.Rows, w.Cols))
	}
	out := w.newLike(x.Rows, w.Cols, w.Block, w.Scale+1)
	if TextbookExp() {
		parallel.For(x.Rows, func(i int) {
			orow := out.Row(i)
			xrow := x.Row(i)
			for k, a := range xrow {
				if a == 0 {
					continue
				}
				ea := Codec.Encode(a, 1)
				wrow := w.Row(k)
				for g := range orow {
					orow[g] = w.PK.AddCipher(orow[g], w.PK.MulPlain(wrow[g], ea))
				}
			}
		})
		return out
	}
	exps, maxBits := denseRowExps(x)
	dotProducts(w.PK, tableSource{w.id, orientCol}, func(k, g int) *paillier.Ciphertext { return w.Row(k)[g] },
		x.Cols, w.GroupsPerRow(), exps, maxBits,
		func(i, g int, c *paillier.Ciphertext) { out.Row(i)[g] = c })
	return out
}

// MulPlainLeftCSRPacked is MulPlainLeftPacked for sparse plaintext X.
func MulPlainLeftCSRPacked(x *tensor.CSR, w *PackedMatrix) *PackedMatrix {
	if x.Cols != w.Rows {
		panic(fmt.Sprintf("hetensor: MulPlainLeftCSRPacked inner dim mismatch %d×%d · %d×%d", x.Rows, x.Cols, w.Rows, w.Cols))
	}
	out := w.newLike(x.Rows, w.Cols, w.Block, w.Scale+1)
	if TextbookExp() {
		parallel.For(x.Rows, func(i int) {
			orow := out.Row(i)
			cols, vals := x.RowNNZ(i)
			for t, k := range cols {
				ea := Codec.Encode(vals[t], 1)
				wrow := w.Row(k)
				for g := range orow {
					orow[g] = w.PK.AddCipher(orow[g], w.PK.MulPlain(wrow[g], ea))
				}
			}
		})
		return out
	}
	dotCSRMul(w.PK, x, w.Row, w.GroupsPerRow(), out.Row)
	return out
}

// TransposeMulLeftPacked computes ⟦Xᵀ·G⟧ from plaintext X and packed
// encrypted G — the gradient shape ∇W = Xᵀ⟦∇Z⟧ with packed ∇Z.
func TransposeMulLeftPacked(x *tensor.Dense, g *PackedMatrix) *PackedMatrix {
	out := g.newLike(x.Cols, g.Cols, g.Block, g.Scale+1)
	TransposeMulLeftPackedAcc(out, x, g)
	return out
}

// TransposeMulLeftPackedAcc accumulates ⟦Xᵀ·G⟧ into acc for a row-chunk pair
// (x, g): the packed analogue of TransposeMulLeftAcc, called once per
// received packed derivative chunk on the streamed backward path.
func TransposeMulLeftPackedAcc(acc *PackedMatrix, x *tensor.Dense, g *PackedMatrix) {
	if x.Rows != g.Rows {
		panic(fmt.Sprintf("hetensor: TransposeMulLeftPacked outer dim mismatch %d×%d ᵀ· %d×%d", x.Rows, x.Cols, g.Rows, g.Cols))
	}
	if acc.Rows != x.Cols || acc.Cols != g.Cols || acc.Scale != g.Scale+1 || acc.Block != g.Block {
		panic(fmt.Sprintf("hetensor: TransposeMulLeftPackedAcc accumulator %d×%d/%d@%d, want %d×%d/%d@%d",
			acc.Rows, acc.Cols, acc.Block, acc.Scale, x.Cols, g.Cols, g.Block, g.Scale+1))
	}
	if TextbookExp() {
		parallel.For(x.Cols, func(k int) {
			orow := acc.Row(k)
			for i := 0; i < x.Rows; i++ {
				a := x.At(i, k)
				if a == 0 {
					continue
				}
				ea := Codec.Encode(a, 1)
				grow := g.Row(i)
				for j := range orow {
					orow[j] = g.PK.AddCipher(orow[j], g.PK.MulPlain(grow[j], ea))
				}
			}
		})
		return
	}
	exps, maxBits := denseColExps(x)
	dotProducts(g.PK, tableSource{g.id, orientCol}, func(i, t int) *paillier.Ciphertext { return g.Row(i)[t] },
		x.Rows, g.GroupsPerRow(), exps, maxBits,
		func(k, t int, c *paillier.Ciphertext) {
			orow := acc.Row(k)
			orow[t] = g.PK.AddCipher(orow[t], c)
		})
}

// TransposeMulLeftCSRPacked computes ⟦Xᵀ·G⟧ for sparse X and packed G.
func TransposeMulLeftCSRPacked(x *tensor.CSR, g *PackedMatrix) *PackedMatrix {
	if x.Rows != g.Rows {
		panic(fmt.Sprintf("hetensor: TransposeMulLeftCSRPacked outer dim mismatch %d×%d ᵀ· %d×%d", x.Rows, x.Cols, g.Rows, g.Cols))
	}
	out := g.newLike(x.Cols, g.Cols, g.Block, g.Scale+1)
	TransposeMulLeftCSRPackedAcc(out, x, 0, g)
	return out
}

// TransposeMulLeftCSRPackedAcc accumulates ⟦X[lo:lo+g.Rows]ᵀ·G⟧ into acc for
// a packed derivative row-chunk G: the sparse packed accumulator.
func TransposeMulLeftCSRPackedAcc(acc *PackedMatrix, x *tensor.CSR, lo int, g *PackedMatrix) {
	if lo < 0 || lo+g.Rows > x.Rows {
		panic(fmt.Sprintf("hetensor: TransposeMulLeftCSRPackedAcc chunk [%d,%d) of %d rows", lo, lo+g.Rows, x.Rows))
	}
	if acc.Rows != x.Cols || acc.Cols != g.Cols || acc.Scale != g.Scale+1 || acc.Block != g.Block {
		panic(fmt.Sprintf("hetensor: TransposeMulLeftCSRPackedAcc accumulator %d×%d/%d@%d, want %d×%d/%d@%d",
			acc.Rows, acc.Cols, acc.Block, acc.Scale, x.Cols, g.Cols, g.Block, g.Scale+1))
	}
	if TextbookExp() {
		type nz struct {
			row int
			val float64
		}
		buckets := make([][]nz, x.Cols)
		for i := 0; i < g.Rows; i++ {
			cols, vals := x.RowNNZ(lo + i)
			for t, k := range cols {
				buckets[k] = append(buckets[k], nz{i, vals[t]})
			}
		}
		parallel.For(x.Cols, func(k int) {
			orow := acc.Row(k)
			for _, e := range buckets[k] {
				ea := Codec.Encode(e.val, 1)
				grow := g.Row(e.row)
				for j := range orow {
					orow[j] = g.PK.AddCipher(orow[j], g.PK.MulPlain(grow[j], ea))
				}
			}
		})
		return
	}
	dotCSRTransposeAcc(g.PK, x, lo, g.Rows, g.Row, g.GroupsPerRow(), acc.Row)
}

// LookupPacked gathers rows of a packed encrypted embedding table. The
// result is batch×(fields·dim) with Block = dim, so the per-field lane
// alignment of the table is preserved.
func LookupPacked(q *PackedMatrix, x *tensor.IntMatrix) *PackedMatrix {
	if q.Block != q.Cols {
		panic("hetensor: LookupPacked table must be packed with Block == Cols")
	}
	dim := q.Cols
	gpr := q.GroupsPerRow()
	out := &PackedMatrix{Rows: x.Rows, Cols: x.Cols * dim, Block: dim, Scale: q.Scale, W: q.W, K: q.K, PK: q.PK,
		C: make([]*paillier.Ciphertext, x.Rows*x.Cols*gpr)}
	parallel.For(x.Rows, func(i int) {
		dst := out.Row(i)
		for f, idx := range x.Row(i) {
			if idx < 0 || idx >= q.Rows {
				panic(fmt.Sprintf("hetensor: LookupPacked index %d out of vocab %d", idx, q.Rows))
			}
			copy(dst[f*gpr:(f+1)*gpr], q.Row(idx))
		}
	})
	return out
}

// LookupBackwardPacked scatter-adds packed encrypted derivatives into a
// packed table gradient: the packed analogue of LookupBackward. The embed
// layer's backward pass does not use it yet — its ∇E input is assembled from
// an unpacked MulPlainRightTranspose term — so today it completes the
// PackedMatrix op set for the eventual packed embed gradient path.
func LookupBackwardPacked(gradE *PackedMatrix, x *tensor.IntMatrix, vocab, dim int) *PackedMatrix {
	if gradE.Rows != x.Rows || gradE.Cols != x.Cols*dim || gradE.Block != dim {
		panic("hetensor: LookupBackwardPacked shape mismatch")
	}
	out := gradE.newLike(vocab, dim, dim, gradE.Scale)
	gpb := out.GroupsPerRow()
	// Serial scatter: rows of the output may collide across instances.
	for i := 0; i < x.Rows; i++ {
		src := gradE.Row(i)
		for f, idx := range x.Row(i) {
			dst := out.Row(idx)
			for k := 0; k < gpb; k++ {
				dst[k] = gradE.PK.AddCipher(dst[k], src[f*gpb+k])
			}
		}
	}
	return out
}
