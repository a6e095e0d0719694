package hetensor

import (
	"fmt"

	"blindfl/internal/paillier"
	"blindfl/internal/parallel"
	"blindfl/internal/tensor"
)

// TransposeMulLeftCSRSubset computes the touched rows of ⟦Xᵀ·G⟧ for sparse
// X: given the sorted set of column indices `touched` (which must cover every
// non-zero column of X), it returns a len(touched)×G.Cols cipher matrix
// whose i-th row is row touched[i] of the full gradient ⟦Xᵀ·G⟧. This keeps
// the homomorphic backward pass proportional to the batch's active
// coordinates instead of the full (possibly multi-million-dimensional)
// feature space.
func TransposeMulLeftCSRSubset(x *tensor.CSR, g *CipherMatrix, touched []int) *CipherMatrix {
	if x.Rows != g.Rows {
		panic(fmt.Sprintf("hetensor: TransposeMulLeftCSRSubset outer dim mismatch %d vs %d", x.Rows, g.Rows))
	}
	pos := make(map[int]int, len(touched))
	for i, k := range touched {
		pos[k] = i
	}
	type nz struct {
		row int
		val float64
	}
	buckets := make([][]nz, len(touched))
	for i := 0; i < x.Rows; i++ {
		cols, vals := x.RowNNZ(i)
		for t, k := range cols {
			j, ok := pos[k]
			if !ok {
				panic(fmt.Sprintf("hetensor: column %d not in touched set", k))
			}
			buckets[j] = append(buckets[j], nz{i, vals[t]})
		}
	}
	out := NewCipherMatrix(g.PK, len(touched), g.Cols, g.Scale+1)
	parallel.For(len(touched), func(j int) {
		orow := out.Row(j)
		for _, e := range buckets[j] {
			ea := Codec.Encode(e.val, 1)
			grow := g.Row(e.row)
			for t := range orow {
				orow[t] = g.PK.AddCipher(orow[t], g.PK.MulPlain(grow[t], ea))
			}
		}
	})
	return out
}

// EncryptRows encrypts the given rows of a plaintext matrix as a
// len(rows)×d.Cols cipher matrix (row i of the result is row rows[i] of d).
func EncryptRows(pk *paillier.PublicKey, d *tensor.Dense, rows []int, scale uint) *CipherMatrix {
	out := &CipherMatrix{Rows: len(rows), Cols: d.Cols, Scale: scale, PK: pk, C: make([]*paillier.Ciphertext, len(rows)*d.Cols)}
	parallel.For(len(rows), func(i int) {
		src := d.Row(rows[i])
		dst := out.Row(i)
		for j, v := range src {
			m := Codec.EncodeRing(v, scale, pk.N)
			c, err := paillier.EncryptPooled(pk, m)
			if err != nil {
				panic(fmt.Sprintf("hetensor: EncryptRows: %v", err))
			}
			dst[j] = c
		}
	})
	return out
}
