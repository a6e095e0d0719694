package hetensor

import (
	"crypto/rand"
	"math/big"
	"testing"

	"blindfl/internal/fixedpoint"
	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
)

func TestPackEncryptDecryptRoundTrip(t *testing.T) {
	rng := mrandNew(30)
	for _, cols := range []int{1, 3, 4, 9} { // below, at, and straddling the lane count
		d := tensor.RandDense(rng, 5, cols, 100)
		m := PackEncrypt(&testKey.PublicKey, d, 1)
		if m.K < 2 {
			t.Fatalf("test key packs only %d lane(s); packing degenerate", m.K)
		}
		got := DecryptPacked(testKey, m)
		if !got.Equal(d, 1e-6) {
			t.Fatalf("cols=%d round trip mismatch: %v vs %v", cols, got.Data, d.Data)
		}
	}
}

// TestDecryptPackedMatchesFullDecrypt checks both packed decrypt paths
// against per-cell UnpackRing/UnpackInts of the full CRT Decrypt, for lane
// values up to the layout's ±(2^(W−1)−1). At the 512-bit test key one and
// two lanes sit below p/2 and decrypt mod p alone; three lanes need the
// full decryption.
func TestDecryptPackedMatchesFullDecrypt(t *testing.T) {
	sk, pk := testKey, &testKey.PublicKey
	lc := packingFor(pk)
	if pOnly := sk.N.BitLen()/2 - 2; plainBits(lc.W, 2) > pOnly || plainBits(lc.W, 3) <= pOnly {
		t.Fatalf("lane width %d no longer splits the decrypt paths between 2 and 3 lanes", lc.W)
	}
	rng := mrandNew(33)
	maxLane := new(big.Int).Lsh(big.NewInt(1), lc.W-1)
	maxLane.Sub(maxLane, big.NewInt(1))
	for lanes := 1; lanes <= 3; lanes++ {
		m := NewPackedMatrix(pk, 4, lanes, lanes, 2)
		for i := 0; i < m.Rows; i++ {
			vals := make([]*big.Int, lanes)
			for l := range vals {
				switch i {
				case 0:
					vals[l] = new(big.Int).Set(maxLane)
				case 1:
					vals[l] = new(big.Int).Neg(maxLane)
				case 2:
					vals[l] = new(big.Int)
				default:
					vals[l] = new(big.Int).Rand(rng, maxLane)
					if rng.Intn(2) == 0 {
						vals[l].Neg(vals[l])
					}
				}
			}
			c, err := pk.Encrypt(rand.Reader, fixedpoint.ToRing(lc.PackEncoded(vals), pk.N))
			if err != nil {
				t.Fatal(err)
			}
			m.C[i] = c
		}
		ints := DecryptPackedInts(sk, m)
		floats := DecryptPacked(sk, m)
		for i, c := range m.C {
			full := sk.Decrypt(c)
			wantInts := lc.UnpackInts(fixedpoint.FromRing(full, pk.N), lanes)
			wantFloats := lc.UnpackRing(full, lanes, m.Scale, pk.N)
			for l := 0; l < lanes; l++ {
				if ints.At(i, l).Cmp(wantInts[l]) != 0 {
					t.Errorf("%d lanes, row %d lane %d: DecryptPackedInts %v, want %v", lanes, i, l, ints.At(i, l), wantInts[l])
				}
				if floats.At(i, l) != wantFloats[l] {
					t.Errorf("%d lanes, row %d lane %d: DecryptPacked %v, want %v", lanes, i, l, floats.At(i, l), wantFloats[l])
				}
			}
		}
	}
}

func TestPackedUsesFewerCiphertexts(t *testing.T) {
	d := tensor.NewDense(4, 8)
	m := PackEncrypt(&testKey.PublicKey, d, 1)
	unpacked := 4 * 8
	if len(m.C)*m.K < unpacked || len(m.C) >= unpacked {
		t.Fatalf("packed uses %d ciphertexts for %d values (K=%d)", len(m.C), unpacked, m.K)
	}
}

func TestPackedAddCipherMatchesUnpacked(t *testing.T) {
	rng := mrandNew(31)
	a := tensor.RandDense(rng, 3, 6, 50)
	b := tensor.RandDense(rng, 3, 6, 50)
	pk := &testKey.PublicKey
	got := DecryptPacked(testKey, PackEncrypt(pk, a, 1).AddCipher(PackEncrypt(pk, b, 1)))
	want := Decrypt(testKey, Encrypt(pk, a, 1).AddCipher(Encrypt(pk, b, 1)))
	if !got.Equal(want, 1e-6) {
		t.Fatal("packed AddCipher differs from unpacked")
	}
}

func TestPackedSubPlainFreshMatchesUnpackedAndReRandomizes(t *testing.T) {
	rng := mrandNew(32)
	a := tensor.RandDense(rng, 2, 5, 1<<20) // mask-magnitude values
	mask := tensor.RandDense(rng, 2, 5, 1<<20)
	pk := &testKey.PublicKey
	enc := PackEncrypt(pk, a, 2)
	fresh := enc.SubPlainFresh(mask)
	got := DecryptPacked(testKey, fresh)
	if !got.Equal(a.Sub(mask), 2e-5) {
		t.Fatal("packed SubPlainFresh wrong value")
	}
	for i := range fresh.C {
		if fresh.C[i].C.Cmp(enc.C[i].C) == 0 {
			t.Fatal("packed SubPlainFresh did not re-randomize")
		}
	}
}

func TestMulPlainLeftPackedMatchesUnpacked(t *testing.T) {
	rng := mrandNew(33)
	x := tensor.RandDense(rng, 4, 7, 2)
	w := tensor.RandDense(rng, 7, 6, 2)
	pk := &testKey.PublicKey
	got := DecryptPacked(testKey, MulPlainLeftPacked(x, PackEncrypt(pk, w, 1)))
	want := Decrypt(testKey, MulPlainLeft(x, Encrypt(pk, w, 1)))
	if !got.Equal(want, 1e-6) {
		t.Fatal("MulPlainLeftPacked differs from MulPlainLeft")
	}
	if !got.Equal(x.MatMul(w), 1e-5) {
		t.Fatal("MulPlainLeftPacked differs from plaintext matmul")
	}
}

// TestWideLanesHoldShareProducts multiplies two share-sized operands (the
// Embed-MatMul forward's masked embedding share by a weight share, both
// near 2^22): the products overflow the default lanes, while the wide
// layout carries them through the product and the HE2SS re-masking and
// decrypts exactly what the unpacked path does.
func TestWideLanesHoldShareProducts(t *testing.T) {
	rng := mrandNew(36)
	pk := &testKey.PublicKey
	x := tensor.RandDense(rng, 3, 8, 1<<22)
	w := tensor.RandDense(rng, 8, 4, 1<<22)
	want := Decrypt(testKey, MulPlainLeft(x, Encrypt(pk, w, 1)))

	ones := tensor.NewDense(1, 8)
	big := tensor.NewDense(8, 4)
	for i := range ones.Data {
		ones.Data[i] = 1 << 22
	}
	for i := range big.Data {
		big.Data[i] = 1 << 22
	}
	if got := DecryptPacked(testKey, MulPlainLeftPacked(ones, PackEncrypt(pk, big, 1))); got.Equal(ones.MatMul(big), 1e-3) {
		t.Fatal("default lanes held a 2^47 product: the wide layout is no longer needed")
	}

	lc := WideLanes(pk)
	prod := MulPlainLeftPacked(x, PackEncryptLanes(pk, w, 1, w.Cols, lc))
	if prod.W != lc.W || prod.K != lc.K {
		t.Fatalf("product layout %d×%d, want the operand's wide %d×%d", prod.K, prod.W, lc.K, lc.W)
	}
	mask := tensor.RandDense(rng, 3, 4, 1<<20)
	masked := prod.SubPlainFresh(mask)
	if masked.W != lc.W || masked.K != lc.K {
		t.Fatal("SubPlainFresh dropped the wide layout")
	}
	// Values near 2^47 keep ~2^-5 of float64 precision after the re-add.
	if got := DecryptPacked(testKey, masked).Add(mask); !got.Equal(want, 1e-1) {
		t.Fatal("wide-lane share product differs from the unpacked product")
	}
	if got := DecryptPacked(testKey, prod); !got.Equal(want, 0) {
		t.Fatal("wide-lane product does not decrypt to the unpacked integers")
	}
}

func TestMulPlainLeftCSRPackedMatchesDense(t *testing.T) {
	rng := mrandNew(34)
	xd := tensor.RandCSR(rng, 4, 9, 3)
	w := tensor.RandDense(rng, 9, 5, 2)
	pk := &testKey.PublicKey
	got := DecryptPacked(testKey, MulPlainLeftCSRPacked(xd, PackEncrypt(pk, w, 1)))
	if !got.Equal(xd.MatMul(w), 1e-5) {
		t.Fatal("MulPlainLeftCSRPacked differs from plaintext sparse matmul")
	}
}

func TestTransposeMulLeftPackedMatchesUnpacked(t *testing.T) {
	rng := mrandNew(35)
	x := tensor.RandDense(rng, 6, 4, 2)
	g := tensor.RandDense(rng, 6, 5, 2)
	pk := &testKey.PublicKey
	got := DecryptPacked(testKey, TransposeMulLeftPacked(x, PackEncrypt(pk, g, 1)))
	want := Decrypt(testKey, TransposeMulLeft(x, Encrypt(pk, g, 1)))
	if !got.Equal(want, 1e-6) {
		t.Fatal("TransposeMulLeftPacked differs from TransposeMulLeft")
	}
}

func TestTransposeMulLeftCSRPackedMatchesDense(t *testing.T) {
	rng := mrandNew(36)
	x := tensor.RandCSR(rng, 6, 8, 2)
	g := tensor.RandDense(rng, 6, 5, 2)
	pk := &testKey.PublicKey
	got := DecryptPacked(testKey, TransposeMulLeftCSRPacked(x, PackEncrypt(pk, g, 1)))
	if !got.Equal(x.TransposeMatMul(g), 1e-5) {
		t.Fatal("TransposeMulLeftCSRPacked differs from plaintext")
	}
}

func TestLookupPackedMatchesUnpacked(t *testing.T) {
	rng := mrandNew(37)
	vocab, dim, fields := 6, 5, 3 // dim straddles a lane boundary for K=4
	q := tensor.RandDense(rng, vocab, dim, 3)
	x := tensor.NewIntMatrix(4, fields)
	for i := range x.Data {
		x.Data[i] = rng.Intn(vocab)
	}
	pk := &testKey.PublicKey
	got := DecryptPacked(testKey, LookupPacked(PackEncrypt(pk, q, 1), x))
	want := Decrypt(testKey, Lookup(Encrypt(pk, q, 1), x))
	if !got.Equal(want, 1e-6) {
		t.Fatal("LookupPacked differs from Lookup")
	}
}

func TestLookupBackwardPackedMatchesUnpacked(t *testing.T) {
	rng := mrandNew(38)
	vocab, dim, fields, batch := 5, 6, 2, 4
	gradE := tensor.RandDense(rng, batch, fields*dim, 2)
	x := tensor.NewIntMatrix(batch, fields)
	for i := range x.Data {
		x.Data[i] = rng.Intn(vocab)
	}
	pk := &testKey.PublicKey
	packed := PackEncryptBlocks(pk, gradE, 1, dim)
	got := DecryptPacked(testKey, LookupBackwardPacked(packed, x, vocab, dim))
	want := Decrypt(testKey, LookupBackward(Encrypt(pk, gradE, 1), x, vocab, dim))
	if !got.Equal(want, 1e-6) {
		t.Fatal("LookupBackwardPacked differs from LookupBackward")
	}
}

func TestPackedLayoutMismatchPanics(t *testing.T) {
	a := PackEncrypt(&testKey.PublicKey, tensor.NewDense(2, 6), 1)
	b := PackEncryptBlocks(&testKey.PublicKey, tensor.NewDense(2, 6), 1, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("AddCipher accepted mismatched block layouts")
		}
	}()
	a.AddCipher(b)
}

// --- Throughput benchmarks: the unpacked serial baseline vs the pooled and
// --- packed paths. Run with `make bench`.

func benchDense(rows, cols int) *tensor.Dense {
	return tensor.RandDense(mrandNew(40), rows, cols, 10)
}

// BenchmarkEncryptSerialUnpacked is the baseline: one ciphertext per value,
// blinding exponentiation inline, no goroutine fan-out.
func BenchmarkEncryptSerialUnpacked(b *testing.B) {
	d := benchDense(8, 16)
	pk := &testKey.PublicKey
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range d.Data {
			m := Codec.EncodeRing(v, 1, pk.N)
			if _, err := pk.Encrypt(paillier.Rand, m); err != nil {
				b.Fatal(err)
			}
			_ = j
		}
	}
}

// BenchmarkEncryptParallelUnpacked is Encrypt as shipped before this change:
// parallel fan-out, inline blinding, one ciphertext per value.
func BenchmarkEncryptParallelUnpacked(b *testing.B) {
	d := benchDense(8, 16)
	pk := &testKey.PublicKey
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encrypt(pk, d, 1)
	}
}

// BenchmarkEncryptPacked packs K values per ciphertext: ~K× fewer blinding
// exponentiations.
func BenchmarkEncryptPacked(b *testing.B) {
	d := benchDense(8, 16)
	pk := &testKey.PublicKey
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackEncrypt(pk, d, 1)
	}
}

// BenchmarkEncryptPackedPooled adds the blinding pool on top of packing; with
// a warm pool the critical path per ciphertext is two multiplications. The
// refills run outside the timer, modelling a deployment where precompute
// overlaps communication and plaintext phases of the protocol.
func BenchmarkEncryptPackedPooled(b *testing.B) {
	d := benchDense(8, 16)
	pk := &testKey.PublicKey
	pool := paillier.NewPool(pk, 128, 0, rand.Reader)
	defer pool.Close()
	paillier.RegisterPool(pool)
	defer paillier.UnregisterPool(pk)
	groups := 8 * ((16 + packingFor(pk).K - 1) / packingFor(pk).K)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pool.WaitAvailable(groups)
		b.StartTimer()
		PackEncrypt(pk, d, 1)
	}
}

func BenchmarkMulPlainLeftUnpacked(b *testing.B) {
	x := benchDense(8, 16)
	w := Encrypt(&testKey.PublicKey, benchDense(16, 8), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulPlainLeft(x, w)
	}
}

func BenchmarkMulPlainLeftPacked(b *testing.B) {
	x := benchDense(8, 16)
	w := PackEncrypt(&testKey.PublicKey, benchDense(16, 8), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulPlainLeftPacked(x, w)
	}
}
