package secureml

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"blindfl/internal/nn"
	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
)

var (
	keyOnce sync.Once
	key0    *paillier.PrivateKey
	key1    *paillier.PrivateKey
)

func keys() (*paillier.PrivateKey, *paillier.PrivateKey) {
	keyOnce.Do(func() {
		var err error
		key0, err = paillier.GenerateKey(paillier.Rand, 512)
		if err != nil {
			panic(err)
		}
		key1, err = paillier.GenerateKey(paillier.Rand, 512)
		if err != nil {
			panic(err)
		}
	})
	return key0, key1
}

func TestShareReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := tensor.RandDense(rng, 4, 3, 10)
	r := Encode(d)
	s0, s1 := Share(rng, r)
	got := Decode(Reconstruct(s0, s1), 1)
	if !got.Equal(d, 1e-3) {
		t.Fatal("share/reconstruct mismatch")
	}
	// Single shares must be unrelated to the plaintext.
	one := Decode(s0, 1)
	if one.Equal(d, 1) {
		t.Fatal("single share resembles plaintext")
	}
}

func TestRingMatMulMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := tensor.RandDense(rng, 3, 4, 2)
	b := tensor.RandDense(rng, 4, 2, 2)
	got := Decode(Encode(a).MatMul(Encode(b)), 2)
	if !got.Equal(a.MatMul(b), 1e-2) {
		t.Fatal("ring matmul mismatch")
	}
}

func TestDealerTriple(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := GenTripleDealer(rng, 3, 4, 2)
	a := Reconstruct(tr.A0, tr.A1)
	b := Reconstruct(tr.B0, tr.B1)
	c := Reconstruct(tr.C0, tr.C1)
	want := a.MatMul(b)
	for i := range c.V {
		if c.V[i] != want.V[i] {
			t.Fatal("dealer triple C != A·B")
		}
	}
}

func TestPaillierTriple(t *testing.T) {
	sk0, sk1 := keys()
	rng := rand.New(rand.NewSource(4))
	tr := GenTriplePaillier(rng, sk0, sk1, 2, 3, 2)
	a := Reconstruct(tr.A0, tr.A1)
	b := Reconstruct(tr.B0, tr.B1)
	c := Reconstruct(tr.C0, tr.C1)
	want := a.MatMul(b)
	for i := range c.V {
		if c.V[i] != want.V[i] {
			t.Fatalf("HE triple C != A·B at %d: %d vs %d", i, c.V[i], want.V[i])
		}
	}
}

// TestPaillierTripleDeterministic: the cross-term masks come from rng in a
// fixed order, so one seed gives one triple however the parallel cross-term
// loop is scheduled.
func TestPaillierTripleDeterministic(t *testing.T) {
	sk0, sk1 := keys()
	t1 := GenTriplePaillier(rand.New(rand.NewSource(8)), sk0, sk1, 3, 2, 4)
	t2 := GenTriplePaillier(rand.New(rand.NewSource(8)), sk0, sk1, 3, 2, 4)
	for i := range t1.C0.V {
		if t1.C0.V[i] != t2.C0.V[i] || t1.C1.V[i] != t2.C1.V[i] {
			t.Fatalf("same seed, different triple C at %d", i)
		}
	}
}

func TestBeaverMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.RandDense(rng, 5, 6, 2)
	w := tensor.RandDense(rng, 6, 3, 2)
	x0, x1 := Share(rng, Encode(x))
	w0, w1 := Share(rng, Encode(w))
	tr := GenTripleDealer(rng, 5, 6, 3)
	z0, z1 := MatMulBeaver(x0, x1, w0, w1, tr)
	got := Decode(Reconstruct(z0, z1), 2)
	if !got.Equal(x.MatMul(w), 1e-2) {
		t.Fatal("Beaver matmul mismatch")
	}
}

func TestBeaverMatMulWithHETriple(t *testing.T) {
	sk0, sk1 := keys()
	rng := rand.New(rand.NewSource(6))
	x := tensor.RandDense(rng, 3, 4, 2)
	w := tensor.RandDense(rng, 4, 2, 2)
	x0, x1 := Share(rng, Encode(x))
	w0, w1 := Share(rng, Encode(w))
	tr := GenTriplePaillier(rng, sk0, sk1, 3, 4, 2)
	z0, z1 := MatMulBeaver(x0, x1, w0, w1, tr)
	got := Decode(Reconstruct(z0, z1), 2)
	if !got.Equal(x.MatMul(w), 1e-2) {
		t.Fatal("Beaver matmul with HE triple mismatch")
	}
}

func TestTruncationAfterProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.RandDense(rng, 4, 4, 3)
	w := tensor.RandDense(rng, 4, 2, 3)
	x0, x1 := Share(rng, Encode(x))
	w0, w1 := Share(rng, Encode(w))
	tr := GenTripleDealer(rng, 4, 4, 2)
	z0, z1 := MatMulBeaver(x0, x1, w0, w1, tr)
	got := Decode(Reconstruct(z0.Truncate(), z1.Truncate()), 1)
	if !got.Equal(x.MatMul(w), 1e-2) {
		t.Fatal("truncated product mismatch")
	}
}

func TestLogisticTrainingLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 300
	x := tensor.NewDense(n, 4)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < 4; j++ {
			v := rng.NormFloat64()
			x.Set(i, j, v)
			s += v * float64(j+1) / 4
		}
		if s > 0 {
			y[i] = 1
		}
	}
	sys := NewSystem(rng, ClientAided, x, y, 1, nil, nil)
	w := sys.TrainLogistic(8, 32, 0.3)
	logits := x.MatMul(w)
	if auc := nn.AUC(nn.Scores(logits), y); auc < 0.9 {
		t.Fatalf("SecureML LR AUC = %v", auc)
	}
}

func TestOutsourcedSharesAreDense(t *testing.T) {
	// The defining limitation: a sparse matrix becomes dense once shared.
	rng := rand.New(rand.NewSource(9))
	sp := tensor.RandCSR(rng, 10, 50, 2)
	s0, _ := Share(rng, Encode(sp.ToDense()))
	zeros := 0
	for _, v := range s0.V {
		if v == 0 {
			zeros++
		}
	}
	if zeros > 2 {
		t.Fatalf("%d zero entries in a share of 500; shares must look dense/random", zeros)
	}
}

func TestEncodeDecodePrecision(t *testing.T) {
	vals := []float64{0, 1, -1, 0.5, -0.125, 100.25, -77.77}
	d := tensor.FromSlice(1, len(vals), vals)
	got := Decode(Encode(d), 1)
	for i := range vals {
		if math.Abs(got.Data[i]-vals[i]) > 1.0/(1<<12) {
			t.Fatalf("F=13 precision: %v -> %v", vals[i], got.Data[i])
		}
	}
}
