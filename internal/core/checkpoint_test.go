package core

import (
	"bytes"
	"math/rand"
	"testing"

	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
)

func TestMatMulCheckpointRoundTrip(t *testing.T) {
	pa, pb := pipe(t, 800)
	cfg := Config{Out: 2, LR: 0.1, Momentum: 0.9}
	la, lb := newMatMulPair(t, pa, pb, cfg, 3, 3)

	rng := rand.New(rand.NewSource(1))
	step := func(a *MatMulA, b *MatMulB) {
		xA := tensor.RandDense(rng, 4, 3, 1)
		xB := tensor.RandDense(rng, 4, 3, 1)
		g := tensor.RandDense(rng, 4, 2, 1)
		if err := protocol.RunParties(pa, pb,
			func() { a.Forward(DenseFeatures{xA}); a.Backward() },
			func() { b.Forward(DenseFeatures{xB}); b.Backward(g) },
		); err != nil {
			t.Fatal(err)
		}
	}
	step(la, lb) // momentum buffers now non-nil

	var bufA, bufB bytes.Buffer
	if err := la.Save(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := lb.Save(&bufB); err != nil {
		t.Fatal(err)
	}
	la2, err := LoadMatMulA(&bufA, pa)
	if err != nil {
		t.Fatal(err)
	}
	lb2, err := LoadMatMulB(&bufB, pb)
	if err != nil {
		t.Fatal(err)
	}

	// Restored halves reconstruct the same weights...
	if !DebugWeightsA(la2, lb2).Equal(DebugWeightsA(la, lb), 0) {
		t.Fatal("restored W_A differs")
	}
	if !DebugWeightsB(la2, lb2).Equal(DebugWeightsB(la, lb), 0) {
		t.Fatal("restored W_B differs")
	}
	// ...and continue training identically: run the same batch through the
	// original and restored pairs (reset rng so the draws coincide).
	rng = rand.New(rand.NewSource(2))
	step(la, lb)
	rng = rand.New(rand.NewSource(2))
	step(la2, lb2)
	if !DebugWeightsA(la2, lb2).Equal(DebugWeightsA(la, lb), 1e-6) {
		t.Fatal("training diverged after checkpoint restore")
	}
}

// TestEmbedCheckpointRoundTrip saves and restores an Embed-MatMul pair
// mid-training, unpacked and packed: every encrypted copy the forward and
// backward passes read — the packed weight copies included — must survive
// the gob state with its public key re-attached.
func TestEmbedCheckpointRoundTrip(t *testing.T) {
	for _, packed := range []bool{false, true} {
		t.Run(map[bool]string{false: "unpacked", true: "packed"}[packed], func(t *testing.T) {
			testEmbedCheckpointRoundTrip(t, packed)
		})
	}
}

func testEmbedCheckpointRoundTrip(t *testing.T, packed bool) {
	pa, pb := pipe(t, 801)
	cfg := embedTestCfg()
	cfg.Momentum = 0.9
	cfg.Packed = packed
	la, lb := newEmbedPair(t, pa, pb, cfg)

	rng := rand.New(rand.NewSource(3))
	xA := randIdx(rng, 3, cfg.FieldsA, cfg.VocabA)
	xB := randIdx(rng, 3, cfg.FieldsB, cfg.VocabB)
	g := tensor.RandDense(rng, 3, cfg.Out, 1)
	if err := protocol.RunParties(pa, pb,
		func() { la.Forward(xA); la.Backward() },
		func() { lb.Forward(xB); lb.Backward(g) },
	); err != nil {
		t.Fatal(err)
	}

	var bufA, bufB bytes.Buffer
	if err := la.Save(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := lb.Save(&bufB); err != nil {
		t.Fatal(err)
	}
	la2, err := LoadEmbedMatMulA(&bufA, pa)
	if err != nil {
		t.Fatal(err)
	}
	lb2, err := LoadEmbedMatMulB(&bufB, pb)
	if err != nil {
		t.Fatal(err)
	}
	if !DebugTableA(la2, lb2).Equal(DebugTableA(la, lb), 0) {
		t.Fatal("restored Q_A differs")
	}
	if !DebugEmbedWeightsB(la2, lb2).Equal(DebugEmbedWeightsB(la, lb), 0) {
		t.Fatal("restored W_B differs")
	}

	// The restored pair must still run the protocol (encrypted copies and
	// momentum intact): one more step, checked for forward consistency.
	want := plaintextZ(la2, lb2, xA, xB)
	var z *tensor.Dense
	if err := protocol.RunParties(pa, pb,
		func() { la2.Forward(xA); la2.Backward() },
		func() { z = lb2.Forward(xB); lb2.Backward(g) },
	); err != nil {
		t.Fatal(err)
	}
	if !z.Equal(want, 1e-4) {
		t.Fatal("restored embed layer forward inconsistent")
	}
}

func TestLoadMatMulARejectsGarbage(t *testing.T) {
	pa, _ := pipe(t, 802)
	if _, err := LoadMatMulA(bytes.NewReader([]byte("not a checkpoint")), pa); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}
