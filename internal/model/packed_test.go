package model

import (
	"testing"

	"blindfl/internal/data"
)

// TestFederatedLRPackedMatchesUnpacked trains the same tiny federated model
// twice — ciphertext packing on and off — from identical seeds, for LR and
// for the two Embed-MatMul families. The mask and init draws are identical
// in both modes and every lane decrypts the very integer the unpacked cell
// does, so losses, test logits and the test metric must match exactly: the
// end-to-end form of the packed correctness contract. The embedding
// families cover the wide-lane forward products, whose default-lane
// predecessor overflowed silently by the end of this run.
func TestFederatedLRPackedMatchesUnpacked(t *testing.T) {
	for _, kind := range []Kind{LR, WDL, DLRM} {
		t.Run(string(kind), func(t *testing.T) {
			if testing.Short() && kind.UsesEmbedding() {
				t.Skip("federated embedding training skipped in -short")
			}
			ds := data.Generate(tinySpec("t-fed-packed", 12, 12, 2, kind.UsesEmbedding()), 3)
			h := tinyHyper()
			h.Epochs = 2

			run := func(packed bool) *History {
				hh := h
				hh.Packed = packed
				pa, pb := fedPipe(t, 520)
				hist, err := TrainFederated(kind, ds, hh, pa, pb)
				if err != nil {
					t.Fatal(err)
				}
				return hist
			}
			packed := run(true)
			plain := run(false)

			if len(packed.Losses) != len(plain.Losses) {
				t.Fatalf("iteration counts differ: %d vs %d", len(packed.Losses), len(plain.Losses))
			}
			for i := range packed.Losses {
				if packed.Losses[i] != plain.Losses[i] {
					t.Fatalf("loss %d diverges: packed %v vs unpacked %v", i, packed.Losses[i], plain.Losses[i])
				}
			}
			if !packed.TestLogits.Equal(plain.TestLogits, 0) {
				t.Fatal("test logits diverge between packed and unpacked runs")
			}
			if packed.TestMetric != plain.TestMetric {
				t.Fatalf("test metric diverges: packed %v vs unpacked %v", packed.TestMetric, plain.TestMetric)
			}
		})
	}
}
