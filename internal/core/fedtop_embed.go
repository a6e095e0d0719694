package core

import (
	"blindfl/internal/hetensor"
	"blindfl/internal/tensor"
)

// Federated (SS-based) top model support for the Embed-MatMul source layer
// (paper Appendix B, Fig. 14). As with the MatMul variant, the forward
// output stays a share pair and the backward input is a share pair
// ⟨ε, ∇Z−ε⟩; the difference is that every gradient — including B's own
// ∇W_B and both table gradients — must now be assembled from homomorphic
// pieces, since neither party holds ∇Z in plaintext. This path runs with
// Config.Packed off: its backward contracts ⟦V_A⟧ over the output
// dimension, which a packed layer does not hold unpacked.

// ForwardSS runs Party A's forward pass for a federated top model and
// returns A's share Z'_A (Fig. 14 line 1).
func (l *EmbedMatMulA) ForwardSS(x *tensor.IntMatrix) *tensor.Dense { return l.forwardShare(x) }

// ForwardSS runs Party B's forward pass and returns B's share Z'_B.
func (l *EmbedMatMulB) ForwardSS(x *tensor.IntMatrix) *tensor.Dense { return l.forwardShare(x) }

// BackwardSS runs Party A's backward pass given A's derivative share ε
// (Fig. 14 lines 2–10).
func (l *EmbedMatMulA) BackwardSS(eps *tensor.Dense) {
	p, stream := l.peer, l.cfg.Stream
	encGradZ := ss2he(p, stream, eps, 1) // ⟦∇Z⟧ under B's key

	// --- Embed-part derivative pieces must use forward-pass weights ---
	// ⟦∇E_A⟧_B = ⟦∇Z⟧_B·U_Aᵀ + ⟦(∇Z−ε)·V_Aᵀ⟧_B + ε·⟦V_Aᵀ⟧_B.
	encGradEA := hetensor.MulPlainRightTranspose(encGradZ, l.UA).
		AddCipher(recvCipher(p, stream)). // ⟦(∇Z−ε)·V_Aᵀ⟧ from B
		AddCipher(hetensor.MulPlainLeftTransposeRight(eps, l.encVA))
	// A's contribution to ∇E_B: ε·V_Bᵀ encrypted under A's own key.
	encryptAndSend(p, stream, eps.MatMulTranspose(l.VB), 2)

	// --- MatMul part (shares of ∇W_A and ∇W_B) ---
	// A's pieces: ⟦ψ_Aᵀ∇Z⟧_B and ⟦(E_B−ψ_B)ᵀ∇Z⟧_B via HE2SS.
	phiA := he2ssSend(p, stream, hetensor.TransposeMulLeft(l.psiA, encGradZ))
	xiA := he2ssSend(p, stream, hetensor.TransposeMulLeft(l.ebmPsi, encGradZ))
	// B's pieces arrive masked: (E_A−ψ_A)ᵀ∇Z − ξ and ψ_Bᵀ∇Z − φ_B.
	gradWAother := he2ssRecv(p, stream)
	gradWBother := he2ssRecv(p, stream)

	// ∇W_A share at A: φ_A + ((E_A−ψ_A)ᵀ∇Z − ξ) → updates U_A.
	l.momUA.step(l.UA, phiA.Add(gradWAother), l.cfg.LR)
	// ∇W_B share at A: ξ_A(our mask of (E_B−ψ_B)ᵀ∇Z) + (ψ_Bᵀ∇Z − φ_B) → V_B.
	l.momVB.step(l.VB, xiA.Add(gradWBother), l.cfg.LR)

	// Refresh encrypted weight copies (all four pieces changed).
	l.sendWeights()
	l.recvWeights()

	// --- Embed part: table updates (Fig. 7 lines 22–26 unchanged) ---
	encGradQA := hetensor.LookupBackward(encGradEA, l.x, l.cfg.VocabA, l.cfg.Dim)
	rhoA := he2ssSend(p, stream, encGradQA)
	l.momSA.step(l.SA, rhoA, l.cfg.LR)

	gradTBshare := he2ssRecv(p, stream) // ∇Q_B − ρ_B
	l.momTB.step(l.TB, gradTBshare, l.cfg.LR)

	l.sendTable()
	l.recvTable()

	l.x, l.psiA, l.ebmPsi = nil, nil, nil
}

// BackwardSS runs Party B's backward pass given B's derivative share ∇Z−ε.
func (l *EmbedMatMulB) BackwardSS(gradShare *tensor.Dense) {
	p, stream := l.peer, l.cfg.Stream
	encGradZ := ss2he(p, stream, gradShare, 1) // ⟦∇Z⟧ under A's key

	// B's contribution to ∇E_A: (∇Z−ε)·V_Aᵀ encrypted under B's own key.
	encryptAndSend(p, stream, gradShare.MatMulTranspose(l.VA), 2)
	// ⟦∇E_B⟧_A = ⟦∇Z⟧_A·U_Bᵀ + ⟦ε·V_Bᵀ⟧_A + (∇Z−ε)·⟦V_Bᵀ⟧_A.
	encGradEB := hetensor.MulPlainRightTranspose(encGradZ, l.UB).
		AddCipher(recvCipher(p, stream)). // ⟦ε·V_Bᵀ⟧ from A
		AddCipher(hetensor.MulPlainLeftTransposeRight(gradShare, l.encVB))

	// --- MatMul part ---
	// B's masked pieces of A's homomorphic terms.
	gradWAother := he2ssRecv(p, stream) // ψ_Aᵀ∇Z − φ_A
	gradWBother := he2ssRecv(p, stream) // (E_B−ψ_B)ᵀ∇Z − ξ_A
	// B's own homomorphic terms.
	xiB := he2ssSend(p, stream, hetensor.TransposeMulLeft(l.eamPsi, encGradZ)) // (E_A−ψ_A)ᵀ∇Z
	phiB := he2ssSend(p, stream, hetensor.TransposeMulLeft(l.psiB, encGradZ))  // ψ_Bᵀ∇Z

	// ∇W_A share at B: (ψ_Aᵀ∇Z − φ_A) + ξ_B → updates V_A.
	l.momVA.step(l.VA, gradWAother.Add(xiB), l.cfg.LR)
	// ∇W_B share at B: φ_B + ((E_B−ψ_B)ᵀ∇Z − ξ_A) → updates U_B.
	l.momUB.step(l.UB, phiB.Add(gradWBother), l.cfg.LR)

	// Refresh encrypted weight copies.
	l.recvWeights()
	l.sendWeights()

	// --- Embed part ---
	gradTAshare := he2ssRecv(p, stream) // ∇Q_A − ρ_A
	l.momTA.step(l.TA, gradTAshare, l.cfg.LR)

	encGradQB := hetensor.LookupBackward(encGradEB, l.x, l.cfg.VocabB, l.cfg.Dim)
	rhoB := he2ssSend(p, stream, encGradQB)
	l.momSB.step(l.SB, rhoB, l.cfg.LR)

	l.recvTable()
	l.sendTable()

	l.x, l.psiB, l.eamPsi = nil, nil, nil
}
