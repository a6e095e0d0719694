package core

import (
	"blindfl/internal/hetensor"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
)

// The Embed-MatMul federated source layer (paper Fig. 7) computes
//
//	Z = E_A·W_A + E_B·W_B,  E⋄ = lkup(Q⋄, X⋄)
//
// for categorical features X⋄. Both the embedding tables Q⋄ = S⋄ + T⋄ and
// the matmul weights W⋄ = U⋄ + V⋄ are secret-shared; party ⋄ holds S⋄ and
// U⋄, the other party holds T⋄ and V⋄, and each piece needed homomorphically
// is mirrored as a ciphertext under its generator's key. Lookups over the
// encrypted piece ⟦T⋄⟧ run at party ⋄ (which knows its own indices) and the
// results are converted to secret shares, so neither party ever obtains an
// embedding row, an activation, or a derivative in the clear.
//
// Under Config.Packed the tables and the weight copies the forward matmul
// halves multiply by travel packed along their output dimension, so each
// forward HE2SS masks and decrypts K lanes per ciphertext. The weight
// copies use the wide lane layout (hetensor.WideLanes): the forward
// multiplies them by ψ or E−ψ, masked shares as large as the weight shares
// themselves, whose products overflow the default lanes. The backward term
// ∇Z·⟦V_B⟧ᵀ contracts over the lanes, so ⟦V_B⟧ also travels unpacked; the
// rest of the backward pass does not depend on packing.

// EmbedConfig extends Config with the embedding geometry of one party.
type EmbedConfig struct {
	Config
	VocabA, VocabB   int // embedding table rows per party
	FieldsA, FieldsB int // categorical fields per party
	Dim              int // embedding dimension
}

// EmbedMatMulA is Party A's half of the Embed-MatMul source layer.
type EmbedMatMulA struct {
	cfg  EmbedConfig
	peer *protocol.Peer

	SA *tensor.Dense // A's piece of Q_A (VocabA×Dim)
	TB *tensor.Dense // A's piece of Q_B (VocabB×Dim)
	UA *tensor.Dense // A's piece of W_A (FieldsA·Dim×Out)
	VB *tensor.Dense // A's piece of W_B (FieldsB·Dim×Out)

	encTA  *hetensor.CipherMatrix // ⟦T_A⟧ under B's key
	packTA *hetensor.PackedMatrix // packed ⟦T_A⟧ when cfg.Packed
	encVA  *hetensor.CipherMatrix // ⟦V_A⟧ under B's key
	encUB  *hetensor.CipherMatrix // ⟦U_B⟧ under B's key
	packVA *hetensor.PackedMatrix // wide-packed ⟦V_A⟧, replacing encVA when cfg.Packed
	packUB *hetensor.PackedMatrix // wide-packed ⟦U_B⟧, replacing encUB when cfg.Packed

	momSA, momTB, momUA, momVB momentum

	// Forward state cached for the backward pass.
	x      *tensor.IntMatrix
	psiA   *tensor.Dense // ψ_A = ε_A + lkup(S_A, X_A)
	ebmPsi *tensor.Dense // E_B − ψ_B
}

// EmbedMatMulB is Party B's half of the Embed-MatMul source layer.
type EmbedMatMulB struct {
	cfg  EmbedConfig
	peer *protocol.Peer

	SB *tensor.Dense // B's piece of Q_B
	TA *tensor.Dense // B's piece of Q_A
	UB *tensor.Dense // B's piece of W_B
	VA *tensor.Dense // B's piece of W_A

	encTB  *hetensor.CipherMatrix // ⟦T_B⟧ under A's key
	packTB *hetensor.PackedMatrix // packed ⟦T_B⟧ when cfg.Packed
	encVB  *hetensor.CipherMatrix // ⟦V_B⟧ under A's key, held in both modes
	encUA  *hetensor.CipherMatrix // ⟦U_A⟧ under A's key
	packVB *hetensor.PackedMatrix // wide-packed ⟦V_B⟧ when cfg.Packed
	packUA *hetensor.PackedMatrix // wide-packed ⟦U_A⟧, replacing encUA when cfg.Packed

	momSB, momTA, momUB, momVA momentum

	x      *tensor.IntMatrix
	psiB   *tensor.Dense // ψ_B = ε_B + lkup(S_B, X_B)
	eamPsi *tensor.Dense // E_A − ψ_A
}

// NewEmbedMatMulA initializes Party A's half (Fig. 7 lines 1–4): A draws
// S_A, T_B, U_A, V_B, ships ⟦T_B⟧, ⟦U_A⟧, ⟦V_B⟧ under its own key, and
// receives ⟦T_A⟧, ⟦V_A⟧, ⟦U_B⟧ under B's key.
func NewEmbedMatMulA(p *protocol.Peer, cfg EmbedConfig) *EmbedMatMulA {
	cfg.applyExpEngine()
	s := cfg.initScale()
	l := &EmbedMatMulA{
		cfg: cfg, peer: p,
		SA:    tensor.RandDense(p.Rng, cfg.VocabA, cfg.Dim, s),
		TB:    tensor.RandDense(p.Rng, cfg.VocabB, cfg.Dim, s),
		UA:    tensor.RandDense(p.Rng, cfg.FieldsA*cfg.Dim, cfg.Out, s),
		VB:    tensor.RandDense(p.Rng, cfg.FieldsB*cfg.Dim, cfg.Out, s),
		momSA: momentum{mu: cfg.Momentum}, momTB: momentum{mu: cfg.Momentum},
		momUA: momentum{mu: cfg.Momentum}, momVB: momentum{mu: cfg.Momentum},
	}
	l.sendTable()
	l.sendWeights()
	l.recvTable()
	l.recvWeights()
	return l
}

// NewEmbedMatMulB initializes Party B's half, symmetric to NewEmbedMatMulA.
func NewEmbedMatMulB(p *protocol.Peer, cfg EmbedConfig) *EmbedMatMulB {
	cfg.applyExpEngine()
	s := cfg.initScale()
	l := &EmbedMatMulB{
		cfg: cfg, peer: p,
		SB:    tensor.RandDense(p.Rng, cfg.VocabB, cfg.Dim, s),
		TA:    tensor.RandDense(p.Rng, cfg.VocabA, cfg.Dim, s),
		UB:    tensor.RandDense(p.Rng, cfg.FieldsB*cfg.Dim, cfg.Out, s),
		VA:    tensor.RandDense(p.Rng, cfg.FieldsA*cfg.Dim, cfg.Out, s),
		momSB: momentum{mu: cfg.Momentum}, momTA: momentum{mu: cfg.Momentum},
		momUB: momentum{mu: cfg.Momentum}, momVA: momentum{mu: cfg.Momentum},
	}
	l.recvTable()
	l.recvWeights()
	l.sendTable()
	l.sendWeights()
	return l
}

// The encrypted-copy exchange, shared by initialization and the per-step
// refresh so both run one message order: A ships its pieces before it
// receives B's, and B mirrors that order.

// sendTable ships ⟦T_B⟧ under A's key.
func (l *EmbedMatMulA) sendTable() {
	if l.cfg.Packed {
		encryptAndSendPacked(l.peer, l.cfg.Stream, l.TB, 1)
		return
	}
	encryptAndSend(l.peer, l.cfg.Stream, l.TB, 1)
}

// recvTable receives ⟦T_A⟧ under B's key.
func (l *EmbedMatMulA) recvTable() {
	if l.cfg.Packed {
		l.packTA = recvPacked(l.peer, l.cfg.Stream)
		return
	}
	l.encTA = recvCipher(l.peer, l.cfg.Stream)
}

// sendWeights ships ⟦U_A⟧ and ⟦V_B⟧ under A's key. B's backward pass
// contracts ⟦V_B⟧ over the output dimension, so V_B goes unpacked in both
// modes and wide-packed on top of that under cfg.Packed.
func (l *EmbedMatMulA) sendWeights() {
	p, stream := l.peer, l.cfg.Stream
	if l.cfg.Packed {
		encryptAndSendWide(p, stream, l.UA, 1)
		encryptAndSendWide(p, stream, l.VB, 1)
	} else {
		encryptAndSend(p, stream, l.UA, 1)
	}
	encryptAndSend(p, stream, l.VB, 1)
}

// recvWeights receives ⟦V_A⟧ and ⟦U_B⟧ under B's key.
func (l *EmbedMatMulA) recvWeights() {
	p, stream := l.peer, l.cfg.Stream
	if l.cfg.Packed {
		l.packVA = recvPacked(p, stream)
		l.packUB = recvPacked(p, stream)
		return
	}
	l.encVA = recvCipher(p, stream)
	l.encUB = recvCipher(p, stream)
}

// recvTable receives ⟦T_B⟧ under A's key.
func (l *EmbedMatMulB) recvTable() {
	if l.cfg.Packed {
		l.packTB = recvPacked(l.peer, l.cfg.Stream)
		return
	}
	l.encTB = recvCipher(l.peer, l.cfg.Stream)
}

// sendTable ships ⟦T_A⟧ under B's key.
func (l *EmbedMatMulB) sendTable() {
	if l.cfg.Packed {
		encryptAndSendPacked(l.peer, l.cfg.Stream, l.TA, 1)
		return
	}
	encryptAndSend(l.peer, l.cfg.Stream, l.TA, 1)
}

// recvWeights receives ⟦U_A⟧ and ⟦V_B⟧ under A's key, mirroring
// EmbedMatMulA.sendWeights.
func (l *EmbedMatMulB) recvWeights() {
	p, stream := l.peer, l.cfg.Stream
	if l.cfg.Packed {
		l.packUA = recvPacked(p, stream)
		l.packVB = recvPacked(p, stream)
	} else {
		l.encUA = recvCipher(p, stream)
	}
	l.encVB = recvCipher(p, stream)
}

// sendWeights ships ⟦V_A⟧ and ⟦U_B⟧ under B's key.
func (l *EmbedMatMulB) sendWeights() {
	p, stream := l.peer, l.cfg.Stream
	if l.cfg.Packed {
		encryptAndSendWide(p, stream, l.VA, 1)
		encryptAndSendWide(p, stream, l.UB, 1)
		return
	}
	encryptAndSend(p, stream, l.VA, 1)
	encryptAndSend(p, stream, l.UB, 1)
}

// embedStage runs Fig. 7 lines 5–7 for one party: lookup over the encrypted
// peer-generated piece ⟦T⟧ with the local indices, convert to shares, and
// assemble ψ = ε + lkup(S, X). It returns ψ (this party's share of its own
// E) and the peer's complementary share E' − ψ' obtained from HE2SS.
func embedStage(p *protocol.Peer, stream bool, encT *hetensor.CipherMatrix, s *tensor.Dense, x *tensor.IntMatrix) (psi, otherShare *tensor.Dense) {
	encLk := hetensor.Lookup(encT, x)  // ⟦lkup(T, X)⟧ under the peer's key
	eps := he2ssSend(p, stream, encLk) // peer receives lkup(T, X) − ε
	otherShare = he2ssRecv(p, stream)  // this party's share of the peer's E
	psi = eps.Add(tensor.Lookup(s, x))
	return psi, otherShare
}

// embedStagePacked is embedStage over a packed table: the lookup gathers
// packed rows and the HE2SS conversion masks K lanes per blinding
// exponentiation. The table's per-row lane layout carries through the
// batch×(fields·dim) lookup result (Block = dim).
func embedStagePacked(p *protocol.Peer, stream bool, packT *hetensor.PackedMatrix, s *tensor.Dense, x *tensor.IntMatrix) (psi, otherShare *tensor.Dense) {
	encLk := hetensor.LookupPacked(packT, x)
	eps := he2ssSendPacked(p, stream, encLk)
	otherShare = he2ssRecvPacked(p, stream)
	psi = eps.Add(tensor.Lookup(s, x))
	return psi, otherShare
}

// forwardHalfEmbed runs one MatMulFw of Fig. 7 lines 8–9 over the packed or
// the unpacked encrypted weight copy, as cfg.Packed selects.
func forwardHalfEmbed(p *protocol.Peer, cfg EmbedConfig, x, u *tensor.Dense, encV *hetensor.CipherMatrix, packV *hetensor.PackedMatrix) *tensor.Dense {
	if cfg.Packed {
		return forwardHalfPacked(p, cfg.Stream, DenseFeatures{x}, u, packV)
	}
	return forwardHalf(p, cfg.Stream, DenseFeatures{x}, u, encV)
}

// forwardShare runs Fig. 7 lines 5–9 for Party A and returns its share Z'_A.
func (l *EmbedMatMulA) forwardShare(x *tensor.IntMatrix) *tensor.Dense {
	l.x = x
	if l.cfg.Packed {
		l.psiA, l.ebmPsi = embedStagePacked(l.peer, l.cfg.Stream, l.packTA, l.SA, x)
	} else {
		l.psiA, l.ebmPsi = embedStage(l.peer, l.cfg.Stream, l.encTA, l.SA, x)
	}
	// Line 8: Z'_1,A = MatMulFw(ψ_A, U_A, ⟦V_A⟧).
	z1 := forwardHalfEmbed(l.peer, l.cfg, l.psiA, l.UA, l.encVA, l.packVA)
	// Line 9: Z'_2,A = MatMulFw(E_B−ψ_B, V_B, ⟦U_B⟧).
	z2 := forwardHalfEmbed(l.peer, l.cfg, l.ebmPsi, l.VB, l.encUB, l.packUB)
	z1.AddInPlace(z2)
	return z1
}

// forwardShare runs Party B's side of Fig. 7 lines 5–9 and returns its
// share Z'_B.
func (l *EmbedMatMulB) forwardShare(x *tensor.IntMatrix) *tensor.Dense {
	l.x = x
	if l.cfg.Packed {
		l.psiB, l.eamPsi = embedStagePacked(l.peer, l.cfg.Stream, l.packTB, l.SB, x)
	} else {
		l.psiB, l.eamPsi = embedStage(l.peer, l.cfg.Stream, l.encTB, l.SB, x)
	}
	z1 := forwardHalfEmbed(l.peer, l.cfg, l.psiB, l.UB, l.encVB, l.packVB)
	z2 := forwardHalfEmbed(l.peer, l.cfg, l.eamPsi, l.VA, l.encUA, l.packUA)
	z1.AddInPlace(z2)
	return z1
}

// Forward runs Party A's forward pass (Fig. 7 lines 5–11). A outputs
// nothing; its share Z'_A is shipped to B (line 10).
func (l *EmbedMatMulA) Forward(x *tensor.IntMatrix) { l.peer.Send(l.forwardShare(x)) }

// Forward runs Party B's forward pass and returns Z = E_A·W_A + E_B·W_B.
func (l *EmbedMatMulB) Forward(x *tensor.IntMatrix) *tensor.Dense {
	return l.forwardShare(x).Add(l.peer.RecvDense())
}

// Backward runs Party A's backward pass (Fig. 7 lines 12–26).
func (l *EmbedMatMulA) Backward() {
	p, stream := l.peer, l.cfg.Stream
	// Line 12: receive ⟦∇Z⟧ and ⟦∇Z·V_Aᵀ⟧ under B's key.
	encGradZ := recvCipher(p, stream)
	encGradZVAT := recvCipher(p, stream)

	// Line 21, first term: ⟦∇Z⟧·U_Aᵀ must use the forward-pass U_A, so it
	// is computed before the MatMul-part update below touches U_A.
	encGradEA := hetensor.MulPlainRightTranspose(encGradZ, l.UA).AddCipher(encGradZVAT)

	// --- Backward of the MatMul part (lines 13–20) ---
	// ∇W_A = ψ_Aᵀ∇Z + (E_A−ψ_A)ᵀ∇Z; A computes the first term encrypted.
	phi := he2ssSend(p, stream, hetensor.TransposeMulLeft(l.psiA, encGradZ))
	l.momUA.step(l.UA, phi, l.cfg.LR)

	// ∇W_B = ψ_Bᵀ∇Z + (E_B−ψ_B)ᵀ∇Z; A computes the second term encrypted.
	xi := he2ssSend(p, stream, hetensor.TransposeMulLeft(l.ebmPsi, encGradZ))
	l.momVB.step(l.VB, xi, l.cfg.LR)

	// Refresh the encrypted weight copies (U_A changed here; V_A at B).
	l.sendWeights()
	l.recvWeights()

	// --- Backward of the Embed part (lines 21–26) ---
	// ⟦∇E_A⟧ = ⟦∇Z⟧·U_Aᵀ + ⟦∇Z·V_Aᵀ⟧ (computed above with forward weights).
	encGradQA := hetensor.LookupBackward(encGradEA, l.x, l.cfg.VocabA, l.cfg.Dim)
	rhoA := he2ssSend(p, stream, encGradQA) // B receives ∇Q_A − ρ_A
	l.momSA.step(l.SA, rhoA, l.cfg.LR)

	// Symmetric for Q_B: B ships the masked ⟦∇Q_B − ρ_B⟧ under A's key.
	gradTBshare := he2ssRecv(p, stream) // ∇Q_B − ρ_B
	l.momTB.step(l.TB, gradTBshare, l.cfg.LR)

	// Refresh encrypted table copies: T_B changed here, T_A at B.
	l.sendTable()
	l.recvTable()

	l.x, l.psiA, l.ebmPsi = nil, nil, nil
}

// Backward runs Party B's backward pass given the top model's ∇Z.
func (l *EmbedMatMulB) Backward(gradZ *tensor.Dense) {
	p, stream := l.peer, l.cfg.Stream
	// Line 12: encrypt and ship ∇Z and ∇Z·V_Aᵀ under B's own key. The
	// product is computed in plaintext (B holds both operands) and
	// encrypted at scale 2 so A can add it to its scale-2 ⟦∇Z⟧·U_Aᵀ term.
	encryptAndSend(p, stream, gradZ, 1)
	gradZVAT := gradZ.MatMulTranspose(l.VA)
	encryptAndSend(p, stream, gradZVAT, 2)

	// The Embed-part derivative ⟦∇E_B⟧ = Enc_A(∇Z·U_Bᵀ) + ∇Z·⟦V_B⟧ᵀ must
	// use the forward-pass U_B and ⟦V_B⟧, so both terms are computed before
	// the MatMul-part update and refresh below replace them.
	encGradEB := hetensor.Encrypt(p.PeerPK, gradZ.MatMulTranspose(l.UB), 2).
		AddCipher(hetensor.MulPlainLeftTransposeRight(gradZ, l.encVB))

	// --- Backward of the MatMul part ---
	// ∇W_A − φ = (E_A−ψ_A)ᵀ∇Z + (ψ_Aᵀ∇Z − φ).
	gradWAshare := l.eamPsi.TransposeMatMul(gradZ).Add(he2ssRecv(p, stream))
	l.momVA.step(l.VA, gradWAshare, l.cfg.LR)

	// ∇W_B − ξ = ψ_Bᵀ∇Z + ((E_B−ψ_B)ᵀ∇Z − ξ).
	gradWBshare := l.psiB.TransposeMatMul(gradZ).Add(he2ssRecv(p, stream))
	l.momUB.step(l.UB, gradWBshare, l.cfg.LR)

	// Refresh encrypted weight copies.
	l.recvWeights()
	l.sendWeights()

	// --- Backward of the Embed part ---
	// B's share of ∇Q_A arrives masked from A.
	gradTAshare := he2ssRecv(p, stream) // ∇Q_A − ρ_A
	l.momTA.step(l.TA, gradTAshare, l.cfg.LR)

	encGradQB := hetensor.LookupBackward(encGradEB, l.x, l.cfg.VocabB, l.cfg.Dim)
	rhoB := he2ssSend(p, stream, encGradQB) // A receives ∇Q_B − ρ_B
	l.momSB.step(l.SB, rhoB, l.cfg.LR)

	// Refresh encrypted table copies.
	l.recvTable()
	l.sendTable()

	l.x, l.psiB, l.eamPsi = nil, nil, nil
}

// DebugTableA reconstructs Q_A = S_A + T_A. Test use only.
func DebugTableA(a *EmbedMatMulA, b *EmbedMatMulB) *tensor.Dense { return a.SA.Add(b.TA) }

// DebugTableB reconstructs Q_B = S_B + T_B. Test use only.
func DebugTableB(a *EmbedMatMulA, b *EmbedMatMulB) *tensor.Dense { return b.SB.Add(a.TB) }

// DebugEmbedWeightsA reconstructs W_A = U_A + V_A. Test use only.
func DebugEmbedWeightsA(a *EmbedMatMulA, b *EmbedMatMulB) *tensor.Dense { return a.UA.Add(b.VA) }

// DebugEmbedWeightsB reconstructs W_B = U_B + V_B. Test use only.
func DebugEmbedWeightsB(a *EmbedMatMulA, b *EmbedMatMulB) *tensor.Dense { return b.UB.Add(a.VB) }

// PieceSA exposes Party A's share of its embedding table for the Fig. 11
// share-divergence experiment.
func (l *EmbedMatMulA) PieceSA() *tensor.Dense { return l.SA }
