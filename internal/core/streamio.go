package core

import (
	"blindfl/internal/hetensor"
	"blindfl/internal/protocol"
	"blindfl/internal/tensor"
)

// Stream dispatch: each helper routes one protocol transfer through either
// the monolithic or the chunk-streamed variant, so the source layers read as
// the paper's figures with a single `stream` argument instead of duplicated
// protocol bodies. Both parties must pass the same Config.Stream, exactly as
// they must agree on Config.Packed.

func encryptAndSend(p *protocol.Peer, stream bool, d *tensor.Dense, scale uint) {
	if stream {
		p.EncryptAndSendStream(d, scale)
		return
	}
	p.EncryptAndSend(d, scale)
}

func encryptAndSendPacked(p *protocol.Peer, stream bool, d *tensor.Dense, scale uint) {
	if stream {
		p.EncryptAndSendPackedStream(d, scale)
		return
	}
	p.EncryptAndSendPacked(d, scale)
}

// encryptAndSendWide ships d packed in the wide lane layout.
func encryptAndSendWide(p *protocol.Peer, stream bool, d *tensor.Dense, scale uint) {
	if stream {
		p.EncryptAndSendWideStream(d, scale)
		return
	}
	p.EncryptAndSendWide(d, scale)
}

func recvCipher(p *protocol.Peer, stream bool) *hetensor.CipherMatrix {
	if stream {
		return p.RecvCipherStream()
	}
	return p.RecvCipher()
}

func recvPacked(p *protocol.Peer, stream bool) *hetensor.PackedMatrix {
	if stream {
		return p.RecvPackedStream()
	}
	return p.RecvPacked()
}

func he2ssSend(p *protocol.Peer, stream bool, c *hetensor.CipherMatrix) *tensor.Dense {
	if stream {
		return p.HE2SSSendStream(c)
	}
	return p.HE2SSSend(c)
}

func he2ssRecv(p *protocol.Peer, stream bool) *tensor.Dense {
	if stream {
		return p.HE2SSRecvStream()
	}
	return p.HE2SSRecv()
}

func he2ssSendPacked(p *protocol.Peer, stream bool, c *hetensor.PackedMatrix) *tensor.Dense {
	if stream {
		return p.HE2SSSendPackedStream(c)
	}
	return p.HE2SSSendPacked(c)
}

func he2ssRecvPacked(p *protocol.Peer, stream bool) *tensor.Dense {
	if stream {
		return p.HE2SSRecvPackedStream()
	}
	return p.HE2SSRecvPacked()
}

func ss2he(p *protocol.Peer, stream bool, piece *tensor.Dense, scale uint) *hetensor.CipherMatrix {
	if stream {
		return p.SS2HEStream(piece, scale)
	}
	return p.SS2HE(piece, scale)
}

// recvGradAcc receives ⟦∇Z⟧ and returns the accumulated ⟦Xᵀ·∇Z⟧ at scale+1.
// On the streamed path the accumulation is pipelined: each derivative chunk
// is folded into the accumulator while the peer encrypts the next chunk —
// the receiver-side half of the compute/communication overlap.
func recvGradAcc(p *protocol.Peer, stream bool, x Numeric) *hetensor.CipherMatrix {
	if !stream {
		return x.TransposeMulCipher(p.RecvCipher())
	}
	var acc *hetensor.CipherMatrix
	p.RecvCipherStreamEach(func(lo int, chunk *hetensor.CipherMatrix) {
		if acc == nil {
			acc = hetensor.NewCipherMatrix(chunk.PK, x.NumCols(), chunk.Cols, chunk.Scale+1)
		}
		x.TransposeMulCipherAcc(acc, lo, chunk)
	})
	return acc
}

// recvGradAccPacked is recvGradAcc over packed derivative chunks.
func recvGradAccPacked(p *protocol.Peer, stream bool, x Numeric) *hetensor.PackedMatrix {
	if !stream {
		return x.TransposeMulCipherPacked(p.RecvPacked())
	}
	var acc *hetensor.PackedMatrix
	p.RecvPackedStreamEach(func(lo int, chunk *hetensor.PackedMatrix) {
		if acc == nil {
			acc = hetensor.NewPackedMatrix(chunk.PK, x.NumCols(), chunk.Cols, chunk.Block, chunk.Scale+1)
		}
		x.TransposeMulCipherPackedAcc(acc, lo, chunk)
	})
	return acc
}
