package protocol

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"blindfl/internal/hetensor"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// Failure injection: protocols must surface transport failures as errors
// from Run, never hang or panic through.

func TestRecvOnClosedConnErrors(t *testing.T) {
	a, b := newPipe(t, 20)
	b.Conn.Close()
	err := a.Run(func() { a.RecvDense() })
	if err == nil || !strings.Contains(err.Error(), "recv") {
		t.Fatalf("err = %v", err)
	}
}

func TestSendOnClosedConnErrors(t *testing.T) {
	a, _ := newPipe(t, 21)
	a.Conn.Close()
	err := a.Run(func() { a.Send(tensor.NewDense(1, 1)) })
	if err == nil || !strings.Contains(err.Error(), "send") {
		t.Fatalf("err = %v", err)
	}
}

func TestMidProtocolDisconnect(t *testing.T) {
	a, b := newPipe(t, 22)
	err := RunParties(a, b,
		func() {
			a.Send(tensor.NewDense(2, 2))
			a.Conn.Close() // drop mid-protocol
		},
		func() {
			b.RecvDense()
			b.RecvDense() // the second message never arrives
		})
	if err == nil {
		t.Fatal("expected an error after mid-protocol disconnect")
	}
}

func TestHE2SSRecvRejectsForeignKeyCiphertext(t *testing.T) {
	a, b := newPipe(t, 23)
	err := RunParties(a, b,
		func() {
			// A wrongly ships a ciphertext under its own key: the receiver
			// cannot decrypt it and must fail loudly instead of decrypting
			// garbage.
			a.Send(a.Encrypt(tensor.NewDense(1, 1), 1))
		},
		func() {
			b.HE2SSRecv()
		})
	if err == nil || !strings.Contains(err.Error(), "not under this party's key") {
		t.Fatalf("err = %v", err)
	}
}

// TestRunPartiesUnblocksPeerOnEarlyError is the regression test for the
// one-sided-failure hang: A fails on the first message (a type it does not
// expect), after which B blocks in Recv waiting for a reply that will never
// come. RunParties must close both conns so B unblocks with ErrClosed
// instead of hanging forever. Pre-fix, this test deadlocks (the watchdog
// and the CI -timeout both catch it).
func TestRunPartiesUnblocksPeerOnEarlyError(t *testing.T) {
	a, b := newPipe(t, 30)
	done := make(chan error, 1)
	go func() {
		done <- RunParties(a, b,
			func() {
				a.RecvDense() // B sent an []int: type error, A dies here
			},
			func() {
				b.Send([]int{1, 2, 3})
				b.RecvDense() // nothing will ever arrive
			})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected an error from the failed party")
		}
		if !strings.Contains(err.Error(), "want *tensor.Dense") {
			t.Fatalf("first error should be A's type failure, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunParties hung after a one-sided failure")
	}
}

// TestRunPartiesErrorThenSurvivorGetsErrClosed pins the survivor's view: its
// blocked Recv returns transport.ErrClosed once RunParties tears the conns
// down.
func TestRunPartiesErrorThenSurvivorGetsErrClosed(t *testing.T) {
	a, b := newPipe(t, 31)
	var survivorErr error
	err := RunParties(a, b,
		func() { a.fail("injected failure") },
		func() {
			_, survivorErr = b.Conn.Recv()
		})
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("err = %v", err)
	}
	if !errors.Is(survivorErr, transport.ErrClosed) {
		t.Fatalf("survivor Recv = %v, want ErrClosed", survivorErr)
	}
}

func TestRunDoesNotSwallowUnrelatedPanics(t *testing.T) {
	a, _ := newPipe(t, 24)
	defer func() {
		if recover() == nil {
			t.Fatal("unrelated panic should propagate")
		}
	}()
	_ = a.Run(func() { panic("programming error") })
}

func TestPipeHandshakeAgainstHalfOpenPeer(t *testing.T) {
	// A peer that closes during the handshake must produce an error, not a
	// deadlock.
	skA, skB := TestKeys()
	ca, cb := transport.Pair(1)
	a := NewPeer(PartyA, ca, skA, nil)
	_ = NewPeer(PartyB, cb, skB, nil)
	cb.Close()
	if err := a.Handshake(); err == nil {
		t.Fatal("handshake against closed peer succeeded")
	}
}

// TestRecvRejectsMalformedLayout ships matrices whose declared shape or lane
// layout disagrees with their cells, over the monolithic and the streamed
// HE2SS receive paths. Every one must fail with a typed
// transport.ErrCorrupt at the trust boundary: before the layout check a
// packed K of 0 crashed the process with a divide by zero, and a cipher
// matrix carrying one cell too many decrypted without complaint.
func TestRecvRejectsMalformedLayout(t *testing.T) {
	for _, tc := range []struct {
		name   string
		packed bool
		spoil  func(c *hetensor.CipherMatrix, m *hetensor.PackedMatrix)
	}{
		{"cipher extra cell", false, func(c *hetensor.CipherMatrix, _ *hetensor.PackedMatrix) { c.Rows-- }},
		{"cipher negative rows", false, func(c *hetensor.CipherMatrix, _ *hetensor.PackedMatrix) { c.Rows = -c.Rows }},
		{"packed zero lanes", true, func(_ *hetensor.CipherMatrix, m *hetensor.PackedMatrix) { m.K = 0 }},
		{"packed zero width", true, func(_ *hetensor.CipherMatrix, m *hetensor.PackedMatrix) { m.W = 0 }},
		{"packed lanes overflow key", true, func(_ *hetensor.CipherMatrix, m *hetensor.PackedMatrix) { m.W = 1 << 20 }},
		{"packed block not dividing cols", true, func(_ *hetensor.CipherMatrix, m *hetensor.PackedMatrix) { m.Block = m.Cols - 1 }},
		{"packed negative rows", true, func(_ *hetensor.CipherMatrix, m *hetensor.PackedMatrix) { m.Rows = -m.Rows }},
	} {
		for _, stream := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/stream=%v", tc.name, stream), func(t *testing.T) {
				a, b := newPipe(t, 24)
				d := tensor.NewDense(6, 3)
				var msg any
				if tc.packed {
					m := hetensor.PackEncrypt(&b.SK.PublicKey, d, 1)
					tc.spoil(nil, m)
					msg = m
				} else {
					c := hetensor.Encrypt(&b.SK.PublicKey, d, 1)
					tc.spoil(c, nil)
					msg = c
				}
				err := RunParties(a, b,
					func() {
						if stream {
							a.sendStream(d.Rows, d.Cols, func(lo, hi int) any { return msg })
							return
						}
						a.Send(msg)
					},
					func() {
						switch {
						case tc.packed && stream:
							b.HE2SSRecvPackedStream()
						case tc.packed:
							b.HE2SSRecvPacked()
						case stream:
							b.HE2SSRecvStream()
						default:
							b.HE2SSRecv()
						}
					})
				if !errors.Is(err, transport.ErrCorrupt) {
					t.Fatalf("err = %v, want transport.ErrCorrupt", err)
				}
			})
		}
	}
}

// TestStreamRecvRejectsChunkOutsideHeader streams well-formed chunks that
// disagree with the stream header: wider than the header's columns (which
// the streamed HE2SS receive used to fold silently into the wrong rows), or
// running past its rows. Both must fail with transport.ErrCorrupt.
func TestStreamRecvRejectsChunkOutsideHeader(t *testing.T) {
	for _, tc := range []struct {
		name       string
		rows, cols int // the header's shape; every chunk is 2×3
	}{
		{"wider than header", 2, 2},
		{"past header rows", 1, 3},
	} {
		for _, packed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/packed=%v", tc.name, packed), func(t *testing.T) {
				a, b := newPipe(t, 26)
				d := tensor.NewDense(2, 3)
				var chunk any = hetensor.Encrypt(&b.SK.PublicKey, d, 1)
				if packed {
					chunk = hetensor.PackEncrypt(&b.SK.PublicKey, d, 1)
				}
				err := RunParties(a, b,
					func() { a.sendStream(tc.rows, tc.cols, func(lo, hi int) any { return chunk }) },
					func() {
						if packed {
							b.HE2SSRecvPackedStream()
						} else {
							b.HE2SSRecvStream()
						}
					})
				if !errors.Is(err, transport.ErrCorrupt) {
					t.Fatalf("err = %v, want transport.ErrCorrupt", err)
				}
			})
		}
	}
}
