package main

import (
	"fmt"
	"net"
	"time"

	"blindfl/internal/engine"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/transport"
)

// tcpPair opens one loopback TCP connection and returns both ends as gob
// transports. The listener is closed once the connection is accepted.
func tcpPair() (transport.Conn, transport.Conn, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("listen: %w", err)
	}
	defer l.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		ch <- accepted{c, err}
	}()
	dc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		l.Close() // unblocks Accept
		<-ch
		return nil, nil, fmt.Errorf("dial: %w", err)
	}
	acc := <-ch
	if acc.err != nil {
		dc.Close()
		return nil, nil, fmt.Errorf("accept: %w", acc.err)
	}
	return transport.NewGobConn(dc), transport.NewGobConn(acc.c), nil
}

// sessions is a live set of k feature-party sessions with one label party,
// each over its own loopback TCP connection. conns holds every connection
// end (A side and B side of every session) for byte accounting and
// shutdown.
type sessions struct {
	as    []*protocol.Peer
	bs    []*protocol.Peer
	conns []transport.Conn
	hs    time.Duration // wall time of the concurrent handshakes
}

// dialSessions connects k feature parties (keys skAs) to the label party
// (key skB), seeding every peer's RNG streams from seed exactly as
// protocol.GroupPipe does, and completes all handshakes concurrently. wrap,
// when non-nil, wraps each connection end before the peer takes it; side is
// "a" or "b".
func dialSessions(skAs []*paillier.PrivateKey, skB *paillier.PrivateKey, seed int64,
	wrap func(c transport.Conn, side string) transport.Conn) (*sessions, error) {
	k := len(skAs)
	s := &sessions{}
	for i := 0; i < k; i++ {
		ca, cb, err := tcpPair()
		if err != nil {
			s.close()
			return nil, err
		}
		if wrap != nil {
			ca, cb = wrap(ca, "a"), wrap(cb, "b")
		}
		s.conns = append(s.conns, ca, cb)
		a := protocol.NewPeer(protocol.PartyA, ca, skAs[i], protocol.SessionRNG(seed, i, protocol.PartyA))
		b := protocol.NewPeer(protocol.PartyB, cb, skB, protocol.SessionRNG(seed, i, protocol.PartyB))
		a.SetStreamIdentity(seed, i)
		b.SetStreamIdentity(seed, i)
		s.as = append(s.as, a)
		s.bs = append(s.bs, b)
	}
	t0 := time.Now()
	errs := make(chan error, 2*k)
	for i := 0; i < k; i++ {
		a, b := s.as[i], s.bs[i]
		go func() { errs <- a.Handshake() }()
		go func() { errs <- b.Handshake() }()
	}
	var first error
	for i := 0; i < 2*k; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	s.hs = time.Since(t0)
	if first != nil {
		s.close()
		return nil, fmt.Errorf("handshake: %w", first)
	}
	return s, nil
}

// wireBytes sums the bytes written on every connection end.
func (s *sessions) wireBytes() int64 {
	var n int64
	for _, c := range s.conns {
		_, b := c.Stats()
		n += b
	}
	return n
}

// wireMsgs sums the messages sent on every connection end.
func (s *sessions) wireMsgs() int64 {
	var n int64
	for _, c := range s.conns {
		m, _ := c.Stats()
		n += m
	}
	return n
}

func (s *sessions) close() {
	for _, c := range s.conns {
		c.Close()
	}
}

// fillPools registers fresh blinding pools for the keys under the engine
// options (replacing and closing any earlier ones) and waits until every
// pool is filled to capacity, so measurement starts from a full pool.
func fillPools(eng engine.Options, keys ...*paillier.PrivateKey) {
	eng.SetupKeys(keys...)
	for _, sk := range keys {
		if p := paillier.PoolFor(&sk.PublicKey); p != nil {
			p.WaitAvailable(eng.Pool)
		}
	}
}

// poolStats sums the pool counters over the keys.
func poolStats(keys ...*paillier.PrivateKey) paillier.PoolStats {
	var st paillier.PoolStats
	for _, sk := range keys {
		if p := paillier.PoolFor(&sk.PublicKey); p != nil {
			s := p.Stats()
			st.Hits += s.Hits
			st.Misses += s.Misses
			st.Lost += s.Lost
			st.Available += s.Available
		}
	}
	return st
}

// generateKeys makes n fresh key pairs of the given size. At 512 bits it
// reuses the protocol's fixed test keys (smoke mode), cycling the pair.
func generateKeys(n, bits int) ([]*paillier.PrivateKey, error) {
	keys := make([]*paillier.PrivateKey, n)
	if bits == 512 {
		a, b := protocol.TestKeys()
		for i := range keys {
			keys[i] = []*paillier.PrivateKey{a, b}[i%2]
		}
		return keys, nil
	}
	for i := range keys {
		sk, err := paillier.GenerateKey(paillier.Rand, bits)
		if err != nil {
			return nil, fmt.Errorf("keygen: %w", err)
		}
		keys[i] = sk
	}
	return keys, nil
}
