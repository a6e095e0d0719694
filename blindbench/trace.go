package main

import (
	"math/big"
	"sync/atomic"
	"time"

	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
	"blindfl/internal/transport"
)

// layerMetrics lists every per-layer metric of the traced run with its
// unit. Every traced run emits all of them; a layer a workload does not run
// reads 0. Training figures are per step and serving figures per lane-group
// batch unless the name says otherwise; ".a" is the feature party's view
// and ".b" the label party's. trace.traced_ms and trace.untraced_ms time
// the same work with and without tracing: a whole one-epoch training run,
// or the p50 request latency at the high serving rate.
var layerMetrics = []struct{ name, unit string }{
	{"transport.bytes_per_step", "bytes"},
	{"transport.msgs_per_step", "count"},
	{"transport.recv_wait_ms.a", "ms"},
	{"transport.recv_wait_ms.b", "ms"},
	{"paillier.pool_hits", "count"},
	{"paillier.pool_misses", "count"},
	{"paillier.pool_hit_ratio", "ratio"},
	{"paillier.pool_available_min", "count"},
	{"paillier.encrypt_us", "us"},
	{"paillier.decrypt_us", "us"},
	{"paillier.dot16_us", "us"},
	{"paillier.refill_us", "us"},
	{"hetensor.cache_hits", "count"},
	{"hetensor.cache_misses", "count"},
	{"hetensor.cache_hit_ratio", "ratio"},
	{"hetensor.cache_evictions", "count"},
	{"hetensor.cache_bytes", "bytes"},
	{"protocol.handshake_ms", "ms"},
	{"core.init_ms.a", "ms"},
	{"core.init_ms.b", "ms"},
	{"core.matmul.fwd_ms.a", "ms"},
	{"core.matmul.fwd_ms.b", "ms"},
	{"core.matmul.bwd_ms.a", "ms"},
	{"core.matmul.bwd_ms.b", "ms"},
	{"core.sparse_matmul.fwd_ms.a", "ms"},
	{"core.sparse_matmul.fwd_ms.b", "ms"},
	{"core.sparse_matmul.bwd_ms.a", "ms"},
	{"core.sparse_matmul.bwd_ms.b", "ms"},
	{"core.embed_matmul.fwd_ms.a", "ms"},
	{"core.embed_matmul.fwd_ms.b", "ms"},
	{"core.embed_matmul.bwd_ms.a", "ms"},
	{"core.embed_matmul.bwd_ms.b", "ms"},
	{"core.serve_forward_ms", "ms"},
	{"nn.head_fwd_ms", "ms"},
	{"nn.head_bwd_ms", "ms"},
	{"model.step_ms_p50", "ms"},
	{"model.step_ms_max", "ms"},
	{"model.eval_ms", "ms"},
	{"model.ckpt_save_ms", "ms"},
	{"model.ckpt_bytes", "bytes"},
	{"model.predictor_restore_ms", "ms"},
	{"data.generate_ms", "ms"},
	{"serve.batch_size_mean", "count"},
	{"serve.queue_wait_ms_tail", "ms"},
	{"serve.shed", "count"},
	{"loadgen.lag_ms_tail", "ms"},
	{"unattributed_ms", "ms"},
	{"trace.coverage_min", "ratio"},
	{"trace.traced_ms", "ms"},
	{"trace.untraced_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// newTraceResult returns a result with every per-layer metric at 0.
func newTraceResult() *result {
	r := newResult()
	for _, m := range layerMetrics {
		r.put(m.name, 0, m.unit)
	}
	return r
}

// set overwrites a per-layer metric, keeping its declared unit.
func (r *result) set(name string, v float64) {
	m := r.Metrics[name]
	m.Value = v
	r.Metrics[name] = m
}

// timedConn is the traced run's transport wrapper: it adds the time every
// Recv blocks to its party's wait counter. It sits under the protocol's
// own stream wrapper, so it sees exactly the wire receives.
type timedConn struct {
	transport.Conn
	wait *atomic.Int64 // nanoseconds, shared by every connection of one party
}

func (c *timedConn) Recv() (any, error) {
	t0 := time.Now()
	v, err := c.Conn.Recv()
	c.wait.Add(int64(time.Since(t0)))
	return v, err
}

// span is one timed call into a layer: its wall time and how much of it
// the calling party spent blocked in Recv (its transport.recv_wait child).
type span struct {
	name string
	step int // -1 outside the step loop
	dur  time.Duration
	wait time.Duration
}

// self is the span's duration minus its recv-wait children.
func (s span) self() time.Duration { return s.dur - s.wait }

// party is one party's trace: the spans its goroutine records, in memory
// until the run ends, and its receive-wait counter. Only that goroutine
// appends spans; the aggregation reads them after it has finished.
type party struct {
	wait  atomic.Int64
	step  int
	spans []span
	steps []span // one per step loop iteration
}

func newParty() *party { return &party{step: -1} }

// wrap returns c with its receives counted against this party.
func (p *party) wrap(c transport.Conn) transport.Conn { return &timedConn{Conn: c, wait: &p.wait} }

// do runs f as a span of the named layer call.
func (p *party) do(name string, f func()) {
	w0 := p.wait.Load()
	t0 := time.Now()
	f()
	p.spans = append(p.spans, span{name: name, step: p.step, dur: time.Since(t0), wait: time.Duration(p.wait.Load() - w0)})
}

// runStep runs one step loop iteration as a step span.
func (p *party) runStep(i int, f func()) {
	p.step = i
	w0 := p.wait.Load()
	t0 := time.Now()
	f()
	p.steps = append(p.steps, span{name: "step", step: i, dur: time.Since(t0), wait: time.Duration(p.wait.Load() - w0)})
	p.step = -1
}

// stepSelf returns the mean per-step self time of the named layer.
func (p *party) stepSelf(name string) time.Duration {
	if len(p.steps) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range p.spans {
		if s.name == name && s.step >= 0 {
			sum += s.self()
		}
	}
	return sum / time.Duration(len(p.steps))
}

// durTotal and selfTotal sum the duration, or the self time, of the named
// spans outside the step loop.
func (p *party) durTotal(name string) time.Duration {
	return p.sumOutside(name, func(s span) time.Duration { return s.dur })
}

func (p *party) selfTotal(name string) time.Duration { return p.sumOutside(name, span.self) }

func (p *party) sumOutside(name string, f func(span) time.Duration) time.Duration {
	var sum time.Duration
	for _, s := range p.spans {
		if s.name == name && s.step < 0 {
			sum += f(s)
		}
	}
	return sum
}

// coverage checks every step: layer self times plus the recv-wait children
// should add up to the step's wall time. It returns the mean unattributed
// time per step and the smallest share of a step the layer spans covered.
func (p *party) coverage() (unattributed time.Duration, minShare float64) {
	minShare = 1
	covered := make(map[int]time.Duration)
	for _, s := range p.spans {
		if s.step >= 0 {
			covered[s.step] += s.dur // self + recv wait inside the span
		}
	}
	for _, st := range p.steps {
		gap := st.dur - covered[st.step]
		unattributed += gap
		if share := float64(covered[st.step]) / float64(st.dur); share < minShare {
			minShare = share
		}
	}
	if len(p.steps) > 0 {
		unattributed /= time.Duration(len(p.steps))
	}
	return unattributed, minShare
}

// meanWait returns the mean recv wait per step.
func (p *party) meanWait() time.Duration {
	if len(p.steps) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range p.steps {
		sum += s.wait
	}
	return sum / time.Duration(len(p.steps))
}

// stepWalls returns the step wall times in ms.
func (p *party) stepWalls() []float64 {
	out := make([]float64, len(p.steps))
	for i, s := range p.steps {
		out[i] = ms(s.dur)
	}
	return out
}

// poolSampler records the smallest buffered-blinding count over the keys'
// pools, sampled every millisecond until stop returns.
type poolSampler struct {
	min  atomic.Int64
	quit chan struct{}
	done chan struct{}
}

func samplePools(keys []*paillier.PrivateKey) *poolSampler {
	s := &poolSampler{quit: make(chan struct{}), done: make(chan struct{})}
	s.min.Store(1 << 62)
	go func() {
		defer close(s.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			for _, sk := range keys {
				if p := paillier.PoolFor(&sk.PublicKey); p != nil {
					if a := int64(p.Stats().Available); a < s.min.Load() {
						s.min.Store(a)
					}
				}
			}
			select {
			case <-s.quit:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling, waits for the sampler to exit and returns the minimum.
func (s *poolSampler) stop() int64 {
	close(s.quit)
	<-s.done
	return s.min.Load()
}

// counters snapshots the pool, dot-table cache and wire counters a traced
// section reports as deltas.
type counters struct {
	pool  paillier.PoolStats
	cache hetensor.TableCacheStats
	bytes int64
	msgs  int64
}

func snapshot(keys []*paillier.PrivateKey, s *sessions) counters {
	return counters{pool: poolStats(keys...), cache: hetensor.TableCacheStatsNow(), bytes: s.wireBytes(), msgs: s.wireMsgs()}
}

// putDeltas reports the counter deltas between two snapshots per unit of
// work (steps or batches).
func (r *result) putDeltas(c0, c1 counters, units int) {
	if units < 1 {
		units = 1
	}
	per := func(d int64) float64 { return float64(d) / float64(units) }
	hits, misses := c1.pool.Hits-c0.pool.Hits, c1.pool.Misses-c0.pool.Misses
	r.set("paillier.pool_hits", per(hits))
	r.set("paillier.pool_misses", per(misses))
	r.set("paillier.pool_hit_ratio", ratio(hits, hits+misses))
	ch, cm := c1.cache.Hits-c0.cache.Hits, c1.cache.Misses-c0.cache.Misses
	r.set("hetensor.cache_hits", per(ch))
	r.set("hetensor.cache_misses", per(cm))
	r.set("hetensor.cache_hit_ratio", ratio(ch, ch+cm))
	r.set("hetensor.cache_evictions", per(c1.cache.Evicted-c0.cache.Evicted))
	r.set("hetensor.cache_bytes", float64(c1.cache.Bytes))
	r.set("transport.bytes_per_step", per(c1.bytes-c0.bytes))
	r.set("transport.msgs_per_step", per(c1.msgs-c0.msgs))
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// kernelCosts times the Paillier kernels on the workload's own key: an
// unpooled encryption, a decryption, a 16-term Straus dot with 64-bit
// signed exponents, and one blinding refill of a single-worker pool built
// with the engine's options. n is the repetition count of each.
func kernelCosts(r *result, sk *paillier.PrivateKey, shortExp, n int) error {
	pk := &sk.PublicKey
	var ct *paillier.Ciphertext
	var err error
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if ct, err = pk.Encrypt(paillier.Rand, bigOf(uint64(i+1))); err != nil {
			return err
		}
	}
	r.set("paillier.encrypt_us", usPer(time.Since(t0), n))

	t0 = time.Now()
	for i := 0; i < n; i++ {
		sk.Decrypt(ct)
	}
	r.set("paillier.decrypt_us", usPer(time.Since(t0), n))

	cs := make([]*paillier.Ciphertext, 16)
	es := make([]paillier.SignedExp, 16)
	for i := range cs {
		if cs[i], err = pk.Encrypt(paillier.Rand, bigOf(uint64(i+7))); err != nil {
			return err
		}
		es[i] = paillier.SignedExp{Mag: bigOf(0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9), Neg: i%3 == 0}
	}
	t0 = time.Now()
	for i := 0; i < n; i++ {
		pk.DotRow(cs, es)
	}
	r.set("paillier.dot16_us", usPer(time.Since(t0), n))

	var opts []paillier.PoolOption
	if shortExp > 0 {
		opts = append(opts, paillier.WithShortExp(shortExp))
	}
	pool := paillier.NewPool(pk, n, 1, paillier.Rand, opts...)
	t0 = time.Now()
	pool.WaitAvailable(n)
	r.set("paillier.refill_us", usPer(time.Since(t0), n))
	pool.Close()
	return nil
}

func usPer(d time.Duration, n int) float64 {
	return float64(d) / float64(time.Microsecond) / float64(n)
}

func bigOf(x uint64) *big.Int { return new(big.Int).SetUint64(x) }
