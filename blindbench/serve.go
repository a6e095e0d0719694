package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"blindfl/internal/data"
	"blindfl/internal/model"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
	"blindfl/internal/rng"
	"blindfl/internal/serve"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// serveStack is a live serving deployment: a checkpoint trained on k
// feature-party sessions, a Predictor restored from it on fresh sessions,
// and the batching server in front of it.
type serveStack struct {
	ds    *data.Dataset
	hist  *model.History // the checkpointing run: TestLogits is the oracle
	sess  *sessions      // the serve sessions
	pred  *model.Predictor
	srv   *serve.Server
	testA []*tensor.Dense // feature party i's test columns
	keys  []*paillier.PrivateKey

	poolCap int

	restore time.Duration // NewPredictor wall time
	dataGen time.Duration // data.Generate wall time
}

func (st *serveStack) close() {
	if st.srv != nil {
		st.srv.Close()
	}
	if st.sess != nil {
		st.sess.close()
	}
}

// request returns test row r as a serve request.
func (st *serveStack) request(r int) serve.Request {
	req := serve.Request{XAs: make([]*tensor.Dense, len(st.testA)), XB: st.ds.TestB.Dense.RowSlice(r, r+1)}
	for i, x := range st.testA {
		req.XAs[i] = x.RowSlice(r, r+1)
	}
	return req
}

// matches reports whether a response's logits equal the checkpointing
// run's test logits for row r bit for bit.
func (st *serveStack) matches(r int, logits *tensor.Dense) bool {
	return logits != nil && sameBits(logits, st.hist.TestLogits.RowSlice(r, r+1))
}

// buildServe trains the serving checkpoint on k TCP sessions, restores a
// Predictor on fresh sessions, starts the server, warms it up with a few
// full lane groups and refills the pools. keys holds the k feature-party
// keys followed by the label party's. wrap is passed to dialSessions for
// the serve sessions (the traced run's timing wrapper).
func buildServe(e *env, w *Workload, keys []*paillier.PrivateKey,
	wrap func(c transport.Conn, side string) transport.Conn) (*serveStack, error) {
	k := w.Parties
	kind, err := model.ParseKind(w.Kind)
	if err != nil {
		return nil, err
	}
	st := &serveStack{keys: keys, poolCap: e.eng.Pool}
	t0 := time.Now()
	st.ds = data.Generate(w.spec(), e.seed)
	st.dataGen = time.Since(t0)
	fillPools(e.eng, keys...)

	train, err := dialSessions(keys[:k], keys[k], e.seed, nil)
	if err != nil {
		return nil, err
	}
	var ck bytes.Buffer
	hist, err := model.Trainer{Kind: kind, Hyper: w.hyper(e.seed, e.eng), Checkpoint: &ck}.
		Train(st.ds, model.PartySet{As: train.as, B: protocol.NewGroup(train.bs)})
	train.close()
	if err != nil {
		return nil, fmt.Errorf("train serving checkpoint: %w", err)
	}
	st.hist = hist

	// The serve sessions draw their streams from a seed of their own, so
	// they never replay the training sessions' masks.
	if st.sess, err = dialSessions(keys[:k], keys[k], int64(rng.Session(e.seed, 0, 1, 7)), wrap); err != nil {
		return nil, err
	}
	t1 := time.Now()
	st.pred, err = model.NewPredictor(bytes.NewReader(ck.Bytes()), model.PartySet{As: st.sess.as, B: protocol.NewGroup(st.sess.bs)})
	st.restore = time.Since(t1)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("restore predictor: %w", err)
	}
	for _, p := range data.SplitCols(st.ds.TestA, k) {
		st.testA = append(st.testA, p.Dense)
	}
	st.srv = serve.NewServer(st.pred, serve.Config{})

	lanes := st.pred.Lanes()
	warm := serve.RunLoad(st.srv, func(i int) serve.Request { return st.request(i % st.ds.TestB.Dense.Rows) }, lanes, 2*lanes)
	if warm.OK != 2*lanes {
		st.close()
		return nil, fmt.Errorf("warm-up: %d of %d requests served", warm.OK, 2*lanes)
	}
	st.waitPools()
	return st, nil
}

// phase is the outcome of one open-loop phase.
type phase struct {
	Rate        float64 `json:"rate"`
	Sent        int     `json:"sent"`
	OK          int     `json:"ok"`
	Shed        int     `json:"shed"`
	Failed      int     `json:"failed"`
	Mismatched  int     `json:"mismatched"`
	Outstanding int     `json:"outstanding"` // still unanswered a latency limit after the last arrival
	Backlog     bool    `json:"backlog"`
	P50MS       float64 `json:"p50_ms"`
	TailMS      float64 `json:"tail_ms"`
	Tail        string  `json:"tail"`        // which percentile TailMS is
	LagTailMS   float64 `json:"lag_tail_ms"` // generator lateness at the tail percentile
	LagTail     string  `json:"lag_tail"`
	Bytes       int64   `json:"bytes"`

	latMS []float64 // due-time latency of every OK request, in due order
	dues  []time.Duration
}

// meets reports whether the phase met the latency limit: nothing shed,
// failed or mismatched, no backlog, and the tail at or under the limit.
func (p *phase) meets(limitMS float64) bool {
	return p.Shed == 0 && p.Failed == 0 && p.Mismatched == 0 && !p.Backlog && p.Tail != "" && p.TailMS <= limitMS
}

// openLoop sends single-row requests at Poisson arrivals of the given rate
// for window, from this goroutine, each request answered on its own
// goroutine. Latency is measured from each request's due time, so a late
// generator or a stalled server both show. Rows and arrivals come from rnd.
func openLoop(st *serveStack, rate float64, window time.Duration, limitMS float64, rnd *rand.Rand) *phase {
	dues := poissonArrivals(rnd, rate, window)
	n := len(dues)
	rows := make([]int, n)
	for i := range rows {
		rows[i] = rnd.Intn(st.ds.TestB.Dense.Rows)
	}
	type outcome struct {
		done time.Time
		err  error
		ok   bool
	}
	outs := make([]outcome, n)
	lags := make([]float64, n)
	b0 := st.sess.wireBytes()
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range dues {
		due := start.Add(d)
		time.Sleep(time.Until(due))
		lags[i] = ms(time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := st.srv.Predict(st.request(rows[i]))
			outs[i] = outcome{done: time.Now(), err: resp.Err, ok: resp.Err == nil && st.matches(rows[i], resp.Logits)}
		}()
	}
	wg.Wait()

	p := &phase{Rate: rate, Sent: n}
	cutoff := start.Add(window).Add(time.Duration(limitMS * float64(time.Millisecond)))
	for i, o := range outs {
		switch {
		case o.err == serve.ErrOverloaded:
			p.Shed++
		case o.err != nil:
			p.Failed++
		case !o.ok:
			p.Mismatched++
		default:
			p.OK++
			p.latMS = append(p.latMS, ms(o.done.Sub(start.Add(dues[i]))))
			p.dues = append(p.dues, dues[i])
		}
		if o.done.After(cutoff) {
			p.Outstanding++
		}
	}
	p.Bytes = st.sess.wireBytes() - b0
	p.Backlog = backlogged(p.dues, p.latMS, p.Outstanding, limitMS)
	p.P50MS, _ = percentile(p.latMS, 0.5)
	p.TailMS, p.Tail, _ = tailPercentile(p.latMS)
	p.LagTailMS, p.LagTail, _ = tailPercentile(lags)
	return p
}

// maxRate bisects between lo (a rate that met the limit) and hi for the
// highest Poisson rate that meets it, in probes probes of length probe.
func maxRate(st *serveStack, lo, hi float64, probes int, probe time.Duration, limitMS float64, rnd *rand.Rand) (float64, []*phase) {
	var runs []*phase
	for i := 0; i < probes; i++ {
		mid := (lo + hi) / 2
		p := openLoop(st, mid, probe, limitMS, rnd)
		runs = append(runs, p)
		if p.meets(limitMS) {
			lo = mid
		} else {
			hi = mid
		}
		// Let a failed probe's queue drain and the pools refill, so the
		// next probe starts from the same state as the first.
		time.Sleep(time.Duration(limitMS) * time.Millisecond)
		st.waitPools()
	}
	return lo, runs
}

// closedRun counts a closed-loop run's requests.
type closedRun struct{ sent, bad int }

func (c *closedRun) add(o closedRun) { c.sent += o.sent; c.bad += o.bad }

// serveBlocks is how many lone-client and capacity blocks a run alternates.
const serveBlocks = 4

// burstGap separates the answers of two batches: the server answers every
// request of a batch within microseconds, and batches take milliseconds.
const burstGap = time.Millisecond

// closedLoop runs clients closed-loop clients against the server for
// window: each sends its next request as soon as its last is answered. It
// returns the steady-state rate of answered requests — over those answered
// after a ramp-up of a tenth of the window and before it closes, so
// neither the clients' start nor the final drain counts, measured burst to
// burst (burstRate) — and every request's latency. Every response is
// checked against the oracle logits.
func (st *serveStack) closedLoop(clients int, window time.Duration, rnd *rand.Rand) (float64, []float64, closedRun) {
	seeds := make([]int64, clients)
	for i := range seeds {
		seeds[i] = rnd.Int63()
	}
	var mu sync.Mutex
	var run closedRun
	var lats []float64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	steady := start.Add(window / 10)
	var inWindow []time.Time
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(seeds[c]))
			for time.Now().Before(deadline) {
				row := r.Intn(st.ds.TestB.Dense.Rows)
				t0 := time.Now()
				resp := st.srv.Predict(st.request(row))
				done := time.Now()
				good := resp.Err == nil && st.matches(row, resp.Logits)
				mu.Lock()
				run.sent++
				switch {
				case !good:
					run.bad++
				default:
					lats = append(lats, ms(done.Sub(t0)))
					if done.After(steady) && done.Before(deadline) {
						inWindow = append(inWindow, done)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return burstRate(inWindow, burstGap), lats, run
}

// waitPools waits until every key's blinding pool is full again.
func (st *serveStack) waitPools() {
	for _, sk := range st.keys {
		if pool := paillier.PoolFor(&sk.PublicKey); pool != nil {
			pool.WaitAvailable(st.poolCap)
		}
	}
}

func runServe(e *env, w *Workload) (*result, error) {
	keys, err := generateKeys(w.Parties+1, e.keyBits)
	if err != nil {
		return nil, err
	}
	var st *serveStack
	var setups []float64
	for i := 0; i < e.setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		if st, err = buildServe(e, w, keys, nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()

	// The measuring window splits into alternating lone-client and
	// closed-loop capacity blocks (60%), the low phase (15%), the high phase
	// (15%) and the max-rate probes (10%), with the pools refilled between
	// phases. The bounded metrics are medians over the blocks, so a slow
	// stretch of the run moves one block, not the result.
	frac := func(f float64) time.Duration { return time.Duration(f * float64(e.seconds)) }
	rnd := rand.New(rand.NewSource(int64(rng.Session(e.seed, 0, 2, 9))))
	var loneRun, capRun closedRun
	var loneP50s, capRates []float64
	var capBytes int64
	for b := 0; b < serveBlocks; b++ {
		_, lats, run := st.closedLoop(1, frac(0.6*0.4/serveBlocks), rnd)
		loneRun.add(run)
		loneP50s = append(loneP50s, median(lats))
		st.waitPools()
		b0 := st.sess.wireBytes()
		rate, _, run := st.closedLoop(2*st.pred.Lanes(), frac(0.6*0.6/serveBlocks), rnd)
		capBytes += st.sess.wireBytes() - b0
		capRun.add(run)
		capRates = append(capRates, rate)
		st.waitPools()
	}
	low := openLoop(st, w.LowRPS, frac(0.15), w.LatencyLimitMS, rnd)
	st.waitPools()
	high := openLoop(st, w.HighRPS, frac(0.15), w.LatencyLimitMS, rnd)
	st.waitPools()
	capacity := median(capRates)
	best, probes := maxRate(st, w.HighRPS, math.Max(capacity, w.HighRPS), w.Probes,
		frac(0.1)/time.Duration(max(w.Probes, 1)), w.LatencyLimitMS, rnd)

	res := newResult()
	for _, p := range []*phase{low, high} {
		res.Attempted += p.Sent
		if bad := p.Shed + p.Failed + p.Mismatched; bad > 0 {
			res.failN(bad, "rate %.0f/s: %d shed, %d failed, %d logits differ from the checkpoint's test logits",
				p.Rate, p.Shed, p.Failed, p.Mismatched)
		}
	}
	for _, c := range []struct {
		name string
		run  closedRun
	}{{"lone-client run", loneRun}, {"capacity run", capRun}} {
		res.Attempted += c.run.sent
		if c.run.bad > 0 {
			res.failN(c.run.bad, "%s: %d of %d requests shed, failed or mismatched", c.name, c.run.bad, c.run.sent)
		}
	}
	for _, p := range probes {
		res.Attempted += p.Sent
		if p.Mismatched > 0 {
			res.fail("probe at %.0f/s: %d logits differ from the checkpoint's test logits", p.Rate, p.Mismatched)
		}
	}
	res.put("setup_s", median(setups), "s")
	res.put("throughput_per_s", capacity, "1/s")
	lone := median(loneP50s)
	res.put("latency_p50_ms", lone, "ms")
	res.put("wire_kib_per_op", float64(capBytes)/float64(max(1, capRun.sent-capRun.bad))/1024, "KiB")
	res.put("peak_rss_mb", peakRSSMiB(), "MiB")
	res.report["serve"] = map[string]any{
		"lanes": st.pred.Lanes(), "lone_p50_ms": loneP50s, "capacity_rps": capRates,
		"low": low, "high": high, "max_rps": best, "probes": probes, "latency_limit_ms": w.LatencyLimitMS,
		"checkpoint_auc": st.hist.TestMetric, "setup_s": setups,
	}
	return res, nil
}
