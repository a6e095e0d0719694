package main

import (
	"math/rand"
	"slices"
	"time"

	"blindfl/internal/rng"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// traceServe is the traced run of the serving workload. It serves the high
// rate twice with the same arrivals and rows, first on an untraced stack and
// then on one whose connections carry the timing wrapper (the difference is
// the tracing overhead), and then calls Predictor.PredictBatch directly on
// full lane groups with a span around each call.
func traceServe(e *env, w *Workload) (*result, error) {
	keys, err := generateKeys(w.Parties+1, e.keyBits)
	if err != nil {
		return nil, err
	}
	frac := func(f float64) time.Duration { return time.Duration(f * float64(e.seconds)) }
	arrivals := int64(rng.Session(e.seed, 0, 3, 9))
	res := newTraceResult()

	st0, err := buildServe(e, w, keys, nil)
	if err != nil {
		return nil, err
	}
	untraced := openLoop(st0, w.HighRPS, frac(0.25), w.LatencyLimitMS, rand.New(rand.NewSource(arrivals)))
	st0.close()

	pa, pb := newParty(), newParty()
	st, err := buildServe(e, w, keys, func(c transport.Conn, side string) transport.Conn {
		if side == "a" {
			return pa.wrap(c)
		}
		return pb.wrap(c)
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	res.set("data.generate_ms", ms(st.dataGen))
	res.set("model.predictor_restore_ms", ms(st.restore))
	res.set("protocol.handshake_ms", ms(st.sess.hs))

	// Open loop at the high rate: batching, queueing, shedding and the
	// pools under bursts.
	s0 := st.srv.Stats()
	c0 := snapshot(keys, st.sess)
	sampler := samplePools(keys)
	traced := openLoop(st, w.HighRPS, frac(0.25), w.LatencyLimitMS, rand.New(rand.NewSource(arrivals)))
	poolMin := sampler.stop()
	c1 := snapshot(keys, st.sess)
	s1 := st.srv.Stats()
	batches := int(s1.Batches - s0.Batches)
	res.putDeltas(c0, c1, batches)
	res.set("paillier.pool_available_min", float64(poolMin))
	if batches > 0 {
		res.set("serve.batch_size_mean", float64(s1.Served-s0.Served)/float64(batches))
	}
	res.set("serve.shed", float64(s1.Shed-s0.Shed))
	res.set("loadgen.lag_ms_tail", traced.LagTailMS)
	for _, p := range []*phase{untraced, traced} {
		res.Attempted += p.Sent
		if bad := p.Shed + p.Failed + p.Mismatched; bad > 0 {
			res.failN(bad, "rate %.0f/s: %d shed, %d failed, %d logits differ from the checkpoint's test logits",
				p.Rate, p.Shed, p.Failed, p.Mismatched)
		}
	}

	// Direct lane-group batches: the serve forward's own cost, per batch.
	rnd := rand.New(rand.NewSource(arrivals + 1))
	lanes := st.pred.Lanes()
	var walls, waitsA, waitsB []float64
	var bytesPer, msgsPer []float64
	deadline := time.Now().Add(frac(0.2))
	for len(walls) == 0 || time.Now().Before(deadline) {
		rows := make([]int, lanes)
		for i := range rows {
			rows[i] = rnd.Intn(st.ds.TestB.Dense.Rows)
		}
		xAs := make([]*tensor.Dense, len(st.testA))
		for i, x := range st.testA {
			xAs[i] = x.GatherRows(rows)
		}
		xB := st.ds.TestB.Dense.GatherRows(rows)
		wa0, wb0, b0, m0 := pa.wait.Load(), pb.wait.Load(), st.sess.wireBytes(), st.sess.wireMsgs()
		t0 := time.Now()
		logits, err := st.pred.PredictBatch(xAs, xB)
		walls = append(walls, ms(time.Since(t0)))
		waitsA = append(waitsA, ms(time.Duration(pa.wait.Load()-wa0)))
		waitsB = append(waitsB, ms(time.Duration(pb.wait.Load()-wb0)))
		bytesPer = append(bytesPer, float64(st.sess.wireBytes()-b0))
		msgsPer = append(msgsPer, float64(st.sess.wireMsgs()-m0))
		res.Attempted += lanes
		if err != nil {
			res.fail("PredictBatch: %v", err)
			continue
		}
		for j, r := range rows {
			if !st.matches(r, logits.RowSlice(j, j+1)) {
				res.fail("direct batch row %d: logits differ from the checkpoint's test logits", r)
			}
		}
	}
	fwd := median(walls)
	res.set("core.serve_forward_ms", fwd)
	res.set("model.step_ms_p50", fwd)
	res.set("model.step_ms_max", slices.Max(walls))
	res.set("transport.recv_wait_ms.a", median(waitsA))
	res.set("transport.recv_wait_ms.b", median(waitsB))
	res.set("transport.bytes_per_step", median(bytesPer))
	res.set("transport.msgs_per_step", median(msgsPer))
	// One layer call is the whole batch, so the span covers it exactly.
	res.set("trace.coverage_min", 1)

	// Queue wait: a request's due-time latency beyond a lone request's
	// service time — queueing, the flush wait, and the extra cost of sharing
	// a batch. The server does not expose which batch served a request, so
	// the lone-client median stands in for the request's own service time.
	st.waitPools()
	_, loneLats, loneRun := st.closedLoop(1, frac(0.1), rnd)
	res.Attempted += loneRun.sent
	if loneRun.bad > 0 {
		res.failN(loneRun.bad, "lone-client run: %d of %d requests shed, failed or mismatched", loneRun.bad, loneRun.sent)
	}
	service := median(loneLats)
	queue := make([]float64, len(traced.latMS))
	for i, l := range traced.latMS {
		queue[i] = max(0, l-service)
	}
	qTail, qLabel, _ := tailPercentile(queue)
	res.set("serve.queue_wait_ms_tail", qTail)
	res.set("trace.traced_ms", traced.P50MS)
	res.set("trace.untraced_ms", untraced.P50MS)
	res.set("trace.overhead_pct", 100*(traced.P50MS/untraced.P50MS-1))

	if err := kernelCosts(res, keys[len(keys)-1], e.eng.ShortExp, kernelReps(e)); err != nil {
		return nil, err
	}
	res.report["trace"] = map[string]any{
		"untraced_high": untraced, "traced_high": traced, "direct_batches": len(walls),
		"queue_wait_tail": qLabel, "lone_service_ms": service, "overhead_basis": "p50 latency at the high rate, traced vs untraced",
	}
	return res, nil
}
