package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"blindfl/internal/core"
	"blindfl/internal/data"
	"blindfl/internal/model"
	"blindfl/internal/nn"
	"blindfl/internal/protocol"
	"blindfl/internal/rng"
	"blindfl/internal/tensor"
	"blindfl/internal/transport"
)

// Layer halves the traced training loop drives. Each mirrors one party's
// half of the workload's source layers, built through the core
// constructors and called through their Forward/Backward/Save methods.

type srcA interface {
	init()
	forward(x data.Part)
	backward()
	save(w *bytes.Buffer) error
	eval(x data.Part)
}

type srcB interface {
	init()
	forward(x data.Part) (zNum, zEmb *tensor.Dense)
	backward(gNum, gEmb *tensor.Dense)
	save(w *bytes.Buffer) error
	eval(x data.Part) (zNum, zEmb *tensor.Dense) // untraced forward for evaluation
}

// denseA/denseB: the dense MatMul source layer (train-dense). Evaluation
// runs the exact-integer serve forward, as Trainer does for dense models.
type denseA struct {
	p      *party
	mk     func() *core.MatMulA
	l      *core.MatMulA
	served bool
}

func (d *denseA) init() { d.p.do("core.init", func() { d.l = d.mk() }) }
func (d *denseA) forward(x data.Part) {
	d.p.do("core.matmul.fwd", func() { d.l.Forward(core.DenseFeatures{M: x.Dense}) })
}
func (d *denseA) backward()                  { d.p.do("core.matmul.bwd", d.l.Backward) }
func (d *denseA) save(w *bytes.Buffer) error { return d.l.Save(w) }
func (d *denseA) eval(x data.Part) {
	if !d.served {
		d.l.ServeStart()
		d.served = true
	}
	d.l.ServeForward(x.Dense)
}

type denseB struct {
	p      *party
	mk     func() *core.MatMulB
	l      *core.MatMulB
	served bool
}

func (d *denseB) init() { d.p.do("core.init", func() { d.l = d.mk() }) }
func (d *denseB) forward(x data.Part) (z, _ *tensor.Dense) {
	d.p.do("core.matmul.fwd", func() { z = d.l.Forward(core.DenseFeatures{M: x.Dense}) })
	return z, nil
}
func (d *denseB) backward(g, _ *tensor.Dense) { d.p.do("core.matmul.bwd", func() { d.l.Backward(g) }) }
func (d *denseB) save(w *bytes.Buffer) error  { return d.l.Save(w) }
func (d *denseB) eval(x data.Part) (z, _ *tensor.Dense) {
	if !d.served {
		d.l.ServeStart()
		d.served = true
	}
	return d.l.ServeForward(x.Dense), nil
}

// sparseCatA/sparseCatB: the SparseMatMul plus Embed-MatMul source layers
// of WDL (train-sparse-cat).
type sparseCatA struct {
	p   *party
	mk  func() (*core.SparseMatMulA, *core.EmbedMatMulA)
	num *core.SparseMatMulA
	emb *core.EmbedMatMulA
}

func (s *sparseCatA) init() { s.p.do("core.init", func() { s.num, s.emb = s.mk() }) }
func (s *sparseCatA) forward(x data.Part) {
	s.p.do("core.sparse_matmul.fwd", func() { s.num.Forward(x.Sparse) })
	s.p.do("core.embed_matmul.fwd", func() { s.emb.Forward(x.Cat) })
}
func (s *sparseCatA) backward() {
	s.p.do("core.sparse_matmul.bwd", s.num.Backward)
	s.p.do("core.embed_matmul.bwd", s.emb.Backward)
}
func (s *sparseCatA) save(*bytes.Buffer) error { return nil }
func (s *sparseCatA) eval(x data.Part) {
	s.num.Forward(x.Sparse)
	s.emb.Forward(x.Cat)
}

type sparseCatB struct {
	p   *party
	mk  func() (*core.SparseMatMulB, *core.EmbedMatMulB)
	num *core.SparseMatMulB
	emb *core.EmbedMatMulB
}

func (s *sparseCatB) init() { s.p.do("core.init", func() { s.num, s.emb = s.mk() }) }
func (s *sparseCatB) forward(x data.Part) (zNum, zEmb *tensor.Dense) {
	s.p.do("core.sparse_matmul.fwd", func() { zNum = s.num.Forward(x.Sparse) })
	s.p.do("core.embed_matmul.fwd", func() { zEmb = s.emb.Forward(x.Cat) })
	return zNum, zEmb
}
func (s *sparseCatB) backward(gNum, gEmb *tensor.Dense) {
	s.p.do("core.sparse_matmul.bwd", func() { s.num.Backward(gNum) })
	s.p.do("core.embed_matmul.bwd", func() { s.emb.Backward(gEmb) })
}
func (s *sparseCatB) save(*bytes.Buffer) error { return nil }
func (s *sparseCatB) eval(x data.Part) (zNum, zEmb *tensor.Dense) {
	return s.num.Forward(x.Sparse), s.emb.Forward(x.Cat)
}

// head is the label party's plaintext top model, built exactly as the
// model package builds it (same init stream), so the traced loop trains
// the same model as Trainer.
type head struct {
	kind model.Kind
	seq  *nn.Sequential
	opt  *nn.SGD
}

func newHead(kind model.Kind, h model.Hyper) *head {
	top := rng.New(h.Seed, "head-init")
	hd := &head{kind: kind, seq: nn.NewSequential(&nn.ReLU{}, nn.NewLinear(top, h.Hidden[0], 1))}
	hd.opt = nn.NewSGD(h.LR, h.Momentum, hd.seq.Params())
	return hd
}

// forward maps source outputs to logits: MLP(z) for mlp, z_wide + MLP(z_deep)
// for wdl.
func (hd *head) forward(zNum, zEmb *tensor.Dense) *tensor.Dense {
	if hd.kind == model.WDL {
		return zNum.Add(hd.seq.Forward(zEmb))
	}
	return hd.seq.Forward(zNum)
}

// backward steps the head's optimizer and returns the source gradients.
func (hd *head) backward(g *tensor.Dense) (gNum, gEmb *tensor.Dense) {
	hd.opt.ZeroGrad()
	gh := hd.seq.Backward(g)
	hd.opt.Step()
	if hd.kind == model.WDL {
		return g, gh
	}
	return gh, nil
}

// tracedRun is what the traced training loop produced.
type tracedRun struct {
	losses  []float64
	logits  *tensor.Dense
	wall    time.Duration
	ckBytes int64
	c0, c1  counters
	poolMin int64
	epochs  int
}

// drive trains the workload's model through the core layers directly, the
// feature party on pa and the label party on pb, with a span around every
// layer call. It follows Trainer's schedule exactly (init, per-epoch mask
// re-seeding and batch order, evaluation), so it trains the same model.
func (tb *trainBench) drive(s *sessions, pa, pb *party) (*tracedRun, error) {
	ds, h, kind := tb.ds, tb.h, tb.kind
	a, b := s.as[0], s.bs[0]
	inA, inB := ds.TrainA.NumCols(), ds.TrainB.NumCols()
	var la srcA
	var lb srcB
	switch kind {
	case model.MLP:
		cfg := core.Config{Out: h.Hidden[0], LR: h.LR, Momentum: h.Momentum, Options: h.Options}
		la = &denseA{p: pa, mk: func() *core.MatMulA { return core.NewMatMulA(a, cfg, inA, inB) }}
		lb = &denseB{p: pb, mk: func() *core.MatMulB { return core.NewMatMulB(b, cfg, inA, inB) }}
	case model.WDL:
		cfg := core.Config{Out: 1, LR: h.LR, Momentum: h.Momentum, Options: h.Options}
		ecfg := core.EmbedConfig{
			Config: core.Config{Out: h.Hidden[0], LR: h.LR, Momentum: h.Momentum, Options: h.Options},
			VocabA: ds.Spec.CatVocab, VocabB: ds.Spec.CatVocab,
			FieldsA: ds.TrainA.Cat.Cols, FieldsB: ds.TrainB.Cat.Cols, Dim: h.EmbDim,
		}
		la = &sparseCatA{p: pa, mk: func() (*core.SparseMatMulA, *core.EmbedMatMulA) {
			return core.NewSparseMatMulA(a, cfg, inA, inB), core.NewEmbedMatMulA(a, ecfg)
		}}
		lb = &sparseCatB{p: pb, mk: func() (*core.SparseMatMulB, *core.EmbedMatMulB) {
			return core.NewSparseMatMulB(b, cfg, inA, inB), core.NewEmbedMatMulB(b, ecfg)
		}}
	default:
		return nil, fmt.Errorf("traced run covers mlp and wdl, not %s", kind)
	}

	out := &tracedRun{epochs: h.Epochs}
	var ckA, ckB int64
	var sampler *poolSampler
	var saveErrA, saveErrB error
	// save writes one party's layer state to a file in the work directory,
	// as the run checkpoint does at every epoch end.
	save := func(p *party, src interface{ save(*bytes.Buffer) error }, side string, e int, n *int64, errp *error) {
		if !tb.w.Checkpoint || *errp != nil {
			return
		}
		p.do("model.ckpt_save", func() {
			var buf bytes.Buffer
			if *errp = src.save(&buf); *errp != nil {
				return
			}
			*n += int64(buf.Len())
			name := filepath.Join(tb.env.workdir, fmt.Sprintf("trace-%s-%d", side, e))
			*errp = os.WriteFile(name, buf.Bytes(), 0o644)
			os.Remove(name)
		})
	}
	t0 := time.Now()
	err := protocol.RunParties(a, b,
		func() {
			la.init()
			order := rng.New(h.Seed, "batch-order")
			step := 0
			for e := 0; e < h.Epochs; e++ {
				a.SeedEpoch(e)
				for _, idx := range batches(data.Shuffle(order, ds.TrainA.Rows()), h.Batch) {
					x := ds.TrainA.Batch(idx)
					pa.runStep(step, func() { la.forward(x); la.backward() })
					step++
				}
				save(pa, la, "a", e, &ckA, &saveErrA)
			}
			pa.do("model.eval", func() {
				for _, idx := range data.BatchIndices(ds.TestA.Rows(), h.Batch) {
					la.eval(ds.TestA.Batch(idx))
				}
			})
		},
		func() {
			lb.init()
			hd := newHead(kind, h)
			order := rng.New(h.Seed, "batch-order")
			out.c0 = snapshot(tb.keys, s)
			sampler = samplePools(tb.keys)
			step := 0
			for e := 0; e < h.Epochs; e++ {
				b.SeedEpoch(e)
				for _, idx := range batches(data.Shuffle(order, ds.TrainB.Rows()), h.Batch) {
					x, y := ds.TrainB.Batch(idx), gatherInts(ds.TrainY, idx)
					pb.runStep(step, func() {
						zNum, zEmb := lb.forward(x)
						var grad *tensor.Dense
						pb.do("nn.head_fwd", func() {
							var loss float64
							loss, grad = nn.BCEWithLogits(hd.forward(zNum, zEmb), y)
							out.losses = append(out.losses, loss)
						})
						var gNum, gEmb *tensor.Dense
						pb.do("nn.head_bwd", func() { gNum, gEmb = hd.backward(grad) })
						lb.backward(gNum, gEmb)
					})
					step++
				}
				save(pb, lb, "b", e, &ckB, &saveErrB)
			}
			out.poolMin = sampler.stop()
			sampler = nil
			out.c1 = snapshot(tb.keys, s)
			pb.do("model.eval", func() {
				var rows []*tensor.Dense
				for _, idx := range data.BatchIndices(ds.TestB.Rows(), h.Batch) {
					rows = append(rows, hd.forward(lb.eval(ds.TestB.Batch(idx))))
				}
				out.logits = vstackRows(rows)
			})
		})
	out.wall = time.Since(t0)
	if sampler != nil {
		sampler.stop()
	}
	if err != nil {
		return nil, fmt.Errorf("traced training: %w", err)
	}
	if err := errors.Join(saveErrA, saveErrB); err != nil {
		return nil, fmt.Errorf("traced checkpoint save: %w", err)
	}
	out.ckBytes = ckA + ckB
	return out, nil
}

// batches cuts a permutation into consecutive mini-batches, the last one
// short, as Trainer does.
func batches(perm []int, size int) [][]int {
	var out [][]int
	for lo := 0; lo < len(perm); lo += size {
		out = append(out, perm[lo:min(lo+size, len(perm))])
	}
	return out
}

func gatherInts(y, idx []int) []int {
	out := make([]int, len(idx))
	for i, j := range idx {
		out[i] = y[j]
	}
	return out
}

func vstackRows(rows []*tensor.Dense) *tensor.Dense {
	n, cols := 0, 0
	for _, r := range rows {
		n += r.Rows
		cols = r.Cols
	}
	out := tensor.NewDense(n, cols)
	off := 0
	for _, r := range rows {
		copy(out.Data[off:], r.Data)
		off += len(r.Data)
	}
	return out
}

// traceTrain is the traced run of a training workload: one untraced
// Trainer.Train call and one traced run of the same model over the same
// data, one epoch each, on fresh sessions. The untraced call is the
// reference for the tracing overhead and for the traced run's outputs.
func traceTrain(e *env, w *Workload) (*result, error) {
	keys, err := generateKeys(2, e.keyBits)
	if err != nil {
		return nil, err
	}
	w1 := *w
	w1.Epochs = 1
	tb, err := newTrainBench(e, &w1, keys)
	if err != nil {
		return nil, err
	}
	res := newTraceResult()
	s, err := tb.setup()
	if err != nil {
		return nil, err
	}
	ref, err := tb.train(s, 0)
	if err != nil {
		return nil, err
	}

	pa, pb := newParty(), newParty()
	t1 := time.Now()
	tb.ds = data.Generate(tb.w.spec(), e.seed)
	res.set("data.generate_ms", ms(time.Since(t1)))
	ts, err := dialSessions(keys[:1], keys[1], e.seed, func(c transport.Conn, side string) transport.Conn {
		if side == "a" {
			return pa.wrap(c)
		}
		return pb.wrap(c)
	})
	if err != nil {
		return nil, err
	}
	defer ts.close()
	res.set("protocol.handshake_ms", ms(ts.hs))
	fillPools(e.eng, keys...)
	tr, err := tb.drive(ts, pa, pb)
	if err != nil {
		return nil, err
	}

	res.Attempted = len(tr.losses)
	if len(tr.losses) != len(ref.hist.Losses) {
		res.fail("traced run made %d steps, Trainer %d", len(tr.losses), len(ref.hist.Losses))
	} else {
		for i := range tr.losses {
			if math.Float64bits(tr.losses[i]) != math.Float64bits(ref.hist.Losses[i]) {
				res.fail("traced step %d loss %v differs from Trainer's %v", i, tr.losses[i], ref.hist.Losses[i])
			}
		}
	}
	if !sameBits(tr.logits, ref.hist.TestLogits) {
		res.fail("traced test logits differ from Trainer's")
	}

	steps := len(pb.steps)
	for _, l := range []string{"core.matmul.fwd", "core.matmul.bwd", "core.sparse_matmul.fwd",
		"core.sparse_matmul.bwd", "core.embed_matmul.fwd", "core.embed_matmul.bwd"} {
		res.set(l+"_ms.a", ms(pa.stepSelf(l)))
		res.set(l+"_ms.b", ms(pb.stepSelf(l)))
	}
	res.set("core.init_ms.a", ms(pa.selfTotal("core.init")))
	res.set("core.init_ms.b", ms(pb.selfTotal("core.init")))
	res.set("nn.head_fwd_ms", ms(pb.stepSelf("nn.head_fwd")))
	res.set("nn.head_bwd_ms", ms(pb.stepSelf("nn.head_bwd")))
	res.set("transport.recv_wait_ms.a", ms(pa.meanWait()))
	res.set("transport.recv_wait_ms.b", ms(pb.meanWait()))
	walls := pb.stepWalls()
	res.set("model.step_ms_p50", median(walls))
	res.set("model.step_ms_max", slices.Max(walls))
	res.set("model.eval_ms", ms(pb.durTotal("model.eval")))
	if w.Checkpoint {
		res.set("model.ckpt_save_ms", ms(pa.durTotal("model.ckpt_save")+pb.durTotal("model.ckpt_save"))/float64(tr.epochs))
		res.set("model.ckpt_bytes", float64(tr.ckBytes)/float64(tr.epochs))
	}
	res.putDeltas(tr.c0, tr.c1, steps)
	res.set("paillier.pool_available_min", float64(tr.poolMin))

	unA, covA := pa.coverage()
	unB, covB := pb.coverage()
	res.set("unattributed_ms", ms(unB))
	res.set("trace.coverage_min", math.Min(covA, covB))
	if c := math.Min(covA, covB); c < minCoverage {
		res.fail("layer spans cover only %.1f%% of a step (at least %.0f%% required)", 100*c, 100*minCoverage)
	}
	res.set("trace.traced_ms", ms(tr.wall))
	res.set("trace.untraced_ms", ms(ref.wall))
	res.set("trace.overhead_pct", 100*(tr.wall.Seconds()/ref.wall.Seconds()-1))

	if err := kernelCosts(res, keys[1], e.eng.ShortExp, kernelReps(e)); err != nil {
		return nil, err
	}
	res.report["trace"] = map[string]any{
		"steps": steps, "step_ms": walls, "unattributed_ms.a": ms(unA),
		"coverage.a": covA, "coverage.b": covB,
	}
	return res, nil
}

// minCoverage is the share of every traced step or batch the layer spans
// must account for.
const minCoverage = 0.9

// kernelReps is how many times each Paillier kernel is timed.
func kernelReps(e *env) int {
	if e.smoke {
		return 4
	}
	return 16
}
