package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"blindfl/internal/data"
	"blindfl/internal/model"
	"blindfl/internal/paillier"
	"blindfl/internal/tensor"
)

// trainRun is one whole Trainer.Train call and what it produced.
type trainRun struct {
	wall  time.Duration
	bytes int64
	hist  *model.History
}

// trainBench drives a training workload: it sets up (data, TCP sessions,
// handshakes, full pools) setup_repeats times, then runs whole
// Trainer.Train calls on fresh sessions until the measuring window closes.
// Every call trains the same model from the same seed, so all calls must
// agree bit for bit.
type trainBench struct {
	env  *env
	w    *Workload
	kind model.Kind
	ds   *data.Dataset
	h    model.Hyper
	keys []*paillier.PrivateKey // feature party, label party
}

func newTrainBench(e *env, w *Workload, keys []*paillier.PrivateKey) (*trainBench, error) {
	kind, err := model.ParseKind(w.Kind)
	if err != nil {
		return nil, err
	}
	return &trainBench{env: e, w: w, kind: kind, h: w.hyper(e.seed, e.eng), keys: keys}, nil
}

// setup generates the data, dials one session and fills the pools,
// returning the live sessions for the first measured call.
func (tb *trainBench) setup() (*sessions, error) {
	tb.ds = data.Generate(tb.w.spec(), tb.env.seed)
	s, err := dialSessions(tb.keys[:1], tb.keys[1], tb.env.seed, nil)
	if err != nil {
		return nil, err
	}
	fillPools(tb.env.eng, tb.keys...)
	return s, nil
}

// train runs one whole Trainer.Train call over s and closes s.
func (tb *trainBench) train(s *sessions, call int) (trainRun, error) {
	defer s.close()
	t := model.Trainer{Kind: tb.kind, Hyper: tb.h}
	if tb.w.Checkpoint {
		t.CheckpointDir = filepath.Join(tb.env.workdir, fmt.Sprintf("ckpt-%d", call))
		if err := os.MkdirAll(t.CheckpointDir, 0o755); err != nil {
			return trainRun{}, err
		}
		defer os.RemoveAll(t.CheckpointDir)
	}
	b0 := s.wireBytes()
	t0 := time.Now()
	hist, err := t.Train(tb.ds, model.Pair(s.as[0], s.bs[0]))
	wall := time.Since(t0)
	if err != nil {
		return trainRun{}, fmt.Errorf("train call %d: %w", call, err)
	}
	return trainRun{wall: wall, bytes: s.wireBytes() - b0, hist: hist}, nil
}

// samples is the training rows processed by one call.
func (tb *trainBench) samples() int { return tb.ds.TrainA.Rows() * tb.h.Epochs }

// lastEpochLoss is the mean loss over the last epoch's steps.
func (tb *trainBench) lastEpochLoss(h *model.History) float64 {
	steps := (tb.ds.TrainA.Rows() + tb.h.Batch - 1) / tb.h.Batch
	last := h.Losses[len(h.Losses)-steps:]
	var s float64
	for _, l := range last {
		s += l
	}
	return s / float64(len(last))
}

func runTrain(e *env, w *Workload) (*result, error) {
	keys, err := generateKeys(2, e.keyBits)
	if err != nil {
		return nil, err
	}
	tb, err := newTrainBench(e, w, keys)
	if err != nil {
		return nil, err
	}
	setups, s, err := repeatSetup(e.setupRepeats, tb.setup)
	if err != nil {
		return nil, err
	}

	res := newResult()
	var runs []trainRun
	// Whole calls only: a call starts while the window still has room for
	// one more of the same length.
	deadline := time.Now().Add(e.seconds)
	for call := 0; call == 0 || (len(runs) > 0 && time.Until(deadline) > runs[len(runs)-1].wall); call++ {
		if call > 0 {
			if s, err = dialSessions(keys[:1], keys[1], e.seed, nil); err != nil {
				return nil, err
			}
			fillPools(e.eng, keys...)
		}
		res.Attempted++
		r, err := tb.train(s, call)
		if err != nil {
			res.fail("%v", err)
			continue
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return res, nil
	}

	plain := model.TrainCollocated(tb.kind, tb.ds, tb.h)
	first := runs[0].hist
	plainLoss := tb.lastEpochLoss(plain)
	for i, r := range runs {
		if err := checkTrainRun(r.hist, first, tb.lastEpochLoss(r.hist), plainLoss, e.contract.LossMargin); err != nil {
			res.fail("train call %d: %v", i, err)
		}
	}

	var bytes int64
	walls := make([]float64, len(runs))
	for i, r := range runs {
		bytes += r.bytes
		walls[i] = ms(r.wall)
	}
	call := median(walls)
	res.put("setup_s", median(setups), "s")
	res.put("throughput_per_s", float64(tb.samples())/(call/1000), "1/s")
	res.put("latency_p50_ms", call, "ms")
	res.put("wire_kib_per_op", float64(bytes)/float64(tb.samples()*len(runs))/1024, "KiB")
	res.put("peak_rss_mb", peakRSSMiB(), "MiB")
	res.report["train"] = map[string]any{
		"calls": len(runs), "samples_per_call": tb.samples(), "steps_per_call": len(first.Losses),
		"call_ms": walls, "test_auc": first.TestMetric, "train_loss": tb.lastEpochLoss(first),
		"plain_test_auc": plain.TestMetric, "plain_train_loss": plainLoss,
	}
	return res, nil
}

// checkTrainRun holds a training call to its output checks: finite losses,
// bit-identical to the first call (same seed, same data), and a mean
// last-epoch loss no worse than the plaintext collocated model's (same
// data, same hyper-parameters) by more than margin.
func checkTrainRun(h, first *model.History, loss, plainLoss, margin float64) error {
	for i, l := range h.Losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("loss %d is %v", i, l)
		}
	}
	if len(h.Losses) != len(first.Losses) {
		return fmt.Errorf("%d losses, first call had %d", len(h.Losses), len(first.Losses))
	}
	for i := range h.Losses {
		if math.Float64bits(h.Losses[i]) != math.Float64bits(first.Losses[i]) {
			return fmt.Errorf("loss %d = %v differs from the first call's %v", i, h.Losses[i], first.Losses[i])
		}
	}
	if !sameBits(h.TestLogits, first.TestLogits) {
		return fmt.Errorf("test logits differ from the first call's")
	}
	if loss > plainLoss+margin {
		return fmt.Errorf("last-epoch loss %.4f is more than %.3f above the plaintext model's %.4f", loss, margin, plainLoss)
	}
	return nil
}

// sameBits reports whether two matrices are equal bit for bit.
func sameBits(a, b *tensor.Dense) bool {
	if a == nil || b == nil || !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}
