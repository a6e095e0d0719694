package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"blindfl/internal/data"
	"blindfl/internal/engine"
	"blindfl/internal/model"
)

// contract.json fixes everything a run depends on besides the seed: key
// size, engine flags, each workload's shape and rates, the training
// output-check margin, and which end-to-end metric each per-layer metric should move.
//
//go:embed contract.json
var contractJSON []byte

// Contract is the decoded contract.json.
type Contract struct {
	KeyBits      int     `json:"key_bits"`
	SmokeKeyBits int     `json:"smoke_key_bits"`
	Engine       Engine  `json:"engine"`
	SetupRepeats int     `json:"setup_repeats"`
	LossMargin   float64 `json:"loss_margin"`

	Workloads map[string]*Workload `json:"workloads"`

	// PerLayer maps each traced metric to the end-to-end metrics (as
	// "metric@workload") it is expected to move.
	PerLayer map[string][]string `json:"per_layer_moves"`
}

// Engine is the engine configuration shared by every workload; every other
// engine.Options field stays at its default.
type Engine struct {
	Packed       bool `json:"packed"`
	Pool         int  `json:"pool"`
	ShortExp     int  `json:"shortexp"`
	TableCacheMB int  `json:"tablecache_mb"`
}

// Options returns the engine options the contract selects.
func (e Engine) Options() engine.Options {
	return engine.Options{Packed: e.Packed, Pool: e.Pool, ShortExp: e.ShortExp, TableCacheMB: e.TableCacheMB}
}

// Workload describes one workload: the model family and data shape it
// trains (or, for serve, trains once and then serves), and its load.
type Workload struct {
	Why     string `json:"why"`
	Kind    string `json:"kind"`    // model family (lr|mlp|wdl)
	Dataset string `json:"dataset"` // base data.Specs entry
	Parties int    `json:"parties"` // serving: feature parties (training runs a pair)

	// Spec overrides of the base dataset (0 keeps the base value).
	Feats     int `json:"feats"`
	AvgNNZ    int `json:"avg_nnz"`
	CatFields int `json:"cat_fields"`
	CatVocab  int `json:"cat_vocab"`
	Train     int `json:"train"`
	Test      int `json:"test"`

	Batch      int   `json:"batch"`
	Epochs     int   `json:"epochs"`
	Hidden     []int `json:"hidden"`
	EmbDim     int   `json:"emb_dim"`
	Checkpoint bool  `json:"checkpoint"` // run checkpoint every epoch

	// Serving load (serve workloads only).
	LowRPS         float64 `json:"low_rps"`
	HighRPS        float64 `json:"high_rps"`
	LatencyLimitMS float64 `json:"latency_limit_ms"`
	Probes         int     `json:"probes"` // max-rate bisection probes

	// Smoke overrides applied at the smoke key size.
	Smoke *Workload `json:"smoke"`
}

func loadContract() (*Contract, error) {
	var c Contract
	if err := json.Unmarshal(contractJSON, &c); err != nil {
		return nil, fmt.Errorf("contract.json: %w", err)
	}
	return &c, nil
}

// smoked returns the workload with its smoke overrides applied.
func (w *Workload) smoked() *Workload {
	out := *w
	if s := w.Smoke; s != nil {
		for _, f := range []struct{ dst, src *int }{
			{&out.Train, &s.Train}, {&out.Test, &s.Test}, {&out.Batch, &s.Batch}, {&out.Probes, &s.Probes},
		} {
			if *f.src != 0 {
				*f.dst = *f.src
			}
		}
	}
	out.Smoke = nil
	return &out
}

// spec returns the workload's dataset spec.
func (w *Workload) spec() data.Spec {
	s := data.MustSpec(w.Dataset)
	for _, f := range []struct {
		dst *int
		src int
	}{
		{&s.Feats, w.Feats}, {&s.AvgNNZ, w.AvgNNZ}, {&s.CatFields, w.CatFields},
		{&s.CatVocab, w.CatVocab}, {&s.Train, w.Train}, {&s.Test, w.Test},
	} {
		if f.src != 0 {
			*f.dst = f.src
		}
	}
	return s
}

// hyper returns the training hyper-parameters for a seed.
func (w *Workload) hyper(seed int64, eng engine.Options) model.Hyper {
	h := model.DefaultHyper()
	h.Batch, h.Epochs, h.Seed, h.Options = w.Batch, w.Epochs, seed, eng
	if w.Hidden != nil {
		h.Hidden = w.Hidden
	}
	if w.EmbDim != 0 {
		h.EmbDim = w.EmbDim
	}
	return h
}
