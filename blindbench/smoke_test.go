package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the smoke
// test holds the benchmark to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return &bf
}

// TestSmoke runs every workload untraced and traced at 512-bit test keys
// on tiny shapes. Each run must pass its output checks and emit exactly the
// metrics BENCHMARK.json names for its mode, each with its unit; every
// end-to-end metric must be positive.
func TestSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, ok := c.Workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in contract.json", w.Name)
		}
	}
	if len(names) != len(c.Workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, contract.json %d", len(names), len(c.Workloads))
	}
	for name := range c.PerLayer {
		if !hasMetric(bf.PerLayer, name) {
			t.Errorf("contract.json maps per-layer metric %q that BENCHMARK.json does not list", name)
		}
	}
	for _, m := range bf.PerLayer {
		if _, ok := c.PerLayer[m.Name]; !ok {
			t.Errorf("per-layer metric %q has no entry in contract.json per_layer_moves", m.Name)
		}
	}

	for _, name := range names {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(name, 3, 2, trace, true, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					name, trace, res.Correct, res.Attempted, res.Failed, res.failures)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d: %v",
					name, trace, len(res.Metrics), len(want), sortedKeys(res.Metrics))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %q missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %q in %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				case !trace && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %q = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

func hasMetric(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}, name string) bool {
	for _, m := range ms {
		if m.Name == name {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
