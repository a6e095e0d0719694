// Command blindbench is the BlindFL benchmark: it runs one workload at
// production-size keys over loopback TCP, all parties in this process, and
// prints one JSON result line. See README.md in this directory.
//
//	blindbench --workload train-dense --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 a
// traced run drives the same layers with spans around each call and the
// result carries the per-layer metrics instead. --smoke runs the workload
// at 512-bit test keys on tiny shapes, as a fast self-test.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"blindfl/internal/engine"
)

// env is what every workload run shares: the contract, the seed, the
// measuring window and the engine configuration.
type env struct {
	contract     *Contract
	seed         int64
	seconds      time.Duration
	keyBits      int
	setupRepeats int
	eng          engine.Options
	workdir      string
	smoke        bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line, plus a report of the
// supporting figures printed on the line before it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	report   map[string]any
	failures []string
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}, report: map[string]any{}}
}

func (r *result) put(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// fail records one failed operation or output check.
func (r *result) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN records n failed operations under one message.
func (r *result) failN(n int, format string, args ...any) {
	r.Failed += n
	r.Correct = false
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("blindbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name (see contract.json)")
	seed := fs.Int64("seed", 1, "workload seed: data, hyper-parameters, session RNGs, requests and arrivals")
	seconds := fs.Float64("seconds", 35, "measuring window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	smoke := fs.Bool("smoke", false, "512-bit test keys and tiny shapes: the benchmark's self-test")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "blindbench", "work"), "scratch directory for checkpoints")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, err := runWorkload(*workload, *seed, *seconds, *trace == 1, *smoke, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "blindbench:", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "blindbench: FAILED:", f)
	}
	// A non-finite value cannot be encoded: no result rather than a wrong one.
	rep, err := json.Marshal(res.report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "blindbench: report:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "blindbench: result:", err)
		return 1
	}
	fmt.Printf("report %s\n", rep)
	fmt.Println(string(out))
	return 0
}

// runWorkload builds the environment and dispatches one run.
func runWorkload(name string, seed int64, seconds float64, trace, smoke bool, workdir string) (*result, error) {
	c, err := loadContract()
	if err != nil {
		return nil, err
	}
	w, ok := c.Workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	e := &env{
		contract: c, seed: seed, seconds: time.Duration(seconds * float64(time.Second)),
		keyBits: c.KeyBits, setupRepeats: c.SetupRepeats, eng: c.Engine.Options(),
		workdir: workdir, smoke: smoke,
	}
	if smoke {
		e.keyBits, e.setupRepeats = c.SmokeKeyBits, 1
		w = w.smoked()
	}
	if err := e.eng.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	e.eng.Apply()

	var res *result
	switch {
	case strings.HasPrefix(name, "train-") && trace:
		res, err = traceTrain(e, w)
	case strings.HasPrefix(name, "train-"):
		res, err = runTrain(e, w)
	case trace:
		res, err = traceServe(e, w)
	default:
		res, err = runServe(e, w)
	}
	if err != nil {
		return nil, err
	}
	res.report["workload"] = name
	res.report["seed"] = seed
	res.report["key_bits"] = e.keyBits
	res.report["nproc"] = runtime.NumCPU()
	res.report["gomaxprocs"] = runtime.GOMAXPROCS(0)
	res.report["engine"] = c.Engine
	return res, nil
}

// repeatSetup runs setup n times, closing every result but the last, and
// returns the set-up wall times in seconds with the last live sessions.
func repeatSetup(n int, setup func() (*sessions, error)) ([]float64, *sessions, error) {
	times := make([]float64, 0, n)
	var s *sessions
	for i := 0; i < n; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = setup(); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, s, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMiB reads this process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
