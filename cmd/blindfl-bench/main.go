// Command blindfl-bench regenerates the tables and figures of the BlindFL
// paper's evaluation on synthetic dataset stand-ins.
//
// Usage:
//
//	blindfl-bench -exp table5            # one experiment
//	blindfl-bench -exp fig12 -only w8a   # one figure, selected datasets
//	blindfl-bench -exp all -quick        # everything, reduced sizes
//
// Quick mode shrinks batch sizes, dimensions and epochs so the full suite
// finishes on a laptop; the shapes of the results (who wins, by what
// factor) are preserved. Absolute times are not comparable to the paper's
// GMP/OpenMP implementation on two 96-core servers.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"blindfl/internal/bench"
	"blindfl/internal/engine"
	"blindfl/internal/protocol"
)

func main() {
	bench.MaybeRunShardWorker() // re-exec hook for the fedstep_sharded rows
	exp := flag.String("exp", "all", "experiment: table5|table6|table7|table8|fig9|fig10|fig11|fig12|fig15|ablations|all")
	quick := flag.Bool("quick", false, "reduced sizes for a fast end-to-end run")
	only := flag.String("only", "", "comma-separated dataset filter for fig12 (e.g. w8a,higgs)")
	perf := flag.String("perf", "", "run the exponentiation-engine perf suite and write JSON to this path (skips -exp)")
	keybits := flag.Int("keybits", 2048, "Paillier key size for the -perf kernel benchmarks")
	fedstep := flag.Bool("fedstep", true, "include the end-to-end packed fed-step pair (512-bit test keys) in -perf")
	serveMode := flag.Bool("serve", false, "run the serve latency/throughput benchmark (batched vs sequential) and exit")
	serveReqs := flag.Int("servereqs", 64, "batched-run request count for -serve and the -perf serve rows")
	serveBits := flag.Int("servebits", protocol.KeyBits, "Paillier key size for the serve benchmark (512 reuses the cached test keys)")
	var eng engine.Options
	eng.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := eng.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *serveMode {
		fmt.Printf("running serve benchmark (%d requests batched run, %d-bit keys)...\n", *serveReqs, *serveBits)
		sp, err := bench.RunServePerf(eng, *serveBits, *serveReqs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(sp)
		return
	}

	if *perf != "" {
		fmt.Println("running fixed calibration op (2048-bit modexp, constant operands)...")
		results := []bench.PerfResult{bench.RunPerfCalibration()}
		fmt.Printf("running exponentiation-engine perf suite (%d-bit kernels)...\n", *keybits)
		kernels, err := bench.RunPerfKernels(*keybits)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		results = append(results, kernels...)
		fmt.Printf("running amortized-precompute suite (%d-bit kernels)...\n", *keybits)
		amort, err := bench.RunPerfAmortized(*keybits)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		results = append(results, amort...)
		if *fedstep {
			fmt.Println("running packed fed-step engine/textbook pair (512-bit test keys)...")
			results = append(results, bench.RunPerfFedStep()...)
			fmt.Println("running unpacked/packed WDL fed-step pair (512-bit test keys)...")
			results = append(results, bench.RunPerfFedStepEmbed()...)
			fmt.Println("running cold/warm table-cache fed-epoch pair (512-bit test keys)...")
			results = append(results, bench.RunPerfFedEpoch()...)
			fmt.Println("running multi-party fed-step k=3/k=1 pair (512-bit test keys)...")
			results = append(results, bench.RunPerfFedStepMulti()...)
			fmt.Println("running sharded fed-step family (1/2/4 shards loopback TCP, 1/2 shards WAN sim)...")
			shrows, err := bench.RunPerfFedStepSharded()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			results = append(results, shrows...)
			fmt.Println("running packed fed-step at GOMAXPROCS=2...")
			results = append(results, bench.RunPerfFedStepParallel()...)
			fmt.Printf("running serve latency/throughput pair (%d-bit keys)...\n", *serveBits)
			srows, err := bench.RunPerfServe(eng, *serveBits, *serveReqs)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			results = append(results, srows...)
		}
		if err := bench.WritePerfJSON(*perf, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, r := range results {
			ratio := ""
			if r.Ratio > 0 {
				ratio = fmt.Sprintf("  %6.3fx vs baseline", r.Ratio)
			}
			fmt.Printf("%-28s %-14s %5d bits  %14.0f ns/op  (n=%d)%s\n", r.Op, r.Config, r.KeyBits, r.NsPerOp, r.Iters, ratio)
		}
		fmt.Printf("wrote %s\n", *perf)
		return
	}

	filter := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			filter[strings.TrimSpace(s)] = true
		}
	}

	run := func(name string) error {
		switch name {
		case "table5":
			bench.Table5(*quick).Print(os.Stdout)
		case "table6":
			bench.Table6(*quick).Print(os.Stdout)
		case "table7":
			bench.Table7(*quick).Print(os.Stdout)
		case "table8":
			bench.Table8(*quick).Print(os.Stdout)
		case "fig9":
			for _, t := range bench.Fig9(*quick) {
				t.Print(os.Stdout)
			}
		case "fig10":
			for _, t := range bench.Fig10(*quick) {
				t.Print(os.Stdout)
			}
		case "fig11":
			for _, t := range bench.Fig11(*quick) {
				t.Print(os.Stdout)
			}
		case "fig12":
			for _, t := range bench.Fig12(*quick, filter) {
				t.Print(os.Stdout)
			}
		case "fig15":
			bench.Fig15(*quick).Print(os.Stdout)
		case "ablations":
			for _, t := range bench.Ablations(*quick) {
				t.Print(os.Stdout)
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	if *exp == "all" {
		for _, name := range []string{"table5", "table6", "table7", "table8",
			"fig9", "fig10", "fig11", "fig12", "fig15"} {
			if err := run(name); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return
	}
	if err := run(*exp); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
