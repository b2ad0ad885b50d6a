// Command bolt is the offline optimizer CLI: it builds a benchmark
// workload (or reads a serialized binary), collects an LBR profile by
// running the given input, optimizes, and writes the BOLTed binary —
// `llvm-bolt` for the simulated world.
//
// Usage:
//
//	bolt -workload sqldb -input read_only -o sqldb.bolt
//	bolt -in sqldb.bolt -workload sqldb -input insert -o sqldb.bolt2 -allow-rebolt
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bolt"
	"repro/internal/experiments"
	"repro/internal/obj"
	"repro/internal/perf"
	"repro/internal/proc"
)

func main() {
	workload := flag.String("workload", "sqldb", "workload providing code and load generator")
	input := flag.String("input", "read_only", "input mix to profile")
	inFile := flag.String("in", "", "optimize this serialized binary instead of the workload's original")
	outFile := flag.String("o", "", "output path for the optimized binary")
	profileMS := flag.Float64("profile-ms", 5, "profiling duration (simulated ms)")
	funcOrder := flag.String("reorder-functions", "c3", "c3 | ph | none")
	noSplit := flag.Bool("no-split", false, "disable hot/cold splitting")
	noBlocks := flag.Bool("no-reorder-blocks", false, "disable basic-block reordering")
	allowRebolt := flag.Bool("allow-rebolt", false, "permit optimizing an already-bolted binary")
	flag.Parse()

	if *outFile == "" {
		fmt.Fprintln(os.Stderr, "bolt: -o is required")
		os.Exit(2)
	}
	if err := run(*workload, *input, *inFile, *outFile, *profileMS, *funcOrder, *noSplit, *noBlocks, *allowRebolt); err != nil {
		fmt.Fprintln(os.Stderr, "bolt:", err)
		os.Exit(1)
	}
}

func run(workload, input, inFile, outFile string, profileMS float64, funcOrder string, noSplit, noBlocks, allowRebolt bool) error {
	w, err := experiments.Workload(workload)
	if err != nil {
		return err
	}
	bin := w.Binary
	if inFile != "" {
		bin, err = obj.ReadFile(inFile)
		if err != nil {
			return err
		}
	}

	// Profile the binary running the chosen input.
	d, err := w.NewDriver(input, w.Threads)
	if err != nil {
		return err
	}
	p, err := proc.Load(bin, proc.Options{Threads: w.Threads, Handler: d})
	if err != nil {
		return err
	}
	p.RunFor(0.002)
	raw := perf.Record(p, profileMS/1e3, perf.RecorderOptions{})
	if err := p.Fault(); err != nil {
		return err
	}
	fmt.Printf("profiled %s/%s: %d samples, %d branch records\n",
		bin.Name, input, len(raw.Samples), raw.Branches())

	prof, err := bolt.ConvertProfile(raw, bin)
	if err != nil {
		return err
	}
	res, err := bolt.Optimize(bin, prof, bolt.Options{
		FuncOrder:       bolt.FuncOrderAlgo(funcOrder),
		NoSplit:         noSplit,
		NoReorderBlocks: noBlocks,
		AllowReBolt:     allowRebolt,
	})
	if err != nil {
		return err
	}
	fmt.Printf("optimized: %d functions moved, %d split, new text %d KiB\n",
		res.FuncsReordered, res.FuncsSplit, res.NewTextBytes/1024)
	if err := res.Binary.WriteFile(outFile); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outFile)
	return nil
}
