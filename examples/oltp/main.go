// OLTP example: the paper's headline scenario. Runs the TPC-C-class
// synthetic workload on every machine and reports per-thread speedups —
// the miniature version of reproduced Figure 1.
//
//	go run ./examples/oltp           # test scale (seconds)
//	go run ./examples/oltp -full     # evaluation scale
package main

import (
	"flag"
	"fmt"
	"log"

	"rocksim"
)

func main() {
	full := flag.Bool("full", false, "run the evaluation-sized workload")
	flag.Parse()

	scale := rocksim.ScaleTest
	if *full {
		scale = rocksim.ScaleFull
	}
	w, err := rocksim.BuildWorkload("oltp", scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload %s: %s\n  (stands in for %s)\n\n", w.Name, w.Description, w.Standin)

	opts := rocksim.DefaultOptions()
	var baseIPC float64
	fmt.Printf("%-10s %12s %8s %10s %6s\n", "machine", "cycles", "IPC", "speedup", "MLP")
	for _, kind := range rocksim.CoreKinds {
		res, err := rocksim.Run(kind, w.Program, opts)
		if err != nil {
			log.Fatal(err)
		}
		if kind == rocksim.InOrder {
			baseIPC = res.IPC()
		}
		fmt.Printf("%-10v %12d %8.3f %9.2fx %6.2f\n",
			kind, res.Cycles, res.IPC(), res.IPC()/baseIPC, res.Base.MLP())
	}

	// Why SST wins here: the deferred queue turns a pointer-dependent
	// transaction stream into two concurrent strands.
	res, err := rocksim.Run(rocksim.SST, w.Program, opts)
	if err != nil {
		log.Fatal(err)
	}
	st, _ := rocksim.SSTStats(res)
	fmt.Printf("\nSST anatomy on oltp:\n")
	fmt.Printf("  deferred %d instructions (%.1f%% of retired), replayed %d\n",
		st.Deferrals, 100*float64(st.Deferrals)/float64(st.Retired), st.Replays)
	fmt.Printf("  %d checkpoints -> %d commits, %d rollbacks (%.1f%% work discarded)\n",
		st.CheckpointsTaken, st.EpochCommits, st.Rollbacks,
		100*float64(st.DiscardedInsts)/float64(st.DiscardedInsts+st.Retired))
	fmt.Printf("  mean occupancy: DQ %.1f, SSB %.1f, checkpoints %.1f\n",
		st.DQOcc.Mean(), st.SSBOcc.Mean(), st.CkptOcc.Mean())
}
