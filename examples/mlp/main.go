// MLP example: shows how SST converts independent misses into
// memory-level parallelism, and where it cannot (dependent chains).
// Contrasts the two microbenchmark extremes — randarr (independent
// random loads) and chase (pointer chasing) — and sweeps the deferred
// queue to show what bounds the speculation depth.
//
//	go run ./examples/mlp
package main

import (
	"fmt"
	"log"

	"rocksim"
)

func run(kind rocksim.CoreKind, w *rocksim.Workload, opts rocksim.Options) rocksim.Result {
	res, err := rocksim.Run(kind, w.Program, opts)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	opts := rocksim.DefaultOptions()

	fmt.Println("Two extremes of miss behaviour:")
	fmt.Printf("%-8s %-10s %8s %6s\n", "workload", "machine", "IPC", "MLP")
	for _, name := range []string{"randarr", "chase"} {
		w, err := rocksim.BuildWorkload(name, rocksim.ScaleTest)
		if err != nil {
			log.Fatal(err)
		}
		for _, kind := range []rocksim.CoreKind{rocksim.InOrder, rocksim.OOOLarge, rocksim.SST} {
			res := run(kind, w, opts)
			fmt.Printf("%-8s %-10v %8.3f %6.2f\n", name, kind, res.IPC(), res.Base.MLP())
		}
	}
	fmt.Println("\nrandarr: every load is independent — SST overlaps them (high MLP).")
	fmt.Println("chase:   every load feeds the next — nothing can overlap (MLP ~1).")

	// The deferred queue bounds how far the ahead strand can run, and
	// therefore how many independent misses it can discover.
	fmt.Println("\nDeferred-queue size vs extracted MLP (randarr):")
	w, err := rocksim.BuildWorkload("randarr", rocksim.ScaleTest)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%6s %8s %6s\n", "DQ", "IPC", "MLP")
	for _, dq := range []int{0, 8, 16, 32, 64, 128} {
		o := rocksim.DefaultOptions()
		o.SST.DQSize = dq
		res := run(rocksim.SST, w, o)
		fmt.Printf("%6d %8.3f %6.2f\n", dq, res.IPC(), res.Base.MLP())
	}
	fmt.Println("\nDQ=0 degenerates to hardware scout (prefetch + re-execute).")
}
