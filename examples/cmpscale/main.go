// CMP scaling example: ROCK is a 16-core chip of small SST cores. This
// example builds multiprogrammed chips of increasing core counts running
// the commercial mix and compares aggregate throughput of SST cores
// against large out-of-order cores sharing the same L2/DRAM — the
// chip-level version of the paper's area-efficiency argument.
//
//	go run ./examples/cmpscale
package main

import (
	"fmt"
	"log"

	"rocksim"
)

func main() {
	opts := rocksim.DefaultOptions()
	mix := rocksim.CommercialWorkloadNames()

	fmt.Printf("%5s  %-10s %14s %12s\n", "cores", "machine", "chip IPC", "per-core")
	for _, n := range []int{1, 2, 4, 8} {
		progs := make([]*rocksim.Program, n)
		for i := 0; i < n; i++ {
			w, err := rocksim.BuildWorkload(mix[i%len(mix)], rocksim.ScaleTest)
			if err != nil {
				log.Fatal(err)
			}
			progs[i] = w.Program
		}
		for _, kind := range []rocksim.CoreKind{rocksim.OOOLarge, rocksim.SST} {
			chip, err := rocksim.NewChip(kind, progs, opts)
			if err != nil {
				log.Fatal(err)
			}
			if err := rocksim.RunChip(chip, opts); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%5d  %-10v %14.3f %12.3f\n",
				n, kind, chip.Throughput(), chip.Throughput()/float64(n))
		}
	}
	fmt.Println("\nPer-core IPC decays as cores contend for the shared L2 and DRAM")
	fmt.Println("banks; the SST chip holds throughput with a fraction of the area")
	fmt.Println("(see experiment T3 for the area/power proxy).")
}
