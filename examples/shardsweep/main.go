// Shardsweep: a paper-scale HEP sweep executed by sharded worker
// processes, demonstrating the distributed Monte-Carlo layer.
//
// Each point partitions its iteration range into shards, runs them on
// single-threaded sibling processes of this binary (one per core by
// default), and merges the cells' downtime streams — producing exactly
// the Summary a single-process run would, only faster. Setting a
// checkpoint path would additionally make each point resumable.
//
// Run with: go run ./examples/shardsweep
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"herald"
)

func main() {
	// Required first line in any binary that uses SimulateSharded:
	// when the coordinator spawns this program as a worker, it serves
	// shard jobs here and never reaches the sweep below.
	herald.MaybeShardWorker()

	const (
		disks  = 4
		lambda = 1e-6
		iters  = 200_000 // paper scale is 1e6; keep the example brisk
	)
	shards := 2 * runtime.GOMAXPROCS(0)

	fmt.Printf("RAID5(3+1) sharded sweep: %d iterations/point, %d shards, %d worker processes\n\n",
		iters, shards, runtime.GOMAXPROCS(0))
	fmt.Println("hep       availability      nines   wall")

	for _, hep := range []float64{0, 0.001, 0.01} {
		p := herald.PaperSimParams(disks, lambda, hep)
		o := herald.SimOptions{Iterations: iters, MissionTime: 1e6, Seed: 20170327}
		start := time.Now()
		s, err := herald.SimulateSharded(p, o, shards, 0, "")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8g  %.9f  %6.3f  %s\n", hep, s.Availability, s.Nines, time.Since(start).Round(time.Millisecond))
	}

	fmt.Println("\nSummaries are bit-identical to single-process herald.Simulate runs.")
}
