// Hot spots: what if Cedar had been built as 32 independent processors
// instead of 4 clusters of 8? Section 6 argues every loop barrier
// would synchronize 32 tasks through global memory, turning the
// barrier word into a hot spot that "could severely degrade
// performance for all traffic in the multistage interconnection
// network" (Pfister & Norton, ref [15]) — unless special mechanisms
// like software combining trees (Yew, Tzeng, Lawrie, ref [16]) spread
// the load.
//
// This example runs a barrier-heavy workload three ways and shows the
// hot spot appearing and then being dissolved:
//
//  1. the real clustered Cedar (barriers localized per cluster),
//
//  2. the flat 32-processor machine with a busy-wait barrier,
//
//  3. the flat machine with a combining-tree barrier.
//
//     go run ./examples/hotspot
package main

import (
	"fmt"
	"os"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/perfect"
)

func main() {
	app := perfect.FineGrained() // many small cross-cluster loops

	type variant struct {
		name string
		cfg  arch.Config
		opts cedar.Options
	}
	variants := []variant{
		{"clustered (4x8, concurrency bus)", arch.Cedar32, cedar.Options{}},
		{"flat 32, busy-wait barrier", arch.Unclustered32, cedar.Options{}},
		{"flat 32, combining tree (fanout 4)", arch.Unclustered32, cedar.Options{TreeFanout: 4}},
	}

	fmt.Printf("%-36s %12s %14s %16s\n", "machine", "CT (cycles)", "hot port", "port queueing")
	var baseline float64
	for i, v := range variants {
		run, err := cedar.SimulateRunErr(app, v.cfg, v.opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hotspot:", err)
			os.Exit(1)
		}
		ct := float64(run.Result.CT)
		if i == 0 {
			baseline = ct
		}
		hotName, hotDelay := run.Machine.GM.Net().MaxPortDelay()
		fmt.Printf("%-36s %12.0f %14s %13d cy   (%.2fx clustered)\n",
			v.name, ct, hotName, hotDelay, ct/baseline)
	}

	fmt.Println(`
Reading the result:
  - The clustered machine synchronizes inside each cluster over the
    concurrency bus; only one processor per cluster touches global
    memory for the barrier, so no port melts.
  - The flat machine's busy-wait barrier drives every CE's polls at one
    memory module: its return-path port shows queueing orders of
    magnitude above anything on the clustered machine, and completion
    time suffers.
  - The combining tree spreads arrivals across many words on many
    modules: the hot spot collapses and most of the lost time comes
    back — exactly the mechanism the paper says would be "needed to
    reduce the hot spot effect".`)
}
