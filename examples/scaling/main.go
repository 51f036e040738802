// Scaling study: run one application across all five Cedar
// configurations (1, 4, 8, 16, 32 processors) and reproduce its
// Table-1 column group — completion times, speedups, average
// concurrency — plus the overhead growth the paper attributes the
// sublinearity to.
//
//	go run ./examples/scaling -app MDG
package main

import (
	"flag"
	"fmt"
	"os"

	cedar "repro"
	"repro/internal/core"
	"repro/internal/perfect"
)

func main() {
	appName := flag.String("app", "MDG", "FLO52, ARC2D, MDG, OCEAN, ADM, or a .workload file")
	flag.Parse()

	app, err := perfect.Resolver{AllowFiles: true}.Resolve(*appName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	fmt.Printf("simulating %s across Cedar configurations...\n\n", app.Name)
	sweep := cedar.Sweeps([]perfect.App{app}, cedar.Options{})[0]
	base := sweep.Base()
	paper := perfect.PaperTable1[app.Name]

	fmt.Printf("%8s %10s %10s %10s %12s %12s\n",
		"config", "CT (s)", "speedup", "paper", "concurrency", "OS share")
	for _, p := range sweep.Configs() {
		r := sweep.Results[p]
		speedup, paperSpeedup := "-", "-"
		if p > 1 {
			speedup = fmt.Sprintf("%.2f", r.Speedup(base))
			paperSpeedup = fmt.Sprintf("%.2f", paper.Speedup[p])
		}
		fmt.Printf("%7dp %10.0f %10s %10s %12.2f %11.1f%%\n",
			p, r.CTSeconds(), speedup, paperSpeedup,
			r.MachineConcurrency(), r.OSShare()*100)
	}

	fmt.Println("\nwhere the time goes as the machine grows (main task, % of CT):")
	fmt.Printf("%8s %8s %8s %8s %10s %12s\n",
		"config", "serial", "iters", "barrier", "OS", "contention")
	for _, p := range sweep.Configs() {
		r := sweep.Results[p]
		t := r.Task(0)
		cont := "-"
		if p > 1 {
			c, err := core.ContentionOverhead(base, r)
			if err == nil {
				cont = fmt.Sprintf("%.1f%%", c.OvCont)
			}
		}
		fmt.Printf("%7dp %7.1f%% %7.1f%% %7.1f%% %9.1f%% %12s\n",
			p, t.Serial*100, t.Iter*100, t.Barrier*100, r.OSShare()*100, cont)
	}

	fmt.Println("\nkey paper findings to look for:")
	fmt.Println("  - speedups stay below average concurrency (overheads eat active time)")
	fmt.Println("  - the OS share grows with the processor count")
	fmt.Println("  - barrier wait appears once multiple clusters are involved")
}
