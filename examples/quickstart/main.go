// Quickstart: simulate a replicated database of 3 sites driven by 300 TPC-C
// clients, and print the headline metrics of the paper's evaluation.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
)

func main() {
	// Configure the model: 3 single-CPU replicas on an Ethernet-100 LAN,
	// 300 emulated clients, stopping after 3000 submitted transactions.
	// Everything else (PostgreSQL-calibrated cost model, TPC-C workload
	// mix, group communication tuning) uses the paper's defaults.
	model, err := core.New(core.Config{
		Sites:       3,
		CPUsPerSite: 1,
		Clients:     300,
		TotalTxns:   3000,
		Seed:        1,
	})
	if err != nil {
		log.Fatal(err)
	}

	results, err := model.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("simulated %.1fs of operation (%d events)\n",
		results.Duration.Seconds(), results.Events)
	fmt.Printf("throughput : %.0f committed transactions per minute\n", results.TPM)
	fmt.Printf("latency    : %.1f ms mean, %.1f ms p95\n",
		results.MeanLatencyMS, results.P95LatencyMS)
	fmt.Printf("abort rate : %.2f%%\n", results.AbortRatePct)
	fmt.Printf("resources  : cpu %.1f%% (protocol %.2f%%), disk %.1f%%, net %.1f KB/s\n",
		results.CPUUtilPct, results.CPURealUtilPct, results.DiskUtilPct, results.NetKBps)

	fmt.Println("\nabort breakdown per transaction class:")
	for _, c := range results.Classes {
		fmt.Printf("  %-18s %6.2f%%  (%d submitted)\n", c.Name, c.AbortRatePct, c.Submitted)
	}

	// The paper's safety condition: all operational sites committed
	// exactly the same sequence of transactions.
	if v := results.Verdict(); v != nil {
		log.Fatalf("SAFETY VIOLATION: %v", v)
	}
	fmt.Println("\nsafety: all sites committed identical transaction sequences")
}
