// Fault tolerance example: subject a 3-site replicated database to 5%
// random message loss AND a site crash mid-run — and then bring the crashed
// site BACK: it rejoins through the recovery join handshake, state-transfers
// a snapshot from a donor, replays the delta, and serves traffic again.
//
// The run demonstrates both sides of dependability: the survivors keep
// committing through the outage (a new view excludes the dead site), and
// the recovered site's commit log re-converges to the group's, so at the
// end every operational site — the rejoined one included — has committed
// the identical transaction sequence.
//
// Run with: go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
)

func main() {
	model, err := core.New(core.Config{
		Sites:       3,
		CPUsPerSite: 1,
		Clients:     300,
		TotalTxns:   3000,
		Seed:        7,
		Faults: faults.Config{
			// Every receiver independently drops 5% of messages.
			Loss: faults.Loss{Kind: faults.LossRandom, Rate: 0.05},
			// Site 3 dies 30 simulated seconds into the run...
			Crashes: []faults.Crash{{Site: 3, At: 30 * sim.Second}},
			// ...and restarts 20 seconds later, rejoining the group.
			Recovers: []faults.Recover{{Site: 3, At: 50 * sim.Second}},
		},
		MaxSimTime: 10 * sim.Minute,
	})
	if err != nil {
		log.Fatal(err)
	}
	results, err := model.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("run finished after %.1fs simulated\n", results.Duration.Seconds())
	fmt.Printf("committed %d transactions at %.0f tpm despite loss, crash, and rejoin\n",
		results.Committed, results.TPM)
	fmt.Printf("group communication: %d retransmissions, %d NACKs, %d view change(s), %d join(s)\n",
		results.GCS.Retransmits, results.GCS.Nacks, results.GCS.ViewChanges, results.GCS.Joins)

	for _, s := range results.Sites {
		status := "operational"
		switch {
		case s.Recovered:
			status = fmt.Sprintf("RECOVERED (down %.1fs, recovery %.1fs, snapshot %.0fKB, delta %d, lag %d)",
				s.DowntimeMS/1000, s.RecoveryMS/1000, s.TransferKB, s.DeltaApplied, s.RejoinLag)
		case s.Crashed:
			status = "CRASHED (its clients stay blocked, as in the paper)"
		}
		fmt.Printf("  site %d: committed=%-5d remote-applied=%-5d %s\n",
			s.Site, s.Committed, s.RemoteApplied, status)
	}

	if results.GCS.ViewChanges == 0 {
		log.Fatal("expected the survivors to install a new view")
	}
	if results.Recoveries != 1 {
		log.Fatalf("expected one completed rejoin, got %d", results.Recoveries)
	}
	if results.TransferBytes == 0 {
		log.Fatal("expected a nonzero snapshot transfer")
	}
	if v := results.Verdict(); v != nil {
		log.Fatalf("SAFETY VIOLATION: %v", v)
	}
	fmt.Println("\nsafety: every operational site — the rejoined one included —")
	fmt.Println("committed the identical sequence; the recovered site's pre-crash")
	fmt.Println("log was verified as a prefix of its donor's at install time.")
}
