// Sharding example: partial replication with per-warehouse replication
// groups. Nine sites form three groups of three; each group runs its own
// group-communication stack and total order, and owns a third of the TPC-C
// warehouses. A transaction touching only its home stripe commits through
// its group's order alone — so the three orders run concurrently and
// aggregate throughput scales with the group count. The ~7% of transactions
// whose payment touches a remote warehouse commit through the cross-group
// commit round: the home group orders a prepare, relays carry it to each
// remote group's order, every group votes on its own stripe, and the
// transaction commits only if every group voted yes.
//
// Mid-run, the lowest-numbered site of group 2 — that group's sequencer,
// and the home member coordinating its in-flight cross-group rounds —
// crashes. The survivors install a new view, a surviving home member takes
// the orphaned rounds over from the stored votes, and 5% message loss
// forces the coordinator's retransmit timer to recover lost relays. At the
// end the checker verifies each group's sites committed identical
// sequences, that no transaction committed in one group and aborted in
// another, and that the union of all group orders stays serializable.
//
// Run with: go run ./examples/sharding
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
		// Three groups of three sites each: sites 1-3 are group 1,
		// 4-6 group 2, 7-9 group 3. Warehouse w lives on group w%3+1.
		Sites:       3,
		Groups:      3,
		CPUsPerSite: 1,
		Clients:     450, // 50 per site, spread across every group
		TotalTxns:   4500,
		Seed:        7,
		Faults: faults.Config{
			// Relays between groups are raw datagrams; loss exercises the
			// cross-group retransmit path.
			Loss: faults.Loss{Kind: faults.LossRandom, Rate: 0.05},
			// Group 2's sequencer and cross-group coordinator dies mid-run;
			// sites 5 and 6 keep the group (and its stripe) available.
			Crashes: []faults.Crash{{Site: 4, At: 20 * sim.Second}},
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
	fmt.Printf("committed %d transactions at %.0f tpm across %d replication groups\n",
		results.Committed, results.TPM, results.Groups)
	fmt.Printf("multi-group transactions: %d committed, %d aborted (%.1f%% of commits)\n",
		results.MultiGroupCommitted, results.MultiGroupAborted, results.MultiGroupPct)
	fmt.Printf("cross-group round: %d relay retransmits, %d coordinator handovers\n",
		results.XRetries, results.XHandovers)

	group := 0
	for _, s := range results.Sites {
		if s.Group != group {
			group = s.Group
			fmt.Printf("group %d:\n", group)
		}
		status := "operational"
		if s.Crashed {
			status = "CRASHED (survivors kept the group's stripe available)"
		}
		fmt.Printf("  site %d: committed=%-5d remote-applied=%-5d %s\n",
			s.Site, s.Committed, s.RemoteApplied, status)
	}

	if results.MultiGroupCommitted == 0 {
		log.Fatal("expected some transactions to span groups")
	}
	if results.XHandovers == 0 {
		log.Fatal("expected the coordinator crash to hand rounds over")
	}
	if v := results.Verdict(); v != nil {
		log.Fatalf("SAFETY VIOLATION: %v", v)
	}
	fmt.Println("\nsafety: within every group each site committed the identical")
	fmt.Println("sequence; across groups no transaction committed on one stripe and")
	fmt.Println("aborted on another, and the union of the three orders is acyclic.")
}
