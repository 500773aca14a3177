// Wide-area example: run the group communication prototype over a simulated
// WAN — two datacenter LANs joined by a 10 Mbit/s, 20 ms link — using the
// unicast fallback the paper describes for wide-area deployments, and
// measure how total order inflates delivery latency for remote messages.
//
// This exercises the protocol layers directly (gcs + csrt + simnet), the
// same way the paper's tool stresses early implementations in environments
// that would be costly to set up for real (Section 5.2 suggests wide-area
// deployment; Section 5.3 shows why total order is the obstacle).
//
// Run with: go run ./examples/wan
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/csrt"
	"repro/internal/gcs"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example: the report goes to w, and a member that missed a
// delivery is an error.
func run(w io.Writer) error {
	k := sim.NewKernel()
	rng := sim.NewRNG(99)
	net := simnet.NewNetwork(k, rng.Fork("net"))

	// Two datacenters, 20ms apart.
	dcEast := net.NewLAN(simnet.DefaultLANConfig("dc-east"))
	dcWest := net.NewLAN(simnet.DefaultLANConfig("dc-west"))
	net.Connect(dcEast, dcWest, simnet.LinkConfig{
		BandwidthBps: 10e6,
		Delay:        20 * sim.Millisecond,
	})

	// Four members: 1,2 east; 3,4 west.
	members := []gcs.NodeID{1, 2, 3, 4}
	net.SetGroup(1, members)
	lanOf := map[gcs.NodeID]*simnet.LAN{1: dcEast, 2: dcEast, 3: dcWest, 4: dcWest}

	stacks := make(map[gcs.NodeID]*gcs.Stack, len(members))
	rts := make(map[gcs.NodeID]*csrt.Runtime, len(members))
	sendTimes := make(map[string]sim.Time)
	var localLat, remoteLat, optLat metrics.Sample

	for _, id := range members {
		host, err := net.NewHost(id, lanOf[id])
		if err != nil {
			return err
		}
		rt := csrt.NewRuntime(k, id, &csrt.ModelProfiler{}, net.Port(id, 1400),
			csrt.DefaultCostParams(), rng.Fork(fmt.Sprintf("rt-%d", id)))
		rt.Bind(csrt.NewCPUSet(1, k, nil))
		host.DeliverTo(rt.Deliver)

		stack, err := gcs.New(rt, gcs.Config{
			Self:    id,
			Members: members,
			Group:   1,
			// The paper's prototype falls back to unicast outside
			// IP-multicast-capable LANs.
			UseMulticast: false,
			// WAN tuning: pace first transmissions under the link
			// capacity and allow deeper buffering for the
			// bandwidth-delay product.
			RateBps:     1_000_000,
			BufferBytes: 1 << 20,
		})
		if err != nil {
			return err
		}
		self := id
		stack.OnDeliver(func(d gcs.Delivery) {
			if self != 3 {
				return // observe at a west member, far from the sequencer
			}
			key := string(d.Payload)
			lat := k.Now() - sendTimes[key]
			if d.Sender <= 2 {
				localLat.Add(lat.Millis())
			} else {
				remoteLat.Add(lat.Millis())
			}
		})
		stack.OnOptimistic(func(d gcs.OptDelivery) {
			if self != 3 {
				return
			}
			optLat.Add((k.Now() - sendTimes[string(d.Payload)]).Millis())
		})
		stacks[id] = stack
		rts[id] = rt
		stack.Start()
	}

	// Every member multicasts 100 small messages, 20ms apart.
	for i := 0; i < 100; i++ {
		for _, id := range members {
			payload := []byte(fmt.Sprintf("%d-%d", id, i))
			at := sim.Time(i+1) * 20 * sim.Millisecond
			sender := id
			k.ScheduleAt(at, func() {
				sendTimes[string(payload)] = k.Now()
				rts[sender].CPUs().SubmitReal(func() {
					stacks[sender].Multicast(payload)
				}, nil)
			})
		}
	}
	if err := k.RunUntil(30 * sim.Second); err != nil {
		return err
	}

	fmt.Fprintln(w, "wide-area atomic multicast, observed at a west-coast member")
	fmt.Fprintln(w, "(the fixed sequencer lives in the east datacenter):")
	fmt.Fprintf(w, "  east (cross-DC) senders : mean %6.1f ms, p95 %6.1f ms (n=%d)\n",
		localLat.Mean(), localLat.Quantile(0.95), localLat.N())
	fmt.Fprintf(w, "  west (same-DC) senders  : mean %6.1f ms, p95 %6.1f ms (n=%d)\n",
		remoteLat.Mean(), remoteLat.Quantile(0.95), remoteLat.N())
	fmt.Fprintln(w, "\neven same-LAN messages pay wide-area round trips, because the")
	fmt.Fprintln(w, "fixed sequencer must order every message: the result that leads")
	fmt.Fprintln(w, "the paper to call for relaxing total order (or optimistic total")
	fmt.Fprintln(w, "order) before deploying the DBSM across wide-area networks.")

	final := &metrics.Sample{}
	for _, v := range localLat.Values() {
		final.Add(v)
	}
	for _, v := range remoteLat.Values() {
		final.Add(v)
	}
	var mispred int64
	for _, id := range members {
		mispred += stacks[id].Stats().Mispredicted
	}
	fmt.Fprintf(w, "\noptimistic total order (the paper's §7 direction):\n")
	fmt.Fprintf(w, "  tentative delivery mean : %6.1f ms\n", optLat.Mean())
	fmt.Fprintf(w, "  final delivery mean     : %6.1f ms  (%.0f ms saved optimistically)\n",
		final.Mean(), final.Mean()-optLat.Mean())
	fmt.Fprintf(w, "  order mispredictions    : %d of %d deliveries across all members\n",
		mispred, 4*optLat.N())

	for _, id := range members {
		if d := stacks[id].Stats().Delivered; d != 400 {
			return fmt.Errorf("member %d delivered %d messages, want 400", id, d)
		}
	}
	fmt.Fprintln(w, "\nall 4 members delivered all 400 messages in the same total order.")
	return nil
}
