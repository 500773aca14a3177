package main

import (
	"fmt"

	"repro/internal/csrt"
	"repro/internal/expr"
	"repro/internal/runtimeapi"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// fig3 reproduces the centralized-simulation-runtime validation (Figure 3):
// the maximum bandwidth a single process can write to a UDP socket, the
// receive bandwidth over Ethernet-100, and the round-trip time, for varying
// message sizes.
//
// The "Real" series stands in for the paper's PIII-1GHz measurements: it
// runs the same benchmark code over a network model with real-system
// behaviours enabled — IP fragmentation at the Ethernet MTU and the virtual
// memory page-boundary penalty above 4 KB — while the "CSRT" series uses the
// plain SSFNet-like model, which does not enforce the MTU for UDP traffic.
// The divergence beyond the MTU is exactly the deviation the paper reports
// and avoids by restricting protocol packet sizes.
func (h *harness) fig3() error {
	header("Figure 3 — CSRT validation (flood and round-trip benchmarks)")
	sizes := []int{64, 128, 256, 512, 1000, 1472, 2000, 3000, 4000, 4096}

	// Each message size is an independent pair of simulations: fan the
	// column out across the worker pool and print in size order.
	type row struct{ outR, inR, rttR, outC, inC, rttC float64 }
	rows := make([]row, len(sizes))
	expr.ForEach(h.parallel, len(sizes), func(i int) {
		r := &rows[i]
		r.outR, r.inR, r.rttR = floodAndRTT(sizes[i], true, h.seed)
		r.outC, r.inC, r.rttC = floodAndRTT(sizes[i], false, h.seed)
	})

	fmt.Printf("%8s | %12s %12s | %12s %12s | %12s %12s\n",
		"size(B)", "out Real", "out CSRT", "in Real", "in CSRT", "rtt Real", "rtt CSRT")
	fmt.Printf("%8s | %12s %12s | %12s %12s | %12s %12s\n",
		"", "(Mbit/s)", "(Mbit/s)", "(Mbit/s)", "(Mbit/s)", "(us)", "(us)")
	for i, size := range sizes {
		r := rows[i]
		fmt.Printf("%8d | %12.1f %12.1f | %12.1f %12.1f | %12.0f %12.0f\n",
			size, r.outR, r.outC, r.inR, r.inC, r.rttR, r.rttC)
	}
	fmt.Println("\nshape checks: output rises with size (fixed-cost amortization);")
	fmt.Println("input saturates near Ethernet-100 capacity; RTT curves diverge")
	fmt.Println("beyond the MTU where the real stack fragments (paper Fig. 3c).")
	return nil
}

// floodAndRTT runs the two micro-benchmarks between two hosts and returns
// (output Mbit/s, input Mbit/s, round-trip µs).
func floodAndRTT(size int, realSystem bool, seed int64) (outMbit, inMbit, rttUS float64) {
	costs := csrt.DefaultCostParams()
	if realSystem && size >= 4096 {
		// Crossing the 4KB virtual-memory page boundary costs extra in
		// the real system (paper Section 4.2).
		costs.SendFixed += 25 * sim.Microsecond
	}

	build := func() (*sim.Kernel, *csrt.Runtime, *csrt.Runtime, *simnet.Network) {
		k := sim.NewKernel()
		rng := sim.NewRNG(seed)
		net := simnet.NewNetwork(k, rng.Fork("net"))
		lanCfg := simnet.DefaultLANConfig("lan")
		lanCfg.FragmentOversize = realSystem
		lan := net.NewLAN(lanCfg)
		h1, _ := net.NewHost(1, lan)
		h2, _ := net.NewHost(2, lan)
		rt1 := csrt.NewRuntime(k, 1, &csrt.ModelProfiler{}, net.Port(1, 65536), costs, rng.Fork("rt1"))
		rt1.Bind(csrt.NewCPUSet(1, k, nil))
		rt2 := csrt.NewRuntime(k, 2, &csrt.ModelProfiler{}, net.Port(2, 65536), costs, rng.Fork("rt2"))
		rt2.Bind(csrt.NewCPUSet(1, k, nil))
		h1.DeliverTo(rt1.Deliver)
		h2.DeliverTo(rt2.Deliver)
		return k, rt1, rt2, net
	}

	// Flood: host 1 writes as fast as its CPU allows for 200ms.
	{
		k, rt1, rt2, _ := build()
		const window = 200 * sim.Millisecond
		payload := make([]byte, size)
		var sent int64
		var stop bool
		var pump func()
		pump = func() {
			if stop {
				return
			}
			for i := 0; i < 20; i++ {
				if rt1.Send(2, payload) == nil {
					sent++
				}
			}
			rt1.Schedule(0, pump)
		}
		var received int64
		rt2.SetReceiver(func(_ runtimeapi.NodeID, data []byte) {
			if k.Now() <= window {
				received += int64(len(data))
			}
		})
		rt1.Schedule(0, pump)
		k.ScheduleAt(window, func() { stop = true })
		_ = k.RunUntil(window + 50*sim.Millisecond)
		elapsed := window.Seconds()
		outMbit = float64(sent*int64(size)) * 8 / 1e6 / elapsed
		inMbit = float64(received) * 8 / 1e6 / elapsed
	}

	// Round-trip: 200 ping-pong exchanges.
	{
		k, rt1, rt2, _ := build()
		payload := make([]byte, size)
		const rounds = 200
		var count int
		var total sim.Time
		var lastSend sim.Time
		rt2.SetReceiver(func(src runtimeapi.NodeID, data []byte) {
			_ = rt2.Send(src, data) // echo
		})
		var ping func()
		ping = func() {
			lastSend = rt1.Now()
			_ = rt1.Send(2, payload)
		}
		rt1.SetReceiver(func(runtimeapi.NodeID, []byte) {
			total += rt1.Now() - lastSend
			count++
			if count < rounds {
				ping()
			}
		})
		rt1.Schedule(0, ping)
		_ = k.RunUntil(30 * sim.Second)
		if count > 0 {
			rttUS = (total.Seconds() / float64(count)) * 1e6
		}
	}
	return outMbit, inMbit, rttUS
}
