package gcs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/runtimeapi"
	"repro/internal/sim"
)

// TestStackRunsOnNativeRuntime is the deployability proof of the paper's
// abstraction layer (Section 2.3): the identical protocol stack that the
// simulations exercise runs here over the native bridge — real timers and
// real UDP sockets on the loopback — and three members still agree on one
// total order.
func TestStackRunsOnNativeRuntime(t *testing.T) {
	const n = 3
	// Phase 1: bind to learn ports.
	addrs := make(map[runtimeapi.NodeID]string, n)
	for i := 1; i <= n; i++ {
		probe, err := runtimeapi.NewNative(runtimeapi.NativeConfig{
			Self: runtimeapi.NodeID(i), Listen: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		addrs[runtimeapi.NodeID(i)] = probe.LocalAddr()
		probe.Close()
	}
	members := []NodeID{1, 2, 3}

	// Phase 2: real runtimes with full peer tables.
	var mu sync.Mutex
	delivered := make(map[NodeID][]Delivery)
	natives := make(map[NodeID]*runtimeapi.Native, n)
	stacks := make(map[NodeID]*Stack, n)
	for _, id := range members {
		nat, err := runtimeapi.NewNative(runtimeapi.NativeConfig{
			Self:   id,
			Listen: addrs[id],
			Seed:   int64(id),
			Peers:  addrs,
			Groups: map[runtimeapi.Group][]runtimeapi.NodeID{1: {1, 2, 3}},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer nat.Close()
		st, err := New(nat, Config{
			Self:         id,
			Members:      members,
			Group:        1,
			UseMulticast: true, // iterated unicast on the native bridge
			// Tighten timers: this is a real-time test.
			nackDelay:       5 * sim.Millisecond,
			retransPeriod:   20 * sim.Millisecond,
			stabilityPeriod: 25 * sim.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		self := id
		st.OnDeliver(func(d Delivery) {
			mu.Lock()
			delivered[self] = append(delivered[self], keep(d))
			mu.Unlock()
		})
		natives[id] = nat
		stacks[id] = st
		// Start belongs to the dispatch context: a peer that is already up may
		// be sending, and receive runs on the dispatch loop.
		nat.StartJob(0, st.Start)
	}

	// Each member multicasts 10 payloads, injected through the runtime's
	// dispatch context (the stack is single-threaded).
	const perMember = 10
	for _, id := range members {
		nat, st := natives[id], stacks[id]
		sender := id
		for i := 0; i < perMember; i++ {
			payload := []byte(fmt.Sprintf("%d-%d", sender, i))
			nat.Schedule(sim.Time(i+1)*5*sim.Millisecond, func() {
				st.Multicast(payload)
			})
		}
	}

	// Wait for full agreement (deadline-bounded).
	want := n * perMember
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		done := len(delivered[1]) >= want && len(delivered[2]) >= want && len(delivered[3]) >= want
		mu.Unlock()
		if done {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	ref := delivered[1]
	if len(ref) != want {
		t.Fatalf("member 1 delivered %d of %d", len(ref), want)
	}
	for _, id := range members[1:] {
		got := delivered[id]
		if len(got) != want {
			t.Fatalf("member %d delivered %d of %d", id, len(got), want)
		}
		for i := range ref {
			if got[i].Global != ref[i].Global || got[i].Sender != ref[i].Sender ||
				!bytes.Equal(got[i].Payload, ref[i].Payload) {
				t.Fatalf("total order diverged at %d: %+v vs %+v", i, got[i], ref[i])
			}
		}
	}
}
