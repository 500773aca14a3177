package runtimeapi_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/runtimeapi"
	"repro/internal/sim"
)

// newPair builds two native runtimes that know each other's loopback
// addresses (bind to learn ports, rebind with full peer tables).
func newPair(t *testing.T) (*runtimeapi.Native, *runtimeapi.Native) {
	t.Helper()
	pa, err := runtimeapi.NewNative(runtimeapi.NativeConfig{Self: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addrA := pa.LocalAddr()
	pa.Close()
	pb, err := runtimeapi.NewNative(runtimeapi.NativeConfig{Self: 2, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addrB := pb.LocalAddr()
	pb.Close()

	a, err := runtimeapi.NewNative(runtimeapi.NativeConfig{
		Self: 1, Listen: addrA,
		Peers:  map[runtimeapi.NodeID]string{1: addrA, 2: addrB},
		Groups: map[runtimeapi.Group][]runtimeapi.NodeID{1: {1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runtimeapi.NewNative(runtimeapi.NativeConfig{
		Self: 2, Listen: addrB,
		Peers:  map[runtimeapi.NodeID]string{1: addrA, 2: addrB},
		Groups: map[runtimeapi.Group][]runtimeapi.NodeID{1: {1, 2}},
	})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b
}

func TestNativeSendReceive(t *testing.T) {
	a, b := newPair(t)
	got := make(chan string, 1)
	b.SetReceiver(func(src runtimeapi.NodeID, data []byte) {
		got <- fmt.Sprintf("%d:%s", src, data)
	})
	if err := a.Send(2, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if msg != "1:hello" {
			t.Fatalf("got %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("datagram never arrived")
	}
}

func TestNativeMulticastExcludesSender(t *testing.T) {
	a, b := newPair(t)
	gotB := make(chan struct{}, 10)
	gotA := make(chan struct{}, 10)
	a.SetReceiver(func(runtimeapi.NodeID, []byte) { gotA <- struct{}{} })
	b.SetReceiver(func(runtimeapi.NodeID, []byte) { gotB <- struct{}{} })
	if err := a.Multicast(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gotB:
	case <-time.After(5 * time.Second):
		t.Fatal("multicast never reached member")
	}
	select {
	case <-gotA:
		t.Fatal("sender received its own multicast at transport level")
	case <-time.After(100 * time.Millisecond):
	}
}

// TestNativeScheduleAndCancel arms one timer, lets it fire, arms it again,
// stops that arm before it is due and arms it once more: two fires, and the
// stopped arm never runs. Two arms in a row, the first still pending at the
// second, fire twice.
func TestNativeScheduleAndCancel(t *testing.T) {
	a, _ := newPair(t)
	fired := make(chan time.Time, 4)
	tm := a.NewTimer(func() { fired <- time.Now() })
	tm.Arm(20 * sim.Millisecond)
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
	if tm.Stop() {
		t.Fatal("Stop after the fire returned true")
	}
	tm.Arm(50 * sim.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop returned false for an armed timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	time.Sleep(150 * time.Millisecond)
	select {
	case <-fired:
		t.Fatal("stopped timer fired")
	default:
	}
	armed := time.Now()
	tm.Arm(20 * sim.Millisecond)
	select {
	case at := <-fired:
		if at.Sub(armed) < 20*time.Millisecond {
			t.Fatalf("re-armed timer fired after %v, want at least 20ms", at.Sub(armed))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("re-armed timer never fired")
	}
	tm.Arm(20 * sim.Millisecond)
	tm.Arm(40 * sim.Millisecond)
	for i := 0; i < 2; i++ {
		select {
		case <-fired:
		case <-time.After(5 * time.Second):
			t.Fatalf("of two pending arms, %d fired", i)
		}
	}
}

func TestNativeNowMonotonic(t *testing.T) {
	a, _ := newPair(t)
	t1 := a.Now()
	time.Sleep(10 * time.Millisecond)
	t2 := a.Now()
	if t2 <= t1 {
		t.Fatalf("clock not monotonic: %v then %v", t1, t2)
	}
}

func TestNativeErrors(t *testing.T) {
	a, _ := newPair(t)
	if err := a.Send(2, make([]byte, 2000)); err != runtimeapi.ErrTooBig {
		t.Fatalf("oversize: %v", err)
	}
	if err := a.Send(99, []byte("x")); err == nil {
		t.Fatal("unknown peer accepted")
	}
	if err := a.Multicast(99, []byte("x")); err == nil {
		t.Fatal("unknown group accepted")
	}
	if a.MTU() != 1400 {
		t.Fatalf("default MTU = %d", a.MTU())
	}
	if a.Self() != 1 {
		t.Fatal("self wrong")
	}
	a.Close()
	if err := a.Send(2, []byte("x")); err != runtimeapi.ErrDown {
		t.Fatalf("send after close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
