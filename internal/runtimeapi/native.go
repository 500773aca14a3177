package runtimeapi

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/sim"
)

// NativeConfig configures a Native runtime: the real-network bridge of the
// abstraction layer (java.util.Timer / java.net.DatagramSocket in the
// paper's prototype; time.Timer / net.UDPConn here).
type NativeConfig struct {
	// Self is the local node ID.
	Self NodeID
	// Listen is the local UDP address to bind, e.g. "127.0.0.1:7001".
	Listen string
	// Peers maps every node ID (including Self) to its UDP address.
	Peers map[NodeID]string
	// Groups maps multicast groups to member node IDs. The native bridge
	// implements group sends as iterated unicast.
	Groups map[Group][]NodeID
	// MTU bounds payload sizes; defaults to 1400 if zero.
	MTU int
}

// Native runs protocol code on the real Go runtime and network. All
// callbacks (receive upcalls and timers) are serialized onto one internal
// goroutine, preserving the single-threaded contract of Runtime.
type Native struct {
	cfg   NativeConfig
	conn  *net.UDPConn
	peers map[NodeID]*net.UDPAddr

	start time.Time

	mu     sync.Mutex
	recv   Receiver
	closed bool

	loopCh chan func()
	done   chan struct{}
	wg     sync.WaitGroup
}

var _ Runtime = (*Native)(nil)

const nativeHeader = 4 // leading src NodeID

// NewNative binds the local socket and starts the dispatch loop. The caller
// must Close the runtime when finished.
func NewNative(cfg NativeConfig) (*Native, error) {
	if cfg.MTU == 0 {
		cfg.MTU = 1400
	}
	laddr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("runtimeapi: resolve listen addr: %w", err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("runtimeapi: listen: %w", err)
	}
	n := &Native{
		cfg:    cfg,
		conn:   conn,
		peers:  make(map[NodeID]*net.UDPAddr, len(cfg.Peers)),
		start:  time.Now(),
		loopCh: make(chan func(), 1024),
		done:   make(chan struct{}),
	}
	for id, addr := range cfg.Peers {
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("runtimeapi: resolve peer %d: %w", id, err)
		}
		n.peers[id] = ua
	}
	n.wg.Add(2)
	go n.readLoop()
	go n.dispatchLoop()
	return n, nil
}

// LocalAddr reports the bound UDP address (useful when Listen used port 0).
func (n *Native) LocalAddr() string { return n.conn.LocalAddr().String() }

// Close stops the runtime. Pending callbacks are discarded.
func (n *Native) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	close(n.done)
	err := n.conn.Close()
	n.wg.Wait()
	return err
}

func (n *Native) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

func (n *Native) readLoop() {
	defer n.wg.Done()
	buf := make([]byte, 65536)
	for {
		sz, _, err := n.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		if sz < nativeHeader {
			continue
		}
		src := NodeID(binary.BigEndian.Uint32(buf[:4]))
		data := make([]byte, sz-nativeHeader)
		copy(data, buf[nativeHeader:sz])
		n.post(func() {
			n.mu.Lock()
			r := n.recv
			n.mu.Unlock()
			if r != nil {
				r(src, data)
			}
		})
	}
}

func (n *Native) dispatchLoop() {
	defer n.wg.Done()
	for {
		select {
		case fn := <-n.loopCh:
			fn()
		case <-n.done:
			return
		}
	}
}

func (n *Native) post(fn func()) {
	select {
	case n.loopCh <- fn:
	case <-n.done:
	}
}

// Self implements Runtime.
func (n *Native) Self() NodeID { return n.cfg.Self }

// Now implements Runtime: monotonic nanoseconds since the runtime started.
func (n *Native) Now() sim.Time { return sim.FromDuration(time.Since(n.start)) }

// Charge implements Runtime; real executions are measured by the OS, so the
// model cost declaration is a no-op here.
func (n *Native) Charge(sim.Time) {}

// MTU implements Runtime.
func (n *Native) MTU() int { return n.cfg.MTU }

// SetReceiver implements Runtime.
func (n *Native) SetReceiver(r Receiver) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.recv = r
}

// nativeTimer is Native's Timer. Its latest arm is a nativeArm whose
// time.Timer every later Arm resets, once that arm has fired or been
// stopped; an Arm while it is still pending leaves it to fire and takes a
// new one.
type nativeTimer struct {
	n      *Native
	fn     func()
	mu     sync.Mutex
	latest *nativeArm
}

// nativeArm is one time.Timer of a nativeTimer, with the callbacks bound to
// it once: post, its expiry, hands run to the dispatch loop. A Stop that
// comes too late to stop an expiry already under way counts it stale, and
// run drops it.
type nativeArm struct {
	t         *nativeTimer
	tt        *time.Timer
	post, run func()
	armed     bool
	stale     int
}

// NewTimer implements Runtime.
func (n *Native) NewTimer(fn func()) Timer { return &nativeTimer{n: n, fn: fn} }

// Arm implements Timer.
func (t *nativeTimer) Arm(d sim.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.latest; a != nil && !a.armed {
		a.armed = true
		a.tt.Reset(d.Duration())
		return
	}
	a := &nativeArm{t: t, armed: true}
	a.run = a.expire
	a.post = func() { t.n.post(a.run) }
	a.tt = time.AfterFunc(d.Duration(), a.post)
	t.latest = a
}

// Stop implements Timer.
func (t *nativeTimer) Stop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.latest
	if a == nil || !a.armed {
		return false
	}
	a.armed = false
	if !a.tt.Stop() {
		a.stale++
	}
	return true
}

func (a *nativeArm) expire() {
	t := a.t
	t.mu.Lock()
	if a.stale > 0 {
		a.stale--
		t.mu.Unlock()
		return
	}
	a.armed = false
	t.mu.Unlock()
	t.fn()
}

// StartJob implements Runtime. The native bridge has no bookkeeping worth
// recycling: each call is a time.AfterFunc.
func (n *Native) StartJob(d sim.Time, fn func()) {
	time.AfterFunc(d.Duration(), func() { n.post(fn) })
}

// Send implements Runtime.
func (n *Native) Send(dst NodeID, data []byte) error {
	if n.isClosed() {
		return ErrDown
	}
	if len(data) > n.cfg.MTU {
		return ErrTooBig
	}
	addr, ok := n.peers[dst]
	if !ok {
		return fmt.Errorf("runtimeapi: unknown peer %d", dst)
	}
	buf := make([]byte, nativeHeader+len(data))
	binary.BigEndian.PutUint32(buf[:4], uint32(n.cfg.Self))
	copy(buf[nativeHeader:], data)
	if _, err := n.conn.WriteToUDP(buf, addr); err != nil {
		return fmt.Errorf("runtimeapi: send to %d: %w", dst, err)
	}
	return nil
}

// Multicast implements Runtime by iterated unicast, as the paper's prototype
// does outside IP-multicast-capable LANs.
func (n *Native) Multicast(g Group, data []byte) error {
	members, ok := n.cfg.Groups[g]
	if !ok {
		return fmt.Errorf("runtimeapi: unknown group %d", g)
	}
	for _, m := range members {
		if m == n.cfg.Self {
			continue
		}
		if err := n.Send(m, data); err != nil {
			return err
		}
	}
	return nil
}
