package csrt

import (
	"repro/internal/runtimeapi"
	"repro/internal/sim"
)

// Port is the network attachment point the Runtime injects packets into.
// It is implemented by the simulated network (internal/simnet adapter), and
// Send and Multicast copy data before returning, under runtimeapi's contract.
// delay offsets the injection from the current kernel time, carrying the
// paper's δ′q = ∆1 + δq correction: effects of real code appear only after
// the CPU time the code has consumed so far.
type Port interface {
	Send(dst runtimeapi.NodeID, data []byte, delay sim.Time) error
	Multicast(g runtimeapi.Group, data []byte, delay sim.Time) error
	MTU() int
}

// CostParams are the four configuration parameters of the centralized
// simulation runtime (Section 4.1): fixed and per-byte CPU overhead for
// sending and receiving a message. Per-byte values are nanoseconds per byte.
type CostParams struct {
	SendFixed   sim.Time
	SendPerByte float64
	RecvFixed   sim.Time
	RecvPerByte float64
}

// SendCost computes the CPU cost of sending an n-byte message.
func (c CostParams) SendCost(n int) sim.Time {
	return c.SendFixed + sim.Time(c.SendPerByte*float64(n))
}

// RecvCost computes the CPU cost of receiving an n-byte message.
func (c CostParams) RecvCost(n int) sim.Time {
	return c.RecvFixed + sim.Time(c.RecvPerByte*float64(n))
}

// DefaultCostParams is the calibration obtained by the paper's network
// flooding benchmark on the PIII-1GHz/Ethernet-100 test system. The values
// reproduce Figure 3(a): a single sender writing 4 KB datagrams achieves
// ~550 Mbit/s of socket output.
func DefaultCostParams() CostParams {
	return CostParams{
		SendFixed:   10 * sim.Microsecond,
		SendPerByte: 12,
		RecvFixed:   8 * sim.Microsecond,
		RecvPerByte: 10,
	}
}

// Runtime is the simulation-side implementation of runtimeapi.Runtime: the
// bridge that lets real protocol code run under the discrete-event kernel
// (Section 2.3). One Runtime exists per simulated node.
type Runtime struct {
	k    *sim.Kernel
	node runtimeapi.NodeID
	cpus *CPUSet
	prof *ModelProfiler
	port Port
	cost CostParams
	recv runtimeapi.Receiver

	inJob bool
	extra sim.Time // send/recv stack overhead accrued by the current job

	down bool

	// Fault injection (Section 5.3).
	driftRate float64                 // clock drift rate r
	schedLat  func(*sim.RNG) sim.Time // extra latency for future events
	latRNG    *sim.RNG

	freeDlv sim.FreeList[*delivery] // recycled reception thunks
	freeJob sim.FreeList[*oneShot]  // recycled fire-and-forget job thunks
}

// oneShot is a pooled fire-and-forget scheduled job (StartJob): no handle
// exists, so the struct can be recycled the moment it fires.
type oneShot struct {
	r    *Runtime
	fn   func()
	fire func()
}

func (o *oneShot) run() {
	r, fn := o.r, o.fn
	o.fn = nil
	r.freeJob.Put(o)
	if r.down {
		return
	}
	r.cpus.SubmitReal(fn, nil)
}

// delivery is one pooled pending reception job: its closure is bound once at
// allocation and data is its own copy of the datagram, kept with the struct
// across uses, so handing a datagram to the CPU allocates nothing in steady
// state.
type delivery struct {
	r    *Runtime
	src  runtimeapi.NodeID
	data []byte
	fire func()
}

// run charges the receive overhead and lends data to the receiver for the
// upcall; the record goes back to the pool, bytes and all, when it returns.
func (d *delivery) run() {
	r := d.r
	r.extra += r.cost.RecvCost(len(d.data))
	if r.recv != nil {
		r.recv(d.src, d.data)
	}
	d.data = d.data[:0]
	r.freeDlv.Put(d)
}

var _ runtimeapi.Runtime = (*Runtime)(nil)

// NewRuntime creates the runtime for one node. It runs nothing until Bind
// gives it the CPU set its jobs execute on. The last argument is unused; it
// stays until bench/drivers.go stops passing one (ROADMAP item 7).
func NewRuntime(k *sim.Kernel, node runtimeapi.NodeID, prof *ModelProfiler, port Port, cost CostParams, _ *sim.RNG) *Runtime {
	return &Runtime{k: k, node: node, prof: prof, port: port, cost: cost}
}

// Bind attaches the CPU set that executes this node's jobs and installs this
// runtime as the real-job executor of CPU 0, where every real job runs. It
// must be called exactly once before the simulation starts.
func (r *Runtime) Bind(cpus *CPUSet) {
	r.cpus = cpus
	cpus.cpus[0].exec = r.execReal
}

// CPUs returns the bound CPU set.
func (r *Runtime) CPUs() *CPUSet { return r.cpus }

// SetClockDrift installs the clock-drift fault: scheduled delays are scaled
// up by (1+rate) and measured durations scaled down by 1/(1+rate).
func (r *Runtime) SetClockDrift(rate float64) { r.driftRate = rate }

// SetSchedulingLatency installs the scheduling-latency fault: gen produces a
// random extra delay added to every event scheduled in the future.
func (r *Runtime) SetSchedulingLatency(gen func(*sim.RNG) sim.Time, rng *sim.RNG) {
	r.schedLat = gen
	r.latRNG = rng
}

// Crash stops the node at the current instant: all queued and future work is
// dropped and the node neither sends nor receives from now on.
func (r *Runtime) Crash() {
	r.down = true
	if r.cpus != nil {
		r.cpus.Stop()
	}
}

// Restart brings a crashed node back up: the CPUs resume dispatching and the
// node sends and receives again. Work dropped at crash time stays dropped —
// timers armed by the dead incarnation that fire after the restart run their
// callbacks, which must fence themselves (protocol stacks do, via their
// stopped flag). The receiver installed by the previous incarnation remains
// until the new protocol stack replaces it with SetReceiver.
func (r *Runtime) Restart() {
	if !r.down {
		return
	}
	r.down = false
	if r.cpus != nil {
		r.cpus.Restart()
	}
}

func (r *Runtime) driftFactor() float64 { return 1 + r.driftRate }

// scaleMeasured converts a job's charged cost into the simulated time line,
// applying clock drift.
func (r *Runtime) scaleMeasured(d sim.Time) sim.Time {
	if r.driftRate == 0 {
		return d
	}
	return sim.Time(float64(d) / r.driftFactor())
}

// execReal runs a real job body and returns the total busy duration to
// charge to the CPU: the cost the code declared plus the stack overhead
// accrued by sends/receives during the job.
func (r *Runtime) execReal(fn func()) sim.Time {
	r.inJob = true
	r.extra = 0
	r.prof.Begin()
	fn()
	r.inJob = false
	return r.scaleMeasured(r.prof.End()) + r.extra
}

// elapsedInJob reports the simulated CPU time consumed by the current job so
// far: the δ used to offset effects of real code (Figure 1b).
func (r *Runtime) elapsedInJob() sim.Time {
	if !r.inJob {
		return 0
	}
	return r.scaleMeasured(r.prof.Elapsed()) + r.extra
}

// Self implements runtimeapi.Runtime.
func (r *Runtime) Self() runtimeapi.NodeID { return r.node }

// Now implements runtimeapi.Runtime: within a real job it reports kernel
// time plus the job's elapsed cost, so real code observes time advancing as
// it computes.
func (r *Runtime) Now() sim.Time {
	return r.k.Now() + r.elapsedInJob()
}

// Charge implements runtimeapi.Runtime: real code declares model cost.
// Charges outside a job context (setup code) are discarded — there is no
// CPU occupancy to account them to.
func (r *Runtime) Charge(cost sim.Time) {
	if r.inJob {
		r.prof.Charge(cost)
	}
}

// MTU implements runtimeapi.Runtime.
func (r *Runtime) MTU() int { return r.port.MTU() }

// SetReceiver implements runtimeapi.Runtime.
func (r *Runtime) SetReceiver(recv runtimeapi.Receiver) { r.recv = recv }

// delay is the one rule for when work requested d from now enters the kernel:
// d is clamped at zero, stretched by clock drift, extended by the
// scheduling-latency fault when it lies in the future, and offset by the
// cost the current job has consumed so far, so an effect of real code cannot
// land in the simulation past (Section 2.2, Figure 1b).
func (r *Runtime) delay(d sim.Time) sim.Time {
	if d < 0 {
		d = 0
	}
	if r.driftRate != 0 {
		d = sim.Time(float64(d) * r.driftFactor())
	}
	if d > 0 && r.schedLat != nil {
		d += r.schedLat(r.latRNG)
	}
	return r.elapsedInJob() + d
}

// StartJob implements runtimeapi.Runtime: fn runs as a real job on the
// node's CPU, delay(d) from the current kernel time. The scheduled thunk is
// pooled, so hot one-shot jobs allocate nothing here (the kernel event is
// pooled too).
func (r *Runtime) StartJob(d sim.Time, fn func()) {
	o := r.freeJob.Get()
	if o == nil {
		o = &oneShot{r: r}
		o.fire = o.run
	}
	o.fn = fn
	r.k.Schedule(r.delay(d), o.fire)
}

// timer is csrt's runtimeapi.Timer: the kernel event of its latest arm and
// the count of arms still pending. Its fire thunk is bound once, so arming,
// firing and stopping it allocate nothing.
type timer struct {
	r       *Runtime
	fn      func()
	fire    func()
	evt     sim.EventID // the latest arm's event; 0 once no arm is pending
	pending int         // arms filed that have neither fired nor been stopped
}

// NewTimer implements runtimeapi.Runtime.
func (r *Runtime) NewTimer(fn func()) runtimeapi.Timer {
	t := &timer{r: r, fn: fn}
	t.fire = t.expire
	return t
}

// Arm implements runtimeapi.Timer: the callback runs as a real job on the
// node's CPU, delay(d) from the current kernel time, like StartJob's.
func (t *timer) Arm(d sim.Time) {
	t.pending++
	t.evt = t.r.k.Schedule(t.r.delay(d), t.fire)
}

// Stop implements runtimeapi.Timer.
func (t *timer) Stop() bool {
	if t.evt == 0 {
		return false
	}
	ok := t.r.k.Cancel(t.evt)
	t.evt = 0
	if ok {
		t.pending--
	}
	return ok
}

// expire is an arm's kernel event: a crashed node runs nothing.
func (t *timer) expire() {
	if t.pending--; t.pending == 0 {
		t.evt = 0
	}
	if t.r.down {
		return
	}
	t.r.cpus.SubmitReal(t.fn, nil)
}

// chargeSend is the guard and the charge Send and Multicast share: a crashed
// node and an oversize datagram are refused, the configured send overhead
// goes to the CPU, and the datagram is injected at now + elapsed job cost.
func (r *Runtime) chargeSend(n int) (sim.Time, error) {
	if r.down {
		return 0, runtimeapi.ErrDown
	}
	if n > r.port.MTU() {
		return 0, runtimeapi.ErrTooBig
	}
	r.extra += r.cost.SendCost(n)
	return r.elapsedInJob(), nil
}

// Send implements runtimeapi.Runtime.
func (r *Runtime) Send(dst runtimeapi.NodeID, data []byte) error {
	delay, err := r.chargeSend(len(data))
	if err != nil {
		return err
	}
	return r.port.Send(dst, data, delay)
}

// Multicast implements runtimeapi.Runtime. A LAN multicast is one wire
// transmission, so the send overhead is charged once.
func (r *Runtime) Multicast(g runtimeapi.Group, data []byte) error {
	delay, err := r.chargeSend(len(data))
	if err != nil {
		return err
	}
	return r.port.Multicast(g, data, delay)
}

// Deliver is called by the network adapter when a datagram arrives for this
// node. Reception is a real job: the CPU is charged the receive overhead and
// then the protocol's receiver upcall runs. data is copied into a pooled
// buffer before Deliver returns, because the job may wait in the CPU queue
// long after the network has reused the packet; the receiver's data is
// valid for its upcall only.
func (r *Runtime) Deliver(src runtimeapi.NodeID, data []byte) {
	if r.down {
		return
	}
	d := r.freeDlv.Get()
	if d == nil {
		d = &delivery{r: r}
		d.fire = d.run
	}
	d.src = src
	d.data = append(d.data, data...)
	r.cpus.SubmitReal(d.fire, nil)
}
