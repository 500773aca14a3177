package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/csrt"
	"repro/internal/db"
	"repro/internal/dbsm"
	"repro/internal/expr"
	"repro/internal/gcs"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/runtimeapi"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tpcc"
)

// The "D" drivers time calls into each package's exported API from outside,
// with inputs shaped like the workload's: transactions from tpcc.Generator at
// the workload's database scale, a 3-host LAN, 1 KB payloads, 10^4 pending
// events. Every driver runs its measured section driverRounds times and
// reports the median, so one scheduler hiccup does not become the number.
const driverRounds = 3

// stopwatch brackets the measured section of a driver round; set-up before
// start and checks after stop are not timed.
type stopwatch struct {
	t0 time.Time
	d  time.Duration
}

func (s *stopwatch) start() { s.t0 = time.Now() }
func (s *stopwatch) stop()  { s.d += time.Since(s.t0) }

// nsPerOp runs body driverRounds times; body returns how many operations its
// timed section performed.
func nsPerOp(body func(sw *stopwatch) (ops int, err error)) (float64, error) {
	var per []float64
	for i := 0; i < driverRounds; i++ {
		var sw stopwatch
		ops, err := body(&sw)
		if err != nil {
			return 0, err
		}
		per = append(per, float64(sw.d.Nanoseconds())/float64(ops))
	}
	return median(per), nil
}

// driver is one D measurement: the metrics it produces, by name.
type driver struct {
	Name string
	Run  func(dc *driverCtx) (map[string]float64, error)
}

// driverCtx carries the workload-shaped inputs the drivers share.
type driverCtx struct {
	w    *workload
	seed int64
	// txns are update transactions drawn from per-site generators at the
	// workload's warehouse count, interleaved across three sites the way
	// the total order interleaves them.
	txns  []*db.Txn
	certs []*dbsm.TxnCert
	// pass is the untraced pass just measured; the check and core drivers
	// work on its own commit logs and Results.
	pass *pass
	// shrink divides every driver's operation count: 1 when measuring, larger
	// in the smoke test, which only needs each driver to run and check itself.
	shrink int
}

// n scales a driver's nominal operation count.
func (dc *driverCtx) n(ops int) int { return max(ops/dc.shrink, 16) }

func newDriverCtx(w *workload, seed int64, p *pass, shrink int) *driverCtx {
	dc := &driverCtx{w: w, seed: seed, pass: p, shrink: shrink}
	driverTxns := dc.n(6000)
	cfg := w.Config()
	wh := tpcc.Warehouses(cfg.Clients)
	rng := sim.NewRNG(seed)
	gens := make([]*tpcc.Generator, 3)
	for i := range gens {
		gens[i] = tpcc.NewGenerator(dbsm.SiteID(i+1), wh, tpcc.DefaultCalibration(), rng.Fork(fmt.Sprintf("gen-%d", i+1)))
	}
	for i := 0; len(dc.txns) < driverTxns; i++ {
		t := gens[i%3].Next(rng.Intn(wh))
		if t.ReadOnly || t.UserAbort {
			continue // never reach certification
		}
		dc.txns = append(dc.txns, t)
		dc.certs = append(dc.certs, t.CertInfo(dbsm.SiteID(i%3+1), 0))
	}
	return dc
}

// lag is how far a transaction's snapshot trails the certifier when it is
// certified: the transactions concurrently in termination on a loaded LAN.
const lag = 30

func snapshotOf(seq uint64) uint64 {
	if seq > lag {
		return seq - lag
	}
	return 0
}

var drivers = []driver{
	{"sim", driveSim},
	{"simnet", driveSimnet},
	{"csrt", driveCSRT},
	{"gcs", driveGCS},
	{"dbsm", driveDBSM},
	{"db", driveDB},
	{"tpcc", driveTPCC},
	{"check", driveCheck},
	{"metrics", driveMetrics},
	{"core", driveCore},
	{"expr", driveExpr},
}

func nop() {}

// driveSim times the kernel with 10^4 events pending, never an empty heap.
func driveSim(dc *driverCtx) (map[string]float64, error) {
	const pending = 10_000
	ops := dc.n(200_000)
	const horizon = 100 * sim.Millisecond
	fill := func() (*sim.Kernel, *sim.RNG) {
		k, rng := sim.NewKernel(), sim.NewRNG(dc.seed)
		for i := 0; i < pending; i++ {
			k.Schedule(rng.UniformDur(0, horizon), nop)
		}
		return k, rng
	}
	step, err := nsPerOp(func(sw *stopwatch) (int, error) {
		k, rng := fill()
		sw.start()
		for i := 0; i < ops; i++ {
			k.Schedule(rng.UniformDur(0, horizon), nop)
			k.Step()
		}
		sw.stop()
		if k.Pending() != pending {
			return 0, fmt.Errorf("sim driver: %d pending, want %d", k.Pending(), pending)
		}
		return ops, nil
	})
	if err != nil {
		return nil, err
	}
	// A timer that is set and cancelled before it fires: most protocol timers.
	// Cancel is lazy, so its cost includes discarding the stale heap node
	// later; the loop reaches a steady state of one live and one stale node
	// in, one of each out, and the live pair's cost is subtracted.
	withCancel, err := nsPerOp(func(sw *stopwatch) (int, error) {
		k, rng := fill()
		sw.start()
		for i := 0; i < ops; i++ {
			k.Schedule(rng.UniformDur(0, horizon), nop)
			k.Cancel(k.Schedule(rng.UniformDur(0, horizon), nop))
			k.Step()
		}
		sw.stop()
		return ops, nil
	})
	if err != nil {
		return nil, err
	}
	// The aggregate tier's per-window draw: a small mean (Knuth), the
	// crossover, and a full site's thinking pool (PTRS).
	means := []float64{2, 30, 280}
	sink := 0
	poisson, err := nsPerOp(func(sw *stopwatch) (int, error) {
		rng := sim.NewRNG(dc.seed)
		sw.start()
		for i := 0; i < ops; i++ {
			sink += rng.Poisson(means[i%len(means)])
		}
		sw.stop()
		return ops, nil
	})
	if sink < 0 {
		return nil, fmt.Errorf("sim driver: negative Poisson sum")
	}
	return map[string]float64{
		"sim.schedule_step_ns": step,
		"sim.cancel_ns":        max(withCancel-step, 0),
		"sim.poisson_ns":       poisson,
	}, err
}

// lan3Net is the micro-benchmark topology: three hosts with runtimes and one
// CPU each on the default Ethernet-100 segment, multicast group 1.
type lan3Net struct {
	k   *sim.Kernel
	net *simnet.Network
	rts []*csrt.Runtime
	hs  []*simnet.Host
}

func newLAN3(seed int64) (*lan3Net, error) {
	k, rng := sim.NewKernel(), sim.NewRNG(seed)
	l := &lan3Net{k: k, net: simnet.NewNetwork(k, rng.Fork("net"))}
	lan := l.net.NewLAN(simnet.DefaultLANConfig("lan0"))
	members := []runtimeapi.NodeID{1, 2, 3}
	l.net.SetGroup(1, members)
	for _, id := range members {
		h, err := l.net.NewHost(id, lan)
		if err != nil {
			return nil, err
		}
		rt := csrt.NewRuntime(k, id, &csrt.ModelProfiler{}, l.net.Port(id, 0), csrt.DefaultCostParams(), rng.Fork(fmt.Sprintf("rt-%d", id)))
		rt.Bind(csrt.NewCPUSet(1, k, nil))
		h.SetDeliver(func(pkt *simnet.Packet) { rt.Deliver(pkt.Src, pkt.Data) })
		l.rts, l.hs = append(l.rts, rt), append(l.hs, h)
	}
	return l, nil
}

// driveSimnet times one 1 KB LAN multicast through to its two deliveries.
func driveSimnet(dc *driverCtx) (map[string]float64, error) {
	casts := dc.n(20_000)
	ns, err := nsPerOp(func(sw *stopwatch) (int, error) {
		l, err := newLAN3(dc.seed)
		if err != nil {
			return 0, err
		}
		got := 0
		for _, h := range l.hs {
			h.SetDeliver(func(*simnet.Packet) { got++ })
		}
		payload := make([]byte, 1024)
		sw.start()
		for i := 0; i < casts; i++ {
			// 200us apart: the wire (about 90us per frame) never queues.
			if err := l.net.Multicast(1, 1, payload, sim.Time(i)*200*sim.Microsecond); err != nil {
				return 0, err
			}
		}
		err = l.k.Run()
		sw.stop()
		if err == nil && got != 2*casts {
			err = fmt.Errorf("simnet driver: %d deliveries, want %d", got, 2*casts)
		}
		return casts, err
	})
	return map[string]float64{"simnet.mcast3_ns": ns}, err
}

// driveCSRT times the CPU model: a simulated job (transaction processing)
// and a real job (protocol code charging model cost) per operation.
func driveCSRT(dc *driverCtx) (map[string]float64, error) {
	jobs := dc.n(50_000)
	ns, err := nsPerOp(func(sw *stopwatch) (int, error) {
		l, err := newLAN3(dc.seed)
		if err != nil {
			return 0, err
		}
		rt := l.rts[0]
		done := 0
		fin := func() { done++ }
		body := func() { rt.Charge(20 * sim.Microsecond) }
		sw.start()
		for i := 0; i < jobs; i++ {
			at := sim.Time(i) * 300 * sim.Microsecond
			l.k.ScheduleAt(at, func() {
				rt.CPUs().SubmitSim(100*sim.Microsecond, fin)
				rt.CPUs().SubmitReal(body, fin)
			})
		}
		err = l.k.Run()
		sw.stop()
		if err == nil && done != 2*jobs {
			err = fmt.Errorf("csrt driver: %d jobs completed, want %d", done, 2*jobs)
		}
		return 2 * jobs, err
	})
	return map[string]float64{"csrt.job_ns": ns}, err
}

// castRound multicasts 1 KB messages from a non-sequencer member of a
// three-stack group and returns, per message, the simulated time from the
// cast to its delivery at the last member, plus the host time of the whole
// round. With tentative set, the measured delivery is the optimistic one.
func castRound(seed int64, casts int, tentative bool) (simUS []float64, host time.Duration, err error) {
	const gap = 2 * sim.Millisecond
	l, err := newLAN3(seed)
	if err != nil {
		return nil, 0, err
	}
	castAt := make([]sim.Time, casts)
	seen := make([]int, casts)
	lastAt := make([]sim.Time, casts)
	note := func(payload []byte) {
		i := int(payload[0]) | int(payload[1])<<8
		if seen[i]++; seen[i] == len(l.rts) {
			lastAt[i] = l.k.Now()
		}
	}
	stacks := make([]*gcs.Stack, len(l.rts))
	for i, rt := range l.rts {
		st, err := gcs.New(rt, gcs.Config{Self: rt.Self(), Members: []gcs.NodeID{1, 2, 3}, Group: 1, UseMulticast: true})
		if err != nil {
			return nil, 0, err
		}
		if tentative {
			st.OnOptimistic(func(d gcs.OptDelivery) { note(d.Payload) })
			st.OnDeliver(func(gcs.Delivery) {})
		} else {
			st.OnDeliver(func(d gcs.Delivery) { note(d.Payload) })
		}
		st.Start()
		stacks[i] = st
	}
	sender, rt := stacks[1], l.rts[1] // member 2: the sequencer is member 1
	for i := 0; i < casts; i++ {
		payload := make([]byte, 1024)
		payload[0], payload[1] = byte(i), byte(i>>8)
		l.k.ScheduleAt(sim.Second+sim.Time(i)*gap, func() {
			castAt[i] = l.k.Now()
			rt.CPUs().SubmitReal(func() { sender.Multicast(payload) }, nil)
		})
	}
	t0 := time.Now()
	err = l.k.RunUntil(sim.Second + sim.Time(casts)*gap + sim.Second)
	host = time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	for i := range seen {
		if seen[i] != len(l.rts) {
			return nil, 0, fmt.Errorf("gcs driver: message %d delivered at %d of %d members", i, seen[i], len(l.rts))
		}
		simUS = append(simUS, float64(lastAt[i]-castAt[i])/float64(sim.Microsecond))
	}
	return simUS, host, nil
}

func driveGCS(dc *driverCtx) (map[string]float64, error) {
	var hostNS []float64
	var finalUS, tentUS float64
	for i := 0; i < driverRounds; i++ {
		us, host, err := castRound(dc.seed, dc.n(2000), false)
		if err != nil {
			return nil, err
		}
		hostNS = append(hostNS, float64(host.Nanoseconds())/float64(len(us)))
		finalUS = median(us) // simulated: identical every round
	}
	us, _, err := castRound(dc.seed, dc.n(2000), true)
	if err != nil {
		return nil, err
	}
	tentUS = median(us)
	return map[string]float64{
		"gcs.abcast_host_ns": median(hostNS),
		"gcs.abcast_sim_us":  finalUS,
		"gcs.optcast_sim_us": tentUS,
	}, nil
}

// driveDBSM times certification and the wire codec on the workload's own
// transaction shapes.
func driveDBSM(dc *driverCtx) (map[string]float64, error) {
	certs := dc.certs
	fresh := func() []*dbsm.TxnCert {
		out := make([]*dbsm.TxnCert, len(certs))
		for i, c := range certs {
			cp := *c
			out[i] = &cp
		}
		return out
	}
	newCert := func() *dbsm.Certifier {
		c := dbsm.NewCertifier()
		c.MaxHistory = 50000 // the replica's default
		return c
	}
	commits := 0
	certify, err := nsPerOp(func(sw *stopwatch) (int, error) {
		c, in := newCert(), fresh()
		sw.start()
		for _, t := range in {
			t.LastCommitted = snapshotOf(c.Seq())
			if c.Certify(t).Commit {
				commits++
			}
		}
		sw.stop()
		return len(in), nil
	})
	if err != nil {
		return nil, err
	}
	if commits == 0 {
		return nil, fmt.Errorf("dbsm driver: nothing committed")
	}
	// Tentative then final delivery in the same order: the optimistic fast path.
	spec, err := nsPerOp(func(sw *stopwatch) (int, error) {
		s, in := dbsm.NewSpecCertifier(newCert()), fresh()
		sw.start()
		for _, t := range in {
			t.LastCommitted = snapshotOf(s.Certifier().Seq())
			s.Tentative(t)
			s.Final(t)
		}
		sw.stop()
		if s.Rollbacks != 0 {
			return 0, fmt.Errorf("dbsm driver: %d rollbacks with agreeing orders", s.Rollbacks)
		}
		return len(in), nil
	})
	if err != nil {
		return nil, err
	}
	// Pairs whose tentative order the final order swaps: every pair unwinds
	// the speculation, certifies the overtaker, and re-speculates the other.
	rollback, err := nsPerOp(func(sw *stopwatch) (int, error) {
		s, in := dbsm.NewSpecCertifier(newCert()), fresh()
		sw.start()
		for i := 0; i+1 < len(in); i += 2 {
			a, b := in[i], in[i+1]
			a.LastCommitted = snapshotOf(s.Certifier().Seq())
			b.LastCommitted = a.LastCommitted
			s.Tentative(a)
			s.Tentative(b)
			_, rolled := s.Final(b)
			for _, t := range rolled {
				s.Tentative(t)
			}
			s.Final(a)
		}
		sw.stop()
		if want := int64(len(in) / 2); s.Rollbacks != want {
			return 0, fmt.Errorf("dbsm driver: %d rollbacks, want %d", s.Rollbacks, want)
		}
		return len(in), nil
	})
	if err != nil {
		return nil, err
	}
	wires := make([][]byte, len(certs))
	wireBytes := 0
	marshal, err := nsPerOp(func(sw *stopwatch) (int, error) {
		var scratch []byte
		sw.start()
		for _, t := range certs {
			scratch = t.MarshalTo(scratch)
		}
		sw.stop()
		return len(certs), nil
	})
	if err != nil {
		return nil, err
	}
	for i, t := range certs {
		wires[i] = t.Marshal()
		wireBytes += len(wires[i])
	}
	unmarshal, err := nsPerOp(func(sw *stopwatch) (int, error) {
		sw.start()
		for _, w := range wires {
			if _, err := dbsm.Unmarshal(w); err != nil {
				return 0, err
			}
		}
		sw.stop()
		return len(wires), nil
	})
	return map[string]float64{
		"dbsm.certify_ns":       certify,
		"dbsm.spec_certify_ns":  spec,
		"dbsm.spec_rollback_ns": rollback,
		"dbsm.marshal_ns":       marshal,
		"dbsm.unmarshal_ns":     unmarshal,
		"dbsm.cert_wire_bytes":  float64(wireBytes) / float64(len(certs)),
	}, err
}

// driveDB times the database engine: the single-node baseline end to end,
// the lock manager's acquire/release cycle, and a refusal at a full server.
func driveDB(dc *driverCtx) (map[string]float64, error) {
	central, err := nsPerOp(func(sw *stopwatch) (int, error) {
		m, err := core.New(core.Config{Sites: 1, CPUsPerSite: 1, Clients: 500, TotalTxns: dc.n(3000), Seed: dc.seed})
		if err != nil {
			return 0, err
		}
		sw.start()
		r, err := m.Run()
		sw.stop()
		if err != nil {
			return 0, err
		}
		if r.Committed == 0 {
			return 0, fmt.Errorf("db driver: centralized run committed nothing")
		}
		return r.Issued, nil
	})
	if err != nil {
		return nil, err
	}
	lock, err := nsPerOp(func(sw *stopwatch) (int, error) {
		lm := db.NewLockManager()
		granted := 0
		grant := func() { granted++ }
		sw.start()
		for _, t := range dc.txns {
			lm.AcquireAll(t, grant)
			lm.ReleaseCommit(t)
		}
		sw.stop()
		if granted != len(dc.txns) {
			return 0, fmt.Errorf("db driver: %d of %d lock sets granted", granted, len(dc.txns))
		}
		return len(dc.txns), nil
	})
	if err != nil {
		return nil, err
	}
	reject, err := nsPerOp(func(sw *stopwatch) (int, error) {
		k := sim.NewKernel()
		rng := sim.NewRNG(dc.seed)
		srv := db.NewServer(k, 1, csrt.NewCPUSet(1, k, nil), db.NewStorage(k, db.StorageConfig{}, rng.Fork("disk")))
		srv.SetBackpressure(true)
		refused := 0
		for _, t := range dc.txns {
			t.ResetForRetry()
			t.Done = func(_ *db.Txn, o db.Outcome) {
				if o == db.Rejected {
					refused++
				}
			}
		}
		sw.start()
		for _, t := range dc.txns {
			srv.Submit(t)
		}
		sw.stop()
		if refused != len(dc.txns) {
			return 0, fmt.Errorf("db driver: %d of %d submissions refused", refused, len(dc.txns))
		}
		return len(dc.txns), nil
	})
	return map[string]float64{
		"db.central_txn_ns": central,
		"db.lock_cycle_ns":  lock,
		"db.reject_ns":      reject,
	}, err
}

// driveTPCC times transaction generation and the aggregate tier's arrival
// path: a population of 10^6 submitting into a server that refuses
// everything, so nothing but the arrival process and the refusal runs.
func driveTPCC(dc *driverCtx) (map[string]float64, error) {
	wh := tpcc.Warehouses(dc.w.Config().Clients)
	cal := tpcc.DefaultCalibration()
	next, err := nsPerOp(func(sw *stopwatch) (int, error) {
		n := dc.n(50_000)
		rng := sim.NewRNG(dc.seed)
		g := tpcc.NewGenerator(1, wh, cal, rng.Fork("gen"))
		sw.start()
		for i := 0; i < n; i++ {
			g.Next(i % wh)
		}
		sw.stop()
		return n, nil
	})
	if err != nil {
		return nil, err
	}
	arrival, err := nsPerOp(func(sw *stopwatch) (int, error) {
		const pop = 1_000_000
		n := dc.n(50_000)
		k, rng := sim.NewKernel(), sim.NewRNG(dc.seed)
		srv := db.NewServer(k, 1, csrt.NewCPUSet(1, k, nil), db.NewStorage(k, db.StorageConfig{}, rng.Fork("disk")))
		srv.SetBackpressure(true)
		budget := n
		a := &tpcc.Aggregate{
			Server:     srv,
			Gen:        tpcc.NewGenerator(1, pop/tpcc.ClientsPerWarehouse, cal, rng.Fork("gen")),
			Proc:       cal.ArrivalProcess(),
			Population: pop,
			HomeWH:     func(i int) int { return i / tpcc.ClientsPerWarehouse },
			Stop:       func() bool { budget--; return budget < 0 },
		}
		a.Start(k, rng.Fork("agg"))
		sw.start()
		err := k.Run()
		sw.stop()
		if err == nil && a.Issued() != int64(n) {
			err = fmt.Errorf("tpcc driver: %d arrivals, want %d", a.Issued(), n)
		}
		return n, err
	})
	return map[string]float64{
		"tpcc.next_txn_ns":    next,
		"tpcc.agg_arrival_ns": arrival,
	}, err
}

// driveCheck times the off-line safety checker on the commit logs of the
// pass's last replication: the end-of-run cost every model run pays.
func driveCheck(dc *driverCtx) (map[string]float64, error) {
	// One log set per replication group: each group runs its own order.
	groups := map[int][]check.SiteLog{}
	entries := 0
	for i, s := range dc.pass.last.Sites() {
		if s.Replica == nil {
			continue
		}
		e := s.Replica.CommitLog().Entries()
		entries += len(e)
		g := dc.pass.lastRes.Sites[i].Group
		groups[g] = append(groups[g], check.SiteLog{
			Site:        s.ID,
			Operational: s.Life.State() == recovery.StateUp && !s.Stack.Stopped(),
			Recovered:   s.Life.Recoveries() > 0,
			Entries:     e,
		})
	}
	if entries == 0 {
		return nil, fmt.Errorf("check driver: the run left no commit log entries")
	}
	ns, err := nsPerOp(func(sw *stopwatch) (int, error) {
		rounds := dc.n(20)
		sw.start()
		for i := 0; i < rounds; i++ {
			for _, logs := range groups {
				if v := check.Logs(logs); v != nil {
					return 0, fmt.Errorf("check driver: %w", v)
				}
			}
		}
		sw.stop()
		return rounds * entries, nil
	})
	return map[string]float64{"check.logs_ns_per_entry": ns}, err
}

// driveMetrics times the O(transactions) sample container on 10^5
// latency-shaped values: one Add each, then the first quantile (the sort).
func driveMetrics(dc *driverCtx) (map[string]float64, error) {
	n := dc.n(100_000)
	rng := sim.NewRNG(dc.seed)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.LogNormal(3.4, 0.8)
	}
	var s *metrics.Sample
	add, err := nsPerOp(func(sw *stopwatch) (int, error) {
		s = &metrics.Sample{}
		sw.start()
		for _, v := range vals {
			s.Add(v)
		}
		sw.stop()
		return n, nil
	})
	if err != nil {
		return nil, err
	}
	q, err := nsPerOp(func(sw *stopwatch) (int, error) {
		fresh := &metrics.Sample{}
		for _, v := range vals {
			fresh.Add(v)
		}
		sw.start()
		p99 := fresh.Quantile(0.99)
		sw.stop()
		if p99 <= 0 {
			return 0, fmt.Errorf("metrics driver: p99 = %v", p99)
		}
		return 1, nil
	})
	return map[string]float64{
		"metrics.add_ns":      add,
		"metrics.quantile_ms": q / 1e6,
	}, err
}

// driveCore times core.AggregateRuns over the pass's own Results.
func driveCore(dc *driverCtx) (map[string]float64, error) {
	runs := dc.pass.kept
	if len(runs) == 0 {
		return nil, fmt.Errorf("core driver: no Results kept")
	}
	ns, err := nsPerOp(func(sw *stopwatch) (int, error) {
		sw.start()
		a := core.AggregateRuns(runs)
		sw.stop()
		if a.Reps != len(runs) {
			return 0, fmt.Errorf("core driver: aggregated %d of %d runs", a.Reps, len(runs))
		}
		return len(runs), nil
	})
	return map[string]float64{"core.aggregate_us_per_run": ns / 1e3}, err
}

// driveExpr measures what the experiment pool gains from the box's cores:
// eight 2 000-transaction lan3_cons tasks on nproc workers against one. It
// is the only part of the benchmark that uses more than one goroutine of
// load, and never more than nproc.
func driveExpr(dc *driverCtx) (map[string]float64, error) {
	tasks := make([]expr.Task, 8)
	for i := range tasks {
		cfg := lan3(core.ProtocolConservative)
		cfg.TotalTxns = dc.n(2000)
		cfg.Seed = expr.DeriveSeed(dc.seed, 100+i)
		tasks[i] = expr.Task{Label: fmt.Sprintf("t%d", i), Config: cfg, Reps: 1}
	}
	wall := func(workers int) (float64, error) {
		t0 := time.Now()
		_, err := (&expr.Runner{Workers: workers}).Run(tasks)
		return time.Since(t0).Seconds(), err
	}
	one, err := wall(1)
	if err != nil {
		return nil, err
	}
	all, err := wall(runtime.NumCPU())
	return map[string]float64{"expr.speedup_nproc": ratio(one, all)}, err
}
