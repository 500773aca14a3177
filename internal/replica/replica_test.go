package replica

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/check"
	"repro/internal/csrt"
	"repro/internal/db"
	"repro/internal/dbsm"
	"repro/internal/gcs"
	"repro/internal/mutants"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// testSite bundles one replica's components.
type testSite struct {
	rt     *csrt.Runtime
	server *db.Server
	stack  *gcs.Stack
	rep    *Replica
}

func buildCluster(t *testing.T, n int) (*sim.Kernel, []*testSite) {
	t.Helper()
	return buildClusterOpts(t, n, Options{})
}

func buildClusterOpts(t *testing.T, n int, opts Options) (*sim.Kernel, []*testSite) {
	t.Helper()
	return buildClusterWith(t, n, func(int) Options { return opts })
}

// buildClusterWith is the general form: optsFor picks the replica options of
// the i-th site (0-based).
func buildClusterWith(t *testing.T, n int, optsFor func(i int) Options) (*sim.Kernel, []*testSite) {
	t.Helper()
	k := sim.NewKernel()
	rng := sim.NewRNG(5)
	net := simnet.NewNetwork(k, rng.Fork("net"))
	lan := net.NewLAN(simnet.DefaultLANConfig("lan"))
	members := make([]gcs.NodeID, n)
	for i := range members {
		members[i] = gcs.NodeID(i + 1)
	}
	net.SetGroup(1, members)
	sites := make([]*testSite, 0, n)
	for _, id := range members {
		host, err := net.NewHost(id, lan)
		if err != nil {
			t.Fatal(err)
		}
		rt := csrt.NewRuntime(k, id, &csrt.ModelProfiler{}, net.Port(id, 1400),
			csrt.DefaultCostParams(), rng.Fork(fmt.Sprintf("rt-%d", id)))
		rt.Bind(csrt.NewCPUSet(1, k, nil))
		host.DeliverTo(rt.Deliver)
		storage := db.NewStorage(k, db.StorageConfig{}, rng.Fork(fmt.Sprintf("disk-%d", id)))
		server := db.NewServer(k, dbsm.SiteID(id), rt.CPUs(), storage)
		stack, err := gcs.New(rt, gcs.Config{Self: id, Members: members, Group: 1, UseMulticast: true})
		if err != nil {
			t.Fatal(err)
		}
		rep := New(rt, stack, server, optsFor(len(sites)))
		stack.Start()
		sites = append(sites, &testSite{rt: rt, server: server, stack: stack, rep: rep})
	}
	return k, sites
}

func txnFor(tid uint64, item dbsm.TupleID) *db.Txn {
	ws := dbsm.NewItemSet(item)
	return &db.Txn{
		TID:       tid,
		Class:     "w",
		CPU:       2 * sim.Millisecond,
		ReadSet:   ws.Clone(),
		WriteSet:  ws,
		CommitCPU: sim.Millisecond,
	}
}

func TestLocalCommitPropagatesToAllReplicas(t *testing.T) {
	k, sites := buildCluster(t, 3)
	var outcome db.Outcome
	txn := txnFor(dbsm.MakeTID(1, 1), dbsm.MakeTupleID(1, 5))
	txn.Done = func(_ *db.Txn, o db.Outcome) { outcome = o }
	txn.WriteBytes = 500
	sites[0].server.Submit(txn)
	if err := k.RunUntil(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if outcome != db.Committed {
		t.Fatalf("outcome = %v", outcome)
	}
	for i, s := range sites {
		if s.rep.Stats().Delivered != 1 {
			t.Fatalf("site %d delivered %d", i+1, s.rep.Stats().Delivered)
		}
		if s.rep.CommitLog().Len() != 1 {
			t.Fatalf("site %d commit log %d", i+1, s.rep.CommitLog().Len())
		}
	}
	// Remote replicas applied the write-set to their disks.
	for _, s := range sites[1:] {
		if s.server.RemoteApplied() != 1 {
			t.Fatal("remote apply missing")
		}
		if s.server.Storage().Sectors() == 0 {
			t.Fatal("remote apply wrote nothing")
		}
	}
}

func TestConcurrentConflictResolvedIdentically(t *testing.T) {
	k, sites := buildCluster(t, 3)
	hot := dbsm.MakeTupleID(1, 9)
	outcomes := make([]db.Outcome, 2)
	t1 := txnFor(dbsm.MakeTID(1, 1), hot)
	t1.Done = func(_ *db.Txn, o db.Outcome) { outcomes[0] = o }
	t2 := txnFor(dbsm.MakeTID(2, 1), hot)
	t2.Done = func(_ *db.Txn, o db.Outcome) { outcomes[1] = o }
	sites[0].server.Submit(t1)
	sites[1].server.Submit(t2)
	if err := k.RunUntil(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	committed := 0
	for _, o := range outcomes {
		if o == db.Committed {
			committed++
		}
	}
	if committed != 1 {
		t.Fatalf("exactly one of two conflicting txns must commit; outcomes=%v", outcomes)
	}
	// All replicas agree on the single committed sequence.
	logs := map[dbsm.SiteID]*trace.CommitLog{}
	op := map[dbsm.SiteID]bool{}
	for i, s := range sites {
		logs[dbsm.SiteID(i+1)] = s.rep.CommitLog()
		op[dbsm.SiteID(i+1)] = true
	}
	if v := check.Logs(check.FromCommitLogs(logs, op)); v != nil {
		t.Fatalf("logs diverged: %v", v)
	}
}

func TestNonConflictingTxnsAllCommit(t *testing.T) {
	k, sites := buildCluster(t, 3)
	done := 0
	for i := 0; i < 9; i++ {
		txn := txnFor(dbsm.MakeTID(dbsm.SiteID(i%3+1), uint32(i)), dbsm.MakeTupleID(1, uint64(100+i)))
		txn.Done = func(_ *db.Txn, o db.Outcome) {
			if o == db.Committed {
				done++
			}
		}
		sites[i%3].server.Submit(txn)
	}
	if err := k.RunUntil(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if done != 9 {
		t.Fatalf("committed %d of 9 disjoint txns", done)
	}
}

func TestReplicaStopsOnCrash(t *testing.T) {
	k, sites := buildCluster(t, 3)
	sites[2].rep.Stop()
	txn := txnFor(dbsm.MakeTID(1, 1), dbsm.MakeTupleID(1, 5))
	var outcome db.Outcome
	txn.Done = func(_ *db.Txn, o db.Outcome) { outcome = o }
	sites[0].server.Submit(txn)
	if err := k.RunUntil(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if outcome != db.Committed {
		t.Fatalf("outcome = %v (stopped replica must not block others)", outcome)
	}
	if sites[2].rep.CommitLog().Len() != 0 {
		t.Fatal("stopped replica still logging")
	}
}

// A corrupted certification payload must be counted at every replica, not
// silently discarded — the drop counter is the only trace a marshaling or
// wire-format bug leaves — and counted once, whichever optimistic stage meets
// it first. Everywhere the tentative job runs first here. The final-first
// cases need a non-uniform sequencer, which the non-uniform-sequencer mutant
// makes: the final order is assigned in the very job that receives the data,
// so final delivery beats the scheduled tentative job there.
func TestCorruptPayloadCountedNotSilent(t *testing.T) {
	for _, tc := range corruptPayloads(t) {
		t.Run(tc.name+"/conservative", func(t *testing.T) { checkCorruptPayloadCounted(t, tc.payload, false, false) })
		t.Run(tc.name+"/optimistic", func(t *testing.T) { checkCorruptPayloadCounted(t, tc.payload, true, false) })
		t.Run(tc.name+"/optimistic/final-first", func(t *testing.T) {
			if mutants.Require(t, "non-uniform-sequencer") {
				checkCorruptPayloadCounted(t, tc.payload, true, true)
			}
		})
	}
}

// corruptPayloads are the two ways a certification payload fails to decode.
func corruptPayloads(t *testing.T) []struct {
	name    string
	payload []byte
} {
	t.Helper()
	// Too short for the TxnCert header: PeekTID and Unmarshal both reject it.
	truncated := []byte{0xde, 0xad, 0xbe, 0xef}
	// A whole header whose set lengths overrun the bytes present: PeekTID
	// reads a TID, Unmarshal rejects the body.
	ws := dbsm.NewItemSet(dbsm.MakeTupleID(1, 1), dbsm.MakeTupleID(1, 2))
	overrun := (&dbsm.TxnCert{TID: dbsm.MakeTID(1, 77), Site: 1, ReadSet: ws.Clone(), WriteSet: ws}).MarshalTo(nil)
	overrun = overrun[:len(overrun)-8]
	if _, err := dbsm.PeekTID(overrun); err != nil {
		t.Fatal("overrun payload must keep a readable header")
	}
	if _, err := dbsm.Unmarshal(overrun); err == nil {
		t.Fatal("overrun payload must fail to decode")
	}
	return []struct {
		name    string
		payload []byte
	}{{"truncated", truncated}, {"overrun", overrun}}
}

// checkCorruptPayloadCounted multicasts payload from site 1, the sequencer,
// then a valid transaction, and requires every site to count the payload
// once and commit the transaction. finalFirst says which optimistic stage
// meets the valid transaction first at the sequencer.
func checkCorruptPayloadCounted(t *testing.T, payload []byte, optimistic, finalFirst bool) {
	k, sites := buildClusterWith(t, 3, func(int) Options { return Options{Optimistic: optimistic} })
	k.ScheduleAt(10*sim.Millisecond, func() {
		sites[0].rt.CPUs().SubmitReal(func() { sites[0].stack.Multicast(payload) }, nil)
	})
	// A valid transaction afterwards still goes through. It spans three
	// chunks, so a tentative job that lost the race would be reading a
	// buffer the stack already has back.
	var outcome db.Outcome
	txn := txnFor(dbsm.MakeTID(1, 1), dbsm.MakeTupleID(1, 5))
	txn.WriteBytes = 3000
	txn.Done = func(_ *db.Txn, o db.Outcome) { outcome = o }
	k.ScheduleAt(20*sim.Millisecond, func() { sites[0].server.Submit(txn) })
	if err := k.RunUntil(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if outcome != db.Committed {
		t.Fatalf("valid txn after garbage: %v", outcome)
	}
	for i, s := range sites {
		st := s.rep.Stats()
		if st.CertDrops != 1 {
			t.Fatalf("site %d counted the corrupt payload %d times, want once", i+1, st.CertDrops)
		}
		if st.Delivered != 1 {
			t.Fatalf("site %d delivered %d", i+1, st.Delivered)
		}
		if len(s.rep.done) != 0 || len(s.rep.tent) != 0 {
			t.Fatalf("site %d keeps optimistic residue: done=%d tent=%d", i+1, len(s.rep.done), len(s.rep.tent))
		}
		if !optimistic || i != 0 {
			continue
		}
		// At the sequencer the valid transaction shows which stage came
		// first: a tentative job that lost the race is skipped.
		wantTent := int64(1)
		if finalFirst {
			wantTent = 0
		}
		if st.Tentative != wantTent {
			t.Fatalf("site 1 ran %d tentative certifications, want %d", st.Tentative, wantTent)
		}
	}
}

// A delivery held back during a recovery transfer is the replica's own copy:
// the stack reuses the payload's buffer for the next fragmented message, a
// hundred times over here, before the snapshot installs and the held
// deliveries are certified.
func TestRecoveryHoldBackSurvivesBufferReuse(t *testing.T) {
	for _, optimistic := range []bool{false, true} {
		k, sites := buildClusterWith(t, 3, func(i int) Options {
			return Options{Optimistic: optimistic, Recovering: i == 2}
		})
		snap := sites[0].rep.ExportSnapshot(0) // before anything was delivered
		const txns = 101
		committed := 0
		for i := 0; i < txns; i++ {
			txn := txnFor(dbsm.MakeTID(dbsm.SiteID(i%2+1), uint32(i)), dbsm.MakeTupleID(1, uint64(100+i)))
			txn.WriteBytes = 3000 // three chunks: reassembled in a recycled buffer
			txn.Done = func(_ *db.Txn, o db.Outcome) {
				if o == db.Committed {
					committed++
				}
			}
			site := sites[i%2]
			k.ScheduleAt(sim.Time(i+1)*20*sim.Millisecond, func() { site.server.Submit(txn) })
		}
		installed := false
		k.ScheduleAt(4*sim.Second, func() {
			if n := len(sites[2].rep.recoverBuf); n != txns {
				t.Fatalf("optimistic=%v: %d deliveries held back, want %d", optimistic, n, txns)
			}
			sites[2].rep.InstallSnapshot(snap, func() { installed = true })
		})
		if err := k.RunUntil(10 * sim.Second); err != nil {
			t.Fatal(err)
		}
		if committed != txns || !installed {
			t.Fatalf("optimistic=%v: committed %d of %d, installed=%v", optimistic, committed, txns, installed)
		}
		st := sites[2].rep.Stats()
		if st.CertDrops != 0 || st.DeltaApplied != txns {
			t.Fatalf("optimistic=%v: joiner drops=%d delta=%d, want 0 and %d", optimistic, st.CertDrops, st.DeltaApplied, txns)
		}
		logs := map[dbsm.SiteID]*trace.CommitLog{}
		op := map[dbsm.SiteID]bool{}
		for i, s := range sites {
			if s.rep.CommitLog().Len() != txns {
				t.Fatalf("optimistic=%v: site %d committed %d of %d", optimistic, i+1, s.rep.CommitLog().Len(), txns)
			}
			logs[dbsm.SiteID(i+1)] = s.rep.CommitLog()
			op[dbsm.SiteID(i+1)] = true
		}
		if v := check.Logs(check.FromCommitLogs(logs, op)); v != nil {
			t.Fatalf("optimistic=%v: logs diverged: %v", optimistic, v)
		}
	}
}

// The optimistic pipeline must behave exactly like the conservative one on a
// fault-free cluster: every delivery was tentatively certified first, no
// rollbacks occur, no payloads drop, and all sites commit the same sequence.
func TestOptimisticPipelineFaultFree(t *testing.T) {
	k, sites := buildClusterOpts(t, 3, Options{Optimistic: true})
	hot := dbsm.MakeTupleID(1, 9)
	committed := 0
	for i := 0; i < 12; i++ {
		item := dbsm.MakeTupleID(1, uint64(100+i))
		if i%4 == 0 {
			item = hot // sprinkle real conflicts in
		}
		txn := txnFor(dbsm.MakeTID(dbsm.SiteID(i%3+1), uint32(i)), item)
		txn.Done = func(_ *db.Txn, o db.Outcome) {
			if o == db.Committed {
				committed++
			}
		}
		at := sim.Time(i+1) * 20 * sim.Millisecond
		site := sites[i%3]
		k.ScheduleAt(at, func() { site.server.Submit(txn) })
	}
	if err := k.RunUntil(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if committed == 0 {
		t.Fatal("nothing committed")
	}
	logs := map[dbsm.SiteID]*trace.CommitLog{}
	op := map[dbsm.SiteID]bool{}
	for i, s := range sites {
		st := s.rep.Stats()
		if st.CertDrops != 0 {
			t.Fatalf("site %d drops = %d", i+1, st.CertDrops)
		}
		if st.Rollbacks != 0 {
			t.Fatalf("site %d rollbacks = %d on a fault-free LAN", i+1, st.Rollbacks)
		}
		// Every site — the sequencer included — tentatively certifies
		// every delivery and pre-applies remote commits. The sequencer
		// used to finalize in the very job that received the data, but
		// uniform delivery holds its final stage until a majority acks
		// the ordering announcement, so its tentative stage now wins
		// the race like everyone else's.
		if st.Tentative != st.Delivered {
			t.Fatalf("site %d: %d tentative certifications for %d deliveries",
				i+1, st.Tentative, st.Delivered)
		}
		if st.PreApplied == 0 {
			t.Fatalf("site %d never pre-applied a remote write-set", i+1)
		}
		// Every tentative state came back when its message settled, and the
		// twelve deliveries, 20 ms apart, shared a few records between them.
		if n := s.rep.freeTent.Len(); len(s.rep.tent) != 0 || n == 0 || n >= 12 {
			t.Fatalf("site %d: %d tentative states outstanding, %d on the free list", i+1, len(s.rep.tent), n)
		}
		if ts, th := s.rep.freeTent.Out(), s.rep.freeThunks.Out(); ts != 0 || th != 0 {
			t.Fatalf("site %d: %d tentative states and %d stage thunks lent after the run drained", i+1, ts, th)
		}
		logs[dbsm.SiteID(i+1)] = s.rep.CommitLog()
		op[dbsm.SiteID(i+1)] = true
	}
	if v := check.Logs(check.FromCommitLogs(logs, op)); v != nil {
		t.Fatalf("logs diverged: %v", v)
	}
}

// TestScheduleAllocFree pins the pipeline's job hand-off: once the thunk,
// job and kernel-event pools are warm, Replica.schedule through
// replicaThunk.run allocates nothing, and the drained kernel leaves no thunk
// lent. The lone replica's stack is never started, so no gcs timer runs.
func TestScheduleAllocFree(t *testing.T) {
	k, r := loneReplica(t, Options{})
	ran := 0
	stage := func(*Replica, *db.Txn, []byte, uint64) { ran++ }
	step := func() {
		r.schedule(stage, nil, nil, 0)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for range 16 {
		step()
	}
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("warm schedule→run: %v allocs/op, want 0", n)
	}
	if ran != 16+101 {
		t.Fatalf("%d stages ran, want %d", ran, 16+101)
	}
	if n := r.freeThunks.Out(); n != 0 {
		t.Fatalf("%d stage thunks lent after the kernel drained", n)
	}
}

// loneReplica builds site 1 of a one-member group whose stack is never
// started, so no gcs timer runs and a test drives the replica's upcalls and
// stages itself.
func loneReplica(t *testing.T, opts Options) (*sim.Kernel, *Replica) {
	t.Helper()
	k := sim.NewKernel()
	rng := sim.NewRNG(5)
	net := simnet.NewNetwork(k, rng.Fork("net"))
	net.SetGroup(1, []gcs.NodeID{1})
	if _, err := net.NewHost(1, net.NewLAN(simnet.DefaultLANConfig("lan"))); err != nil {
		t.Fatal(err)
	}
	rt := csrt.NewRuntime(k, 1, &csrt.ModelProfiler{}, net.Port(1, 1400), csrt.DefaultCostParams(), rng.Fork("rt"))
	rt.Bind(csrt.NewCPUSet(1, k, nil))
	stack, err := gcs.New(rt, gcs.Config{Self: 1, Members: []gcs.NodeID{1}, Group: 1, UseMulticast: true})
	if err != nil {
		t.Fatal(err)
	}
	return k, New(rt, stack, db.NewServer(k, 1, rt.CPUs(), db.NewStorage(k, db.StorageConfig{}, rng.Fork("disk"))), opts)
}

// TestOptimisticDiscardCancelsSpeculation drives the view-change discard
// path (onOptDiscard, stageDiscard, SpecCertifier.Invalidate): two remote
// transactions from site 2 are tentatively certified and pre-applied, the
// group discards the first, and the second's final delivery then matches the
// head of the tentative queue. The discard unwinds the queue once and
// re-speculates the survivor; the final delivery rolls nothing back.
func TestOptimisticDiscardCancelsSpeculation(t *testing.T) {
	k, r := loneReplica(t, Options{Optimistic: true})
	wire := func(seq uint32, row uint64) []byte {
		ws := dbsm.NewItemSet(dbsm.MakeTupleID(1, row))
		return (&dbsm.TxnCert{TID: dbsm.MakeTID(2, seq), Site: 2, ReadSet: ws.Clone(), WriteSet: ws}).MarshalTo(nil)
	}
	discarded, kept := wire(1, 5), wire(2, 6)
	drain := func() {
		t.Helper()
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}

	r.onOptimistic(gcs.OptDelivery{Sender: 2, MsgID: 1, Payload: discarded})
	r.onOptimistic(gcs.OptDelivery{Sender: 2, MsgID: 2, Payload: kept})
	drain()
	if st := r.Stats(); len(r.tent) != 2 || r.spec.Pending() != 2 || st.PreApplied != 2 {
		t.Fatalf("after two tentative deliveries: tent=%d pending=%d preapplied=%d, want 2, 2, 2",
			len(r.tent), r.spec.Pending(), st.PreApplied)
	}

	r.onOptDiscard(gcs.OptDelivery{Sender: 2, MsgID: 1, Payload: discarded})
	drain()
	if st := r.Stats(); len(r.tent) != 1 || r.tent[dbsm.MakeTID(2, 2)] == nil || r.spec.Pending() != 1 ||
		st.Rollbacks != 1 || st.Recertified != 1 {
		t.Fatalf("after the discard: tent=%d pending=%d rollbacks=%d recertified=%d, want the survivor alone, 1 rollback, 1 re-certification",
			len(r.tent), r.spec.Pending(), st.Rollbacks, st.Recertified)
	}

	r.onDeliver(gcs.Delivery{Global: 1, Sender: 2, Payload: kept})
	drain()
	st := r.Stats()
	if st.Rollbacks != 1 || r.spec.Matches != 1 || st.Delivered != 1 || r.spec.Pending() != 0 {
		t.Fatalf("final delivery: rollbacks=%d matches=%d delivered=%d pending=%d, want 1, 1, 1, 0",
			st.Rollbacks, r.spec.Matches, st.Delivered, r.spec.Pending())
	}
	if got := r.CommitLog().Entries(); len(got) != 1 || got[0].TID != dbsm.MakeTID(2, 2) {
		t.Fatalf("commit log %v, want the kept transaction alone", got)
	}
	if len(r.tent) != 0 || len(r.done) != 0 || r.freeTent.Out() != 0 || st.CertDrops != 0 {
		t.Fatalf("residue: tent=%d done=%d tentative states lent=%d drops=%d", len(r.tent), len(r.done), r.freeTent.Out(), st.CertDrops)
	}
}

// Conservative and optimistic runs of the same workload must commit the
// identical sequence: the protocol variant changes when certification work
// happens, never what it decides.
func TestProtocolsDecideIdentically(t *testing.T) {
	run := func(optimistic bool) []trace.CommitEntry {
		k, sites := buildClusterOpts(t, 3, Options{Optimistic: optimistic})
		hot := dbsm.MakeTupleID(2, 7)
		for i := 0; i < 9; i++ {
			item := dbsm.MakeTupleID(1, uint64(200+i))
			if i%3 == 1 {
				item = hot
			}
			txn := txnFor(dbsm.MakeTID(dbsm.SiteID(i%3+1), uint32(i)), item)
			at := sim.Time(i+1) * 15 * sim.Millisecond
			site := sites[i%3]
			k.ScheduleAt(at, func() { site.server.Submit(txn) })
		}
		if err := k.RunUntil(10 * sim.Second); err != nil {
			t.Fatal(err)
		}
		return sites[0].rep.CommitLog().Entries()
	}
	cons := run(false)
	opt := run(true)
	if len(cons) == 0 {
		t.Fatal("conservative run committed nothing")
	}
	if len(cons) != len(opt) {
		t.Fatalf("conservative committed %d, optimistic %d", len(cons), len(opt))
	}
	for i := range cons {
		if cons[i] != opt[i] {
			t.Fatalf("position %d: conservative %+v, optimistic %+v", i, cons[i], opt[i])
		}
	}
}

func TestCertifierHistoryBounded(t *testing.T) {
	_, sites := buildCluster(t, 3)
	// The replica wires its history bound into the certifier it builds.
	if got := sites[0].rep.Certifier().MaxHistory; got != 50000 {
		t.Fatalf("certifier MaxHistory = %d, want 50000", got)
	}
}

// TestPartialReplicationNarrowsIntoScratch runs a degree-2 placement over
// three sites — row r is stored everywhere but at the site with index r%3 —
// where every write-set is partly stored at every site, under both protocol
// variants: all sites commit the same sequence, every remote install leaves
// no lock behind, and a conservative site writes back exactly the rows it
// stores. Then the pin: Replica.localWrites narrows a partly stored set into
// the replica's own record without allocating once warm, and returns the
// message itself when every row is stored here and nil when none is.
func TestPartialReplicationNarrowsIntoScratch(t *testing.T) {
	storedAt := func(i int) func(dbsm.TupleID) bool {
		return func(id dbsm.TupleID) bool { return int(id.Row()%3) != i }
	}
	rows := func(from, n uint64) []dbsm.TupleID {
		ids := make([]dbsm.TupleID, n)
		for j := range ids {
			ids[j] = dbsm.MakeTupleID(1, from+uint64(j))
		}
		return ids
	}
	for _, optimistic := range []bool{false, true} {
		k, sites := buildClusterWith(t, 3, func(i int) Options {
			return Options{Optimistic: optimistic, Replicates: storedAt(i)}
		})
		const txns = 12
		wantSectors := make([]int64, len(sites))
		for i := range txns {
			ws := dbsm.NewItemSet(rows(uint64(10*i), 4)...)
			for j := range sites {
				for _, id := range ws {
					if storedAt(j)(id) {
						wantSectors[j]++
					}
				}
			}
			txn := &db.Txn{
				TID: dbsm.MakeTID(dbsm.SiteID(i%3+1), uint32(i)), Class: "w",
				CPU: 2 * sim.Millisecond, ReadSet: ws.Clone(), WriteSet: ws, CommitCPU: sim.Millisecond,
			}
			site := sites[i%3]
			k.ScheduleAt(sim.Time(i+1)*20*sim.Millisecond, func() { site.server.Submit(txn) })
		}
		if err := k.RunUntil(10 * sim.Second); err != nil {
			t.Fatal(err)
		}
		logs := map[dbsm.SiteID]*trace.CommitLog{}
		op := map[dbsm.SiteID]bool{}
		for i, s := range sites {
			if n := s.rep.CommitLog().Len(); n != txns {
				t.Fatalf("optimistic=%v: site %d committed %d of %d", optimistic, i+1, n, txns)
			}
			if s.server.RemoteApplied() != 2*txns/3 || s.server.Locks().HeldLocks() != 0 {
				t.Fatalf("optimistic=%v: site %d installed %d remote write-sets and holds %d locks; want %d and 0",
					optimistic, i+1, s.server.RemoteApplied(), s.server.Locks().HeldLocks(), 2*txns/3)
			}
			if got := s.server.Storage().Sectors(); !optimistic && got != wantSectors[i] {
				t.Fatalf("site %d wrote %d sectors, stores %d of the rows written", i+1, got, wantSectors[i])
			}
			logs[dbsm.SiteID(i+1)] = s.rep.CommitLog()
			op[dbsm.SiteID(i+1)] = true
		}
		if v := check.Logs(check.FromCommitLogs(logs, op)); v != nil {
			t.Fatalf("optimistic=%v: logs diverged: %v", optimistic, v)
		}
	}

	_, sites := buildClusterWith(t, 3, func(i int) Options { return Options{Replicates: storedAt(i)} })
	r := sites[0].rep // stores every row but those with r%3 == 0
	decode := func(ids ...dbsm.TupleID) *dbsm.TxnCert {
		var rec dbsm.TxnCert
		wire := (&dbsm.TxnCert{TID: 7, Site: 2, WriteSet: dbsm.NewItemSet(ids...)}).Marshal()
		if err := rec.UnmarshalFrom(wire); err != nil {
			t.Fatal(err)
		}
		return &rec
	}
	all, none := decode(rows(1, 2)...), decode(dbsm.MakeTupleID(1, 0), dbsm.MakeTupleID(1, 3))
	if r.localWrites(all) != all || r.localWrites(none) != nil {
		t.Fatal("a set stored whole is not passed through, or one stored nowhere is not dropped")
	}
	part := decode(rows(0, 6)...)
	var got *dbsm.TxnCert
	if n := testing.AllocsPerRun(100, func() { got = r.localWrites(part) }); n != 0 {
		t.Fatalf("narrowing a partly stored write-set: %v allocs/op, want 0", n)
	}
	want := dbsm.NewItemSet(dbsm.MakeTupleID(1, 1), dbsm.MakeTupleID(1, 2), dbsm.MakeTupleID(1, 4), dbsm.MakeTupleID(1, 5))
	if got != &r.narrow || got.TID != part.TID || !slices.Equal(got.WriteSet, want) || len(part.WriteSet) != 6 {
		t.Fatalf("narrowed %+v from %v, want %v in the replica's own record", got, part.WriteSet, want)
	}
}
