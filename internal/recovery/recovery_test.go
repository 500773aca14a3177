package recovery

import (
	"testing"

	"repro/internal/check"
	"repro/internal/dbsm"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestLifecycleStateMachine pins the transition rules.
func TestLifecycleStateMachine(t *testing.T) {
	l := NewLifecycle(1)
	if l.State() != StateUp {
		t.Fatal("new lifecycle not Up")
	}
	if err := l.BeginRecovery(0); err == nil {
		t.Fatal("recovery from Up accepted")
	}
	if err := l.Crash(10, 5, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Crash(11, 5, nil); err == nil {
		t.Fatal("double crash accepted")
	}
	if err := l.Complete(12, 0, 0); err == nil {
		t.Fatal("complete from Crashed accepted")
	}
	if err := l.BeginRecovery(20); err != nil {
		t.Fatal(err)
	}
	if err := l.Complete(30, 1024, 2); err != nil {
		t.Fatal(err)
	}
	if l.State() != StateUp || l.Recoveries() != 1 {
		t.Fatalf("state=%v recoveries=%d", l.State(), l.Recoveries())
	}
	if l.Downtime(99) != 20 || l.RecoveryTime(99) != 10 {
		t.Fatalf("downtime=%d recovery=%d, want 20/10", l.Downtime(99), l.RecoveryTime(99))
	}
}

// fakeDonor is a scripted live replica: it has processed the total order up
// to global and exports a fixed commit log.
type fakeDonor struct {
	k       *sim.Kernel
	global  uint64
	certSeq uint64
	commits []trace.CommitEntry
	pages   int
	bytes   int64

	exports int
	since   uint64 // sinceApplied of the last export
}

func (d *fakeDonor) LastGlobal() uint64 { return d.global }
func (d *fakeDonor) CertSeq() uint64    { return d.certSeq }

func (d *fakeDonor) ExportSnapshot(sinceApplied uint64) *Snapshot {
	d.exports++
	d.since = sinceApplied
	return &Snapshot{Donor: 1, Global: d.global, Commits: d.commits, Pages: d.pages, Bytes: d.bytes}
}

func (d *fakeDonor) ReadSectors(n int, done func()) {
	d.k.Schedule(sim.Time(n)*sim.Millisecond, done)
}

// fakeJoiner records installs and then reports the commit sequence the
// snapshot brought it to.
type fakeJoiner struct {
	k        *sim.Kernel
	installs int
	certSeq  uint64
}

func (j *fakeJoiner) CertSeq() uint64 { return j.certSeq }

func (j *fakeJoiner) InstallSnapshot(s *Snapshot, done func()) {
	j.installs++
	j.certSeq = uint64(len(s.Commits))
	j.k.Schedule(0, done)
}

// rejoin is one crashed-and-recovering site wired to a Manager whose donor
// choice the test scripts.
type rejoin struct {
	k          *sim.Kernel
	life       *Lifecycle
	joiner     *fakeJoiner
	mgr        *Manager
	donor      Donor // what PickDonor returns right now
	polls      int
	writes     int
	completes  int
	violations []*check.Violation
}

func newRejoin(t *testing.T, crashLog []trace.CommitEntry) *rejoin {
	t.Helper()
	k := sim.NewKernel()
	r := &rejoin{k: k, life: NewLifecycle(3), joiner: &fakeJoiner{k: k}}
	if err := r.life.Crash(1*sim.Second, 40, crashLog); err != nil {
		t.Fatal(err)
	}
	if err := r.life.BeginRecovery(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	r.mgr = NewManager(ManagerConfig{
		K:    k,
		Site: 3,
		Life: r.life,
		PickDonor: func() Donor {
			r.polls++
			return r.donor
		},
		Joiner: r.joiner,
		WriteSectors: func(n int, done func()) {
			r.writes++
			k.Schedule(sim.Time(n)*sim.Millisecond, done)
		},
		RateBps:     1_000_000,
		PollPeriod:  10 * sim.Millisecond,
		OnComplete:  func(int64, uint64) { r.completes++ },
		OnViolation: func(v *check.Violation) { r.violations = append(r.violations, v) },
	})
	return r
}

func (r *rejoin) runUntil(t *testing.T, at sim.Time) {
	t.Helper()
	if err := r.k.RunUntil(at); err != nil {
		t.Fatal(err)
	}
}

func log(tids ...uint64) []trace.CommitEntry {
	out := make([]trace.CommitEntry, len(tids))
	for i, tid := range tids {
		out[i] = trace.CommitEntry{Seq: uint64(i + 1), TID: tid}
	}
	return out
}

// TestManagerWaitsForAReadyDonor walks the whole rejoin: with no donor the
// Manager keeps polling; a donor that has not reached the catch-up sequence
// is not used; once it has, exactly one transfer runs — export bounded by the
// crash horizon, donor read, wire time, joiner write, install — and the
// lifecycle completes once. After that the Manager is inert.
func TestManagerWaitsForAReadyDonor(t *testing.T) {
	r := newRejoin(t, log(101, 102))
	r.k.ScheduleAt(2*sim.Second, func() { r.mgr.OnJoined(50) })

	r.runUntil(t, 2*sim.Second+95*sim.Millisecond)
	if r.polls != 10 {
		t.Fatalf("polled %d times in 95ms at a 10ms period without a donor, want 10", r.polls)
	}
	if r.mgr.Done() || r.life.State() != StateRecovering {
		t.Fatalf("done=%v state=%v before any donor existed", r.mgr.Done(), r.life.State())
	}

	// A donor appears but lags the catch-up sequence: still polling.
	donor := &fakeDonor{k: r.k, global: 49, certSeq: 5, commits: log(101, 102, 103), pages: 20, bytes: 500_000}
	r.donor = donor
	r.runUntil(t, 2*sim.Second+195*sim.Millisecond)
	if donor.exports != 0 || r.polls != 20 {
		t.Fatalf("lagging donor: %d exports after %d polls, want 0 after 20", donor.exports, r.polls)
	}
	// A readmission raises the catch-up sequence; the poll must use it.
	r.mgr.OnJoined(60)
	donor.global = 55
	r.runUntil(t, 2*sim.Second+295*sim.Millisecond)
	if donor.exports != 0 {
		t.Fatal("donor at 55 used although the latest catch-up sequence is 60")
	}

	donor.global = 60
	r.runUntil(t, 10*sim.Second)
	if donor.exports != 1 || r.joiner.installs != 1 || r.writes != 1 || r.completes != 1 {
		t.Fatalf("exports=%d installs=%d writes=%d completes=%d, want one of each",
			donor.exports, r.joiner.installs, r.writes, r.completes)
	}
	if donor.since != 40 {
		t.Fatalf("export bounded by applied horizon %d, want the crash horizon 40", donor.since)
	}
	if len(r.violations) != 0 {
		t.Fatalf("prefix crash log flagged: %v", r.violations[0])
	}
	if !r.mgr.Done() || r.life.State() != StateUp || r.life.Recoveries() != 1 {
		t.Fatalf("done=%v state=%v recoveries=%d after the transfer", r.mgr.Done(), r.life.State(), r.life.Recoveries())
	}
	if r.life.TransferBytes() != 500_000 || r.life.RejoinLag() != 2 {
		t.Fatalf("transfer=%dB lag=%d, want 500000B and donor 5 - joiner 3 = 2", r.life.TransferBytes(), r.life.RejoinLag())
	}
	// Poll at +300ms finds the donor; 20ms donor read + 500ms on the wire at
	// 1 MB/s + 20ms joiner write + the install job.
	if got, want := r.life.RecoveryTime(r.k.Now()), 840*sim.Millisecond; got != want {
		t.Fatalf("recovery took %v, want %v", got, want)
	}

	// Done is stable: late upcalls and leftover polls start nothing.
	polls := r.polls
	r.mgr.OnJoined(70)
	r.runUntil(t, 20*sim.Second)
	if !r.mgr.Done() || donor.exports != 1 || r.completes != 1 || r.polls != polls {
		t.Fatalf("after completion: done=%v exports=%d completes=%d polls %d -> %d",
			r.mgr.Done(), donor.exports, r.completes, polls, r.polls)
	}
}

// TestManagerReportsNonPrefixCrashLog: a dead incarnation that committed
// something the donor never did is a safety violation, reported exactly once
// at transfer time — and the rejoin still completes, so the run can go on to
// its end-of-run verdict.
func TestManagerReportsNonPrefixCrashLog(t *testing.T) {
	r := newRejoin(t, log(101, 999))
	r.donor = &fakeDonor{k: r.k, global: 10, commits: log(101, 102, 103), pages: 1, bytes: 1000}
	r.k.ScheduleAt(2*sim.Second, func() { r.mgr.OnJoined(10) })
	r.runUntil(t, 10*sim.Second)
	if len(r.violations) != 1 {
		t.Fatalf("%d violations reported, want 1", len(r.violations))
	}
	if v := r.violations[0]; v.Site != dbsm.SiteID(3) || v.Pos != 1 {
		t.Fatalf("violation names site %d position %d, want site 3 position 1: %v", v.Site, v.Pos, v)
	}
	if !r.mgr.Done() || r.joiner.installs != 1 {
		t.Fatalf("done=%v installs=%d: the rejoin must still complete", r.mgr.Done(), r.joiner.installs)
	}
}
