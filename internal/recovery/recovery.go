// Package recovery owns the site lifecycle and the database-level join
// protocol that turns a crash from a terminal event into a measurable
// outage. The lifecycle is an explicit state machine — Up → Crashed →
// Recovering → Up — with per-transition bookkeeping (downtime, recovery
// duration, transfer volume, post-rejoin commit lag), and the Manager drives
// a recovering site's rejoin end to end:
//
//  1. the site's fresh gcs stack requests admission (gcs join handshake);
//  2. once the group admits it and announces the catch-up sequence, the
//     Manager waits for a donor replica to reach that sequence;
//  3. the donor exports a snapshot — certifier state, commit log, and the
//     storage pages written since the joiner's crash horizon — which is
//     shipped at the configured bulk rate and written to the joiner's disk;
//  4. the replica installs it and replays the deliveries it buffered while
//     the transfer was in flight (the delta catch-up), completing the
//     transition back to Up.
//
// Safety across rejoin is checked at install time: the dead incarnation's
// commit log must be a prefix of the snapshot's, verified with the same
// internal/check comparator the off-line verdicts use.
package recovery

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/dbsm"
	"repro/internal/sim"
	"repro/internal/trace"
)

// State is a site's lifecycle state.
type State int

// Lifecycle states.
const (
	// StateUp: the site participates fully in the protocol.
	StateUp State = iota
	// StateCrashed: the site is down and silent; its clients block.
	StateCrashed
	// StateRecovering: the site restarted and is rejoining — requesting
	// admission, transferring a snapshot, replaying the delta.
	StateRecovering
)

func (s State) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateCrashed:
		return "crashed"
	case StateRecovering:
		return "recovering"
	default:
		return "unknown"
	}
}

// Lifecycle is one site's state machine with the availability bookkeeping
// the dependability evaluation reports.
type Lifecycle struct {
	site  dbsm.SiteID
	state State

	crashedAt sim.Time
	recoverAt sim.Time

	downtime     sim.Time // total time not Up (closed intervals only)
	recoveryTime sim.Time // the Recovering share of the downtime
	recoveries   int

	transferBytes int64
	rejoinLag     uint64

	// Crash horizon, captured for the snapshot sizing and the rejoin
	// safety check.
	lastAppliedAtCrash uint64
	commitsAtCrash     []trace.CommitEntry
}

// NewLifecycle starts a site Up.
func NewLifecycle(site dbsm.SiteID) *Lifecycle {
	return &Lifecycle{site: site}
}

// State reports the current lifecycle state.
func (l *Lifecycle) State() State { return l.state }

// Recoveries reports completed rejoins.
func (l *Lifecycle) Recoveries() int { return l.recoveries }

// TransferBytes reports total snapshot bytes shipped to this site.
func (l *Lifecycle) TransferBytes() int64 { return l.transferBytes }

// RejoinLag reports the commit-sequence gap to the donor at the instant the
// last rejoin completed.
func (l *Lifecycle) RejoinLag() uint64 { return l.rejoinLag }

// LastAppliedAtCrash reports the applied horizon captured at the last crash.
func (l *Lifecycle) LastAppliedAtCrash() uint64 { return l.lastAppliedAtCrash }

// CommitsAtCrash reports the commit log captured at the last crash.
func (l *Lifecycle) CommitsAtCrash() []trace.CommitEntry { return l.commitsAtCrash }

// Downtime reports accumulated not-Up time; for a site still down, now
// closes the open interval.
func (l *Lifecycle) Downtime(now sim.Time) sim.Time {
	d := l.downtime
	if l.state != StateUp {
		d += now - l.crashedAt
	}
	return d
}

// RecoveryTime reports accumulated Recovering time; for a site still
// recovering, now closes the open interval.
func (l *Lifecycle) RecoveryTime(now sim.Time) sim.Time {
	d := l.recoveryTime
	if l.state == StateRecovering {
		d += now - l.recoverAt
	}
	return d
}

// Crash transitions Up → Crashed, capturing the crash horizon: the applied
// sequence (which bounds the pages a later snapshot must ship) and the
// commit log (against which the rejoin prefix condition is checked).
func (l *Lifecycle) Crash(now sim.Time, lastApplied uint64, commits []trace.CommitEntry) error {
	if l.state != StateUp {
		return fmt.Errorf("recovery: site %d crash in state %v", l.site, l.state)
	}
	l.state = StateCrashed
	l.crashedAt = now
	l.lastAppliedAtCrash = lastApplied
	l.commitsAtCrash = append([]trace.CommitEntry(nil), commits...)
	return nil
}

// BeginRecovery transitions Crashed → Recovering.
func (l *Lifecycle) BeginRecovery(now sim.Time) error {
	if l.state != StateCrashed {
		return fmt.Errorf("recovery: site %d recover in state %v", l.site, l.state)
	}
	l.state = StateRecovering
	l.recoverAt = now
	return nil
}

// Complete transitions Recovering → Up, closing the downtime interval and
// recording the transfer volume and the residual commit lag.
func (l *Lifecycle) Complete(now sim.Time, transferBytes int64, lag uint64) error {
	if l.state != StateRecovering {
		return fmt.Errorf("recovery: site %d complete in state %v", l.site, l.state)
	}
	l.state = StateUp
	l.downtime += now - l.crashedAt
	l.recoveryTime += now - l.recoverAt
	l.recoveries++
	l.transferBytes += transferBytes
	l.rejoinLag = lag
	return nil
}

// Snapshot is the state a donor exports for a joiner: everything below the
// catch-up sequence that the joiner can no longer obtain from the group's
// message streams.
type Snapshot struct {
	// Donor is the exporting site.
	Donor dbsm.SiteID
	// Global is the donor's last processed total-order sequence at export:
	// at least the joiner's catch-up sequence. Buffered deliveries at or
	// below it are covered by the snapshot and dropped at install.
	Global uint64
	// Cert is the certifier state (sequence, pruning boundary, retained
	// write-sets; the last-writer index is rebuilt from them at install).
	Cert *dbsm.CertState
	// Commits is the donor's commit log — the joiner's log restarts from
	// it, which is what makes the post-rejoin stream provably convergent.
	Commits []trace.CommitEntry
	// LastApplied seeds the joiner's applied-sequence horizon.
	LastApplied uint64
	// Pages is the count of storage pages shipped (written at the joiner).
	Pages int
	// Bytes is the modeled wire size of the whole snapshot.
	Bytes int64
}

// Donor is a live replica that can export snapshots.
type Donor interface {
	// LastGlobal reports the highest total-order sequence processed.
	LastGlobal() uint64
	// ExportSnapshot exports current state; sinceApplied is the joiner's
	// applied horizon at crash, bounding the page set when the certifier
	// history still covers it.
	ExportSnapshot(sinceApplied uint64) *Snapshot
	// ReadSectors models reading the exported pages off the donor's disk;
	// done fires when the last one is served.
	ReadSectors(n int, done func())
	// CertSeq reports the current commit sequence (for the lag metric).
	CertSeq() uint64
}

// Joiner is the recovering replica being caught up.
type Joiner interface {
	// InstallSnapshot installs the snapshot, replays buffered deliveries
	// above it, and leaves recovering mode; done fires afterwards.
	InstallSnapshot(s *Snapshot, done func())
	// CertSeq reports the commit sequence after installation.
	CertSeq() uint64
}

// ManagerConfig wires a Manager to one recovering site.
type ManagerConfig struct {
	K    *sim.Kernel
	Site dbsm.SiteID
	Life *Lifecycle
	// PickDonor returns a currently operational donor, or nil if none is
	// available right now (re-polled; the quorum rule guarantees one
	// eventually under generated fault loads).
	PickDonor func() Donor
	Joiner    Joiner
	// WriteSectors models the joiner-side disk install of the shipped
	// pages.
	WriteSectors func(n int, done func())
	// RateBps is the bulk-transfer bandwidth (default 6 MB/s — the
	// protocol stack's rate-control default, about half of Ethernet-100,
	// leaving headroom for the group's live traffic).
	RateBps float64
	// PollPeriod paces donor-readiness checks (default 25ms).
	PollPeriod sim.Time
	// OnComplete observes the finished rejoin.
	OnComplete func(transferBytes int64, lag uint64)
	// OnViolation observes a rejoin safety violation (the dead
	// incarnation's log was not a prefix of the snapshot's).
	OnViolation func(v *check.Violation)
}

func (c *ManagerConfig) fill() {
	if c.RateBps == 0 {
		c.RateBps = 6_000_000
	}
	if c.PollPeriod == 0 {
		c.PollPeriod = 25 * sim.Millisecond
	}
}

// Manager drives one site's rejoin after the gcs layer admits it.
type Manager struct {
	cfg     ManagerConfig
	joinSeq uint64
	started bool
	done    bool
}

// NewManager builds a rejoin driver.
func NewManager(cfg ManagerConfig) *Manager {
	cfg.fill()
	return &Manager{cfg: cfg}
}

// Done reports whether the rejoin has completed.
func (m *Manager) Done() bool { return m.done }

// OnJoined is the gcs stack's join upcall: the group admitted this site and
// announced the catch-up sequence. From here the Manager polls for a donor
// that has processed past it, then runs the transfer. The upcall can fire
// again with a higher sequence if the stack was readmitted while still
// unsynced; the donor-readiness poll always uses the latest value.
func (m *Manager) OnJoined(joinSeq uint64) {
	if m.done {
		return
	}
	if joinSeq > m.joinSeq {
		m.joinSeq = joinSeq
	}
	if m.started {
		return
	}
	m.started = true
	m.pollDonor()
}

// pollDonor waits until some operational replica has processed every
// delivery the snapshot must cover.
func (m *Manager) pollDonor() {
	if m.done {
		return
	}
	donor := m.cfg.PickDonor()
	if donor == nil || donor.LastGlobal() < m.joinSeq {
		m.cfg.K.Schedule(m.cfg.PollPeriod, func() { m.pollDonor() })
		return
	}
	m.transfer(donor)
}

// transfer exports the snapshot, reads its pages off the donor's disk,
// ships them at the bulk rate, writes them to the joiner's disk, and
// installs.
func (m *Manager) transfer(donor Donor) {
	snap := donor.ExportSnapshot(m.cfg.Life.LastAppliedAtCrash())
	// Rejoin safety: the dead incarnation's commits must be a prefix of
	// the donor's log, or the group diverged while this site was down.
	if old := m.cfg.Life.CommitsAtCrash(); len(old) > 0 {
		logs := []check.SiteLog{
			{Site: m.cfg.Site, Operational: false, Recovered: true, Entries: old},
			{Site: snap.Donor, Operational: true, Entries: snap.Commits},
		}
		if v := check.Logs(logs); v != nil && m.cfg.OnViolation != nil {
			m.cfg.OnViolation(v)
		}
	}
	wire := sim.FromSeconds(float64(snap.Bytes) / m.cfg.RateBps)
	donor.ReadSectors(snap.Pages, func() {
		m.cfg.K.Schedule(wire, func() {
			m.cfg.WriteSectors(snap.Pages, func() {
				m.cfg.Joiner.InstallSnapshot(snap, func() { m.complete(donor, snap) })
			})
		})
	})
}

// complete closes the lifecycle transition and reports the rejoin metrics.
func (m *Manager) complete(donor Donor, snap *Snapshot) {
	m.done = true
	var lag uint64
	if ds, js := donor.CertSeq(), m.cfg.Joiner.CertSeq(); ds > js {
		lag = ds - js
	}
	now := m.cfg.K.Now()
	_ = m.cfg.Life.Complete(now, snap.Bytes, lag)
	if m.cfg.OnComplete != nil {
		m.cfg.OnComplete(snap.Bytes, lag)
	}
}
