package trace

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/db"
	"repro/internal/sim"
)

func TestTxnLogRecords(t *testing.T) {
	var l TxnLog
	l.Add(Record{TID: 1, Class: "neworder", Site: 2, Submit: sim.Second, End: 2 * sim.Second, Outcome: db.Committed})
	l.Add(Record{TID: 2, Class: "payment-long", Site: 2, Submit: sim.Second, End: 3 * sim.Second, Outcome: db.AbortLock})
	if l.Len() != 2 {
		t.Fatalf("len = %d", l.Len())
	}
	recs := l.Records()
	if recs[0].Latency() != sim.Second {
		t.Fatalf("latency = %v", recs[0].Latency())
	}
	if recs[1].Outcome != db.AbortLock {
		t.Fatal("outcome lost")
	}
}

// The operations of commitLogOps, one byte each, followed by an argument byte.
const (
	opAgree = iota
	opDiverge
	opReset
	opSnapshot
	opAppendToSnapshot
	opKinds
)

// commitLogOps drives k logs sharing one LogArray and, beside them, k plain
// slices with the same appends, two bytes per operation: the kind, then its
// argument (the log, and for a reset the donor). An agreeing append adds the
// n-th entry of one common sequence at a log of length n, a diverging one an
// entry outside it; a reset takes another log's (or its own) entries, as a
// rejoin does. After every operation each log's Entries must equal its
// slice, and every Entries slice taken earlier, and every append to one,
// must still read what it read when taken.
func commitLogOps(t *testing.T, k int, ops []byte) {
	t.Helper()
	var a LogArray
	logs := make([]CommitLog, k)
	want := make([][]CommitEntry, k)
	for i := range logs {
		logs[i].Share(&a)
	}
	type kept struct{ got, want []CommitEntry }
	var snaps []kept
	keep := func(s []CommitEntry) { snaps = append(snaps, kept{s, append([]CommitEntry(nil), s...)}) }
	for step := 0; len(ops) >= 2; step, ops = step+1, ops[2:] {
		i := int(ops[1]) % k
		n := uint64(len(want[i]))
		switch ops[0] % opKinds {
		case opAgree:
			e := CommitEntry{Seq: n + 1, TID: 7*n + 1}
			logs[i].Append(e.Seq, e.TID)
			want[i] = append(want[i], e)
		case opDiverge:
			e := CommitEntry{Seq: n + 1, TID: 1<<32 | uint64(ops[1])}
			logs[i].Append(e.Seq, e.TID)
			want[i] = append(want[i], e)
		case opReset:
			donor := int(ops[1]) / k % k
			logs[i].Reset(logs[donor].Entries())
			want[i] = append([]CommitEntry(nil), want[donor]...)
		case opSnapshot:
			keep(logs[i].Entries())
		case opAppendToSnapshot:
			keep(append(logs[i].Entries(), CommitEntry{Seq: 1 << 40, TID: 1 << 40}))
		}
		for j := range logs {
			if got := logs[j].Entries(); !slices.Equal(got, want[j]) || logs[j].Len() != len(want[j]) {
				t.Fatalf("step %d (op %d on log %d): log %d holds %v, want %v", step, ops[0]%opKinds, i, j, got, want[j])
			}
		}
		for s, kp := range snaps {
			if !slices.Equal(kp.got, kp.want) {
				t.Fatalf("step %d (op %d on log %d): slice %d taken earlier now reads %v, was %v", step, ops[0]%opKinds, i, s, kp.got, kp.want)
			}
		}
	}
}

// TestCommitLogSharingMatchesPrivateLogs is commitLogOps over random
// operation strings, agreeing appends the most likely, at one to five
// logs per array.
func TestCommitLogSharingMatchesPrivateLogs(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for run := 0; run < 300; run++ {
		ops := make([]byte, 2*rng.IntN(400))
		for i := range ops {
			ops[i] = byte(rng.IntN(256))
			if i%2 == 0 && rng.IntN(4) > 0 {
				ops[i] = opAgree
			}
		}
		commitLogOps(t, 1+run%5, ops)
	}
}

// TestCommitLogAgreeingLogsShareOneArray: logs that append the same entries,
// whichever leads, hold one backing array, and an append to a returned slice
// copies.
func TestCommitLogAgreeingLogsShareOneArray(t *testing.T) {
	var a LogArray
	var l1, l2 CommitLog
	l1.Share(&a)
	l2.Share(&a)
	for seq := uint64(1); seq <= 1000; seq++ {
		first, second := &l1, &l2
		if seq%3 == 0 {
			first, second = second, first
		}
		first.Append(seq, seq*10)
		second.Append(seq, seq*10)
	}
	e1, e2 := l1.Entries(), l2.Entries()
	if &e1[0] != &e2[0] || &e1[0] != &a.entries[0] {
		t.Fatal("agreeing logs keep separate arrays")
	}
	if grown := append(e1, CommitEntry{}); &grown[0] == &e1[0] {
		t.Fatal("an append to an Entries slice wrote into the shared array")
	}
}

// FuzzCommitLog runs commitLogOps on the fuzzer's operation strings; the
// first byte picks one to four logs.
func FuzzCommitLog(f *testing.F) {
	// three logs: a lagging log diverges where the array holds the
	// leader's entry
	f.Add([]byte{2, opAgree, 0, opAgree, 0, opAgree, 0, opDiverge, 1, opAgree, 1})
	// three logs: the leader diverges at the array's end, so its entry is
	// the array's and the agreeing followers leave
	f.Add([]byte{2, opAgree, 0, opDiverge, 0, opAgree, 1, opAgree, 1, opAgree, 0})
	// four logs: a private log's spare capacity behind a kept slice; log 2
	// resets from donor 1, then appends past the aliased prefix
	f.Add([]byte{3, opAgree, 0, opAgree, 1, opDiverge, 1, opAgree, 1, opSnapshot, 1, opAppendToSnapshot, 1,
		opAgree, 1, opReset, 2 + 4*1, opAgree, 2, opAppendToSnapshot, 2, opAgree, 0, opAgree, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		commitLogOps(t, 1+int(data[0])%4, data[1:])
	})
}
