package tpcc

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/csrt"
	"repro/internal/db"
	"repro/internal/dbsm"
	"repro/internal/sim"
)

func testGen(seed int64, warehouses int) *Generator {
	return NewGenerator(1, warehouses, DefaultCalibration(), sim.NewRNG(seed))
}

func TestMixProportions(t *testing.T) {
	g := testGen(1, 10)
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		txn := g.Next(i % 10)
		counts[txn.Class]++
	}
	frac := func(classes ...string) float64 {
		tot := 0
		for _, c := range classes {
			tot += counts[c]
		}
		return float64(tot) / n
	}
	if f := frac(ClassNewOrder); math.Abs(f-0.44) > 0.02 {
		t.Fatalf("neworder fraction = %v", f)
	}
	if f := frac(ClassPaymentLong, ClassPaymentShort); math.Abs(f-0.44) > 0.02 {
		t.Fatalf("payment fraction = %v", f)
	}
	if f := frac(ClassOrderStatusLong, ClassOrderStatusShort); math.Abs(f-0.04) > 0.01 {
		t.Fatalf("orderstatus fraction = %v", f)
	}
	if f := frac(ClassDelivery); math.Abs(f-0.04) > 0.01 {
		t.Fatalf("delivery fraction = %v", f)
	}
	if f := frac(ClassStockLevel); math.Abs(f-0.04) > 0.01 {
		t.Fatalf("stocklevel fraction = %v", f)
	}
	// Long/short split of payment ~60/40.
	pl := float64(counts[ClassPaymentLong]) / float64(counts[ClassPaymentLong]+counts[ClassPaymentShort])
	if math.Abs(pl-0.6) > 0.03 {
		t.Fatalf("payment long fraction = %v", pl)
	}
}

func TestWriteSetsSubsetOfReadSets(t *testing.T) {
	g := testGen(2, 20)
	for i := 0; i < 5000; i++ {
		txn := g.Next(i % 200)
		for _, w := range txn.WriteSet {
			if !txn.ReadSet.Contains(w) {
				t.Fatalf("%s: write %x not in read set", txn.Class, uint64(w))
			}
		}
	}
}

func TestReadOnlyClassesHaveNoWrites(t *testing.T) {
	g := testGen(3, 10)
	seenRO := 0
	for i := 0; i < 5000; i++ {
		txn := g.Next(i % 100)
		switch txn.Class {
		case ClassOrderStatusLong, ClassOrderStatusShort, ClassStockLevel:
			seenRO++
			if !txn.ReadOnly || len(txn.WriteSet) != 0 || txn.WriteBytes != 0 {
				t.Fatalf("%s must be read-only", txn.Class)
			}
		default:
			if txn.ReadOnly {
				t.Fatalf("%s must not be read-only", txn.Class)
			}
			if len(txn.WriteSet) == 0 || txn.WriteBytes <= 0 {
				t.Fatalf("%s must write", txn.Class)
			}
		}
	}
	if seenRO == 0 {
		t.Fatal("no read-only transactions generated")
	}
}

func TestTIDsUniqueAcrossSitesAndInsertsDisjoint(t *testing.T) {
	g1 := NewGenerator(1, 10, DefaultCalibration(), sim.NewRNG(7))
	g2 := NewGenerator(2, 10, DefaultCalibration(), sim.NewRNG(7))
	tids := map[uint64]bool{}
	for i := 0; i < 2000; i++ {
		a, b := g1.Next(i%100), g2.Next(i%100)
		if tids[a.TID] || tids[b.TID] {
			t.Fatal("duplicate TID")
		}
		tids[a.TID] = true
		tids[b.TID] = true
		// Inserted rows from different sites must never collide.
		// (Order rows are excluded: delivery updates *existing* shared
		// orders, which may legitimately coincide.)
		for _, w := range a.WriteSet {
			if w.Table() == TableOrderLine || w.Table() == TableHistory {
				if b.WriteSet.Contains(w) {
					t.Fatal("insert identifier collision across sites")
				}
			}
		}
	}
}

func TestPaymentTargetsWarehouseRow(t *testing.T) {
	g := testGen(4, 10)
	found := 0
	for i := 0; i < 2000; i++ {
		txn := g.Next(3) // home warehouse 0 for client 3
		if txn.Class != ClassPaymentLong && txn.Class != ClassPaymentShort {
			continue
		}
		found++
		hasWH := false
		for _, w := range txn.WriteSet {
			if w.Table() == TableWarehouse {
				hasWH = true
			}
		}
		if !hasWH {
			t.Fatal("payment does not update a warehouse row")
		}
	}
	if found == 0 {
		t.Fatal("no payments generated")
	}
}

func TestNewOrderUserAbortFraction(t *testing.T) {
	g := testGen(5, 10)
	n, aborts := 0, 0
	for i := 0; i < 50000; i++ {
		txn := g.Next(i % 100)
		if txn.Class != ClassNewOrder {
			continue
		}
		n++
		if txn.UserAbort {
			aborts++
		}
	}
	f := float64(aborts) / float64(n)
	if math.Abs(f-0.01) > 0.005 {
		t.Fatalf("user abort fraction = %v, want ~0.01", f)
	}
}

func TestCPUDistributionsOrdering(t *testing.T) {
	cal := DefaultCalibration()
	mean := func(class string) float64 { return cal.CPU[class].Mean() }
	if !(mean(ClassDelivery) > mean(ClassNewOrder)) {
		t.Fatal("delivery must be the CPU-bound class")
	}
	if !(mean(ClassPaymentLong) > mean(ClassPaymentShort)) {
		t.Fatal("payment long must cost more than short")
	}
	if !(mean(ClassOrderStatusLong) > mean(ClassOrderStatusShort)) {
		t.Fatal("orderstatus long must cost more than short")
	}
	// Commit cost just under 2ms (Section 4.1).
	c := cal.CommitCPU.Mean() / float64(sim.Millisecond)
	if c < 1.2 || c > 2.2 {
		t.Fatalf("commit CPU mean = %vms", c)
	}
}

func TestOpsSlicedIntoQuanta(t *testing.T) {
	g := testGen(6, 10)
	for i := 0; i < 100; i++ {
		txn := g.Next(0)
		if txn.Quantum != DefaultCalibration().Quantum {
			t.Fatalf("quantum = %v, want the calibration's", txn.Quantum)
		}
		if txn.CPU <= 0 {
			t.Fatal("no processing time generated")
		}
	}
}

// TestBuildIntoRecycledTxnAllocatesNothing pins Generator.Build and
// dbsm.AppendItemSet on a client's path: once a transaction's arrays have
// carried a class, recycling it (db.Txn.Recycle) and building that class into
// it again allocates nothing, for each of the five classes, and yields what a
// build into a new transaction does.
func TestBuildIntoRecycledTxnAllocatesNothing(t *testing.T) {
	g := testGen(6, 10)
	for class := ArrivalNewOrder; class <= ArrivalStockLevel; class++ {
		var d Draft
		g.Draw(&d, class, 0)
		var txn, fresh db.Txn
		g.Build(&d, &fresh)
		g.Build(&d, &txn)
		allocs := testing.AllocsPerRun(20, func() {
			txn.Recycle()
			g.Build(&d, &txn)
		})
		if allocs != 0 || len(txn.ReadSet) == 0 || txn.CPU == 0 {
			t.Errorf("class %d: a build into a recycled transaction made %v allocations (%d reads, %v CPU)",
				class, allocs, len(txn.ReadSet), txn.CPU)
		}
		if !slices.Equal(txn.ReadSet, fresh.ReadSet) || !slices.Equal(txn.WriteSet, fresh.WriteSet) || txn.TID != fresh.TID {
			t.Errorf("class %d: recycled build %+v differs from a fresh one %+v", class, txn, fresh)
		}
	}
}

func TestWarehousesScale(t *testing.T) {
	if Warehouses(5) != 1 || Warehouses(100) != 10 || Warehouses(2000) != 200 {
		t.Fatal("warehouse scaling wrong")
	}
}

func TestClientLifecycle(t *testing.T) {
	k := sim.NewKernel()
	cpus := csrt.NewCPUSet(1, k, nil)
	storage := db.NewStorage(k, db.StorageConfig{}, nil)
	server := db.NewServer(k, 1, cpus, storage)
	gen := NewGenerator(1, 1, DefaultCalibration(), sim.NewRNG(2))
	var done int
	issuedLimit := 5
	cl := &Client{
		ID:     0,
		Server: server,
		Gen:    gen,
		Think:  100 * sim.Millisecond,
		OnDone: func(_ *Client, _ *db.Txn, _ db.Outcome) { done++ },
	}
	cl.Stop = func() bool { return cl.Issued() >= int64(issuedLimit) }
	cl.Start(k, sim.NewRNG(3))
	if err := k.RunUntil(60 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if cl.Issued() != int64(issuedLimit) {
		t.Fatalf("issued = %d, want %d", cl.Issued(), issuedLimit)
	}
	if done != issuedLimit {
		t.Fatalf("done = %d, want %d", done, issuedLimit)
	}
}

// TestClientLoopAllocFree pins an individual client's loop on a centralized
// server: Client.issue through the think timer bound once at Start,
// db.Txn.Recycle, Generator.NextInto and Client.resolved allocate nothing
// once the client's transaction has carried every class.
func TestClientLoopAllocFree(t *testing.T) {
	k := sim.NewKernel()
	server := db.NewServer(k, 1, csrt.NewCPUSet(1, k, nil), db.NewStorage(k, db.StorageConfig{}, nil))
	cl := &Client{Server: server, Gen: NewGenerator(1, 1, DefaultCalibration(), sim.NewRNG(2)), Think: 100 * sim.Millisecond}
	cl.Start(k, sim.NewRNG(3))
	second := func() {
		if err := k.RunUntil(k.Now() + sim.Second); err != nil {
			t.Fatal(err)
		}
	}
	for range 120 {
		second()
	}
	warm := cl.Issued()
	if n := testing.AllocsPerRun(20, second); n != 0 {
		t.Fatalf("a client's loop: %v allocs per simulated second, want 0", n)
	}
	if cl.Issued()-warm < 20 {
		t.Fatalf("%d transactions in the measured seconds: the loop did not run", cl.Issued()-warm)
	}
}

func TestProbitSanity(t *testing.T) {
	if math.Abs(probit(0.5)) > 1e-9 {
		t.Fatalf("probit(0.5) = %v", probit(0.5))
	}
	if v := probit(0.975); math.Abs(v-1.96) > 0.01 {
		t.Fatalf("probit(0.975) = %v", v)
	}
	if probit(0.001) >= 0 || probit(0.999) <= 0 {
		t.Fatal("tails have wrong sign")
	}
	if probit(0) != -8 || probit(1) != 8 {
		t.Fatal("bounds not clamped")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, b := testGen(9, 10), testGen(9, 10)
	for i := 0; i < 1000; i++ {
		ta, tb := a.Next(i%100), b.Next(i%100)
		if ta.TID != tb.TID || ta.Class != tb.Class || len(ta.ReadSet) != len(tb.ReadSet) {
			t.Fatal("generator not deterministic")
		}
	}
}

// streamHash folds every field a draw decides — TID, Class, ReadOnly,
// UserAbort, the script, ReadSet, WriteSet, WriteBytes, CommitCPU — of the
// first n transactions g builds into one FNV-64a value. The script is hashed
// as a list of (kind, item, cpu, size) steps after its processing-step count:
// a read (kind 1) per read item in draw order, which g's draft of the
// transaction just built still holds, then a processing step (kind 2) per
// quantum.
func streamHash(n int, g *Generator, next func(i int) *db.Txn) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	flag := func(v bool) {
		if v {
			put(1)
		} else {
			put(0)
		}
	}
	set := func(s dbsm.ItemSet) {
		put(uint64(len(s)))
		for _, id := range s {
			put(uint64(id))
		}
	}
	for i := 0; i < n; i++ {
		t := next(i)
		put(t.TID)
		h.Write([]byte(t.Class))
		flag(t.ReadOnly)
		flag(t.UserAbort)
		step := func(kind int, item dbsm.TupleID, cpu sim.Time) {
			put(uint64(kind))
			put(uint64(item))
			put(uint64(cpu))
			put(0)
		}
		put(uint64((t.CPU + t.Quantum - 1) / t.Quantum))
		for _, id := range g.scratch.Reads {
			step(1, id, 0)
		}
		for left := t.CPU; left > 0; left -= t.Quantum {
			step(2, 0, min(left, t.Quantum))
		}
		set(t.ReadSet)
		set(t.WriteSet)
		put(uint64(t.WriteBytes))
		put(uint64(t.CommitCPU))
	}
	return h.Sum64()
}

// TestDrawStreamPinned holds the generator's draw stream where it lives: the
// hashes are over the first 2000 transactions of Next and of Draw then Build
// for each top-level class. They were first recorded on the commit before
// generation was split into Draw and Build, and recorded again, with the same
// hash, on the commit before the fetch count and the fetch-only keys left the
// script: the same values come out after, so no draw moved. A draw that moves, a counter that steps out of order
// or a key that lands in another set fails here, at the class that moved it,
// instead of as a golden diff three packages up.
func TestDrawStreamPinned(t *testing.T) {
	const mix = ArrivalClass(-1) // Next: the class comes from the stream too
	for _, tc := range []struct {
		seed  int64
		wh    int
		class ArrivalClass
		want  uint64
	}{
		{17, 1, mix, 0xbf590523d1562ea4},
		{17, 1, ArrivalNewOrder, 0x5e05cd8449ff2f4d},
		{17, 1, ArrivalPayment, 0x51719c607852540c},
		{17, 1, ArrivalOrderStatus, 0xb9d099fa31194846},
		{17, 1, ArrivalDelivery, 0xc278b4d8cd1868a0},
		{17, 1, ArrivalStockLevel, 0x1b7a4069c0e11008},
		{17, 50, mix, 0x6dcbdab3c14a9ca},
		{17, 50, ArrivalNewOrder, 0xcd4c2eb50a74ca02},
		{17, 50, ArrivalPayment, 0xb1b88b0104ecec00},
		{17, 50, ArrivalOrderStatus, 0xa80a624d391cfb96},
		{17, 50, ArrivalDelivery, 0xf28f6a66a6d68f25},
		{17, 50, ArrivalStockLevel, 0x62f6c148b4f147b7},
		{4242, 1, mix, 0x48dc35a74f91dd04},
		{4242, 1, ArrivalNewOrder, 0xeefc03e95d3f6592},
		{4242, 1, ArrivalPayment, 0x5b3893448c7141be},
		{4242, 1, ArrivalOrderStatus, 0xcfe16495fc52714c},
		{4242, 1, ArrivalDelivery, 0x3f19c2d9022ff831},
		{4242, 1, ArrivalStockLevel, 0x5a23fad1b4f1db0c},
		{4242, 50, mix, 0x85a232c56c6fc473},
		{4242, 50, ArrivalNewOrder, 0xb6ca27e9594f7124},
		{4242, 50, ArrivalPayment, 0xbd4b370c92f938d3},
		{4242, 50, ArrivalOrderStatus, 0x42c765606a17d56c},
		{4242, 50, ArrivalDelivery, 0xca50b65c4d0c4a96},
		{4242, 50, ArrivalStockLevel, 0xecb15018f8520e7c},
	} {
		g := testGen(tc.seed, tc.wh)
		got := streamHash(2000, g, func(i int) *db.Txn {
			if tc.class == mix {
				return g.Next(i % tc.wh)
			}
			t := new(db.Txn) // streamHash reads the draft from g.scratch
			g.Draw(&g.scratch, tc.class, i%tc.wh)
			g.Build(&g.scratch, t)
			return t
		})
		if got != tc.want {
			t.Errorf("seed %d, %d warehouses, class %d: stream hash %#x, want %#x", tc.seed, tc.wh, tc.class, got, tc.want)
		}
	}
}
