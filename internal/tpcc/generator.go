package tpcc

import (
	"repro/internal/db"
	"repro/internal/dbsm"
	"repro/internal/sim"
)

// Generator produces transaction instances for one site. Every site owns a
// generator so transaction and inserted-row identifiers never collide across
// replicas.
//
// Generation is split where randomness ends. Draw spends every RNG draw and
// counter step of one transaction and leaves the result in a Draft; Build
// turns a draft into the db.Txn a server executes, and draws nothing. Next
// and NextOfClass do both at once; the aggregate tier draws at arrival and
// builds only if a server admits the transaction.
type Generator struct {
	cal        *Calibration
	rng        *sim.RNG
	site       dbsm.SiteID
	warehouses int

	tidCounter    uint32
	insertCounter uint64

	// scratch is the draft Next and NextOfClass draw into, and union the
	// read-set-covers-write-set concatenation Build sorts a copy of: both
	// keep their backing arrays from one transaction to the next.
	scratch Draft
	union   []dbsm.TupleID
}

// Draft is one drawn, unbuilt transaction: identity, flags, cost samples and
// the keys it will touch, in draw order. Draw resets and refills it, reusing
// the key slices' backing arrays.
type Draft struct {
	TID       uint64
	Class     string
	ReadOnly  bool
	UserAbort bool
	// WriteBytes is the total size of written values.
	WriteBytes int
	// CPU is the processing-time sample Build slices into quanta; CommitCPU
	// the commit operation's.
	CPU       sim.Time
	CommitCPU sim.Time
	// FetchOnly items are fetched during execution but excluded from the
	// certification read-set: they model reads of columns no transaction
	// class ever writes (e.g. new-order reading W_TAX and D_TAX while payment
	// updates W_YTD and D_YTD), where row-granularity certification would
	// manufacture conflicts that do not exist semantically.
	FetchOnly []dbsm.TupleID
	Reads     []dbsm.TupleID
	Writes    []dbsm.TupleID
}

// Key-count maxima over the five classes: new-order fetches 2 unwritten rows
// and writes 2 rows per order line plus 2 inserts; stock-level reads the most.
const (
	maxFetchOnly = 2
	maxReads     = 1 + 2*20
	maxWrites    = 2*15 + 2
)

// NewGenerator builds a generator for a site over a database of the given
// scale.
func NewGenerator(site dbsm.SiteID, warehouses int, cal *Calibration, rng *sim.RNG) *Generator {
	if warehouses < 1 {
		warehouses = 1
	}
	return &Generator{cal: cal, rng: rng, site: site, warehouses: warehouses}
}

// Warehouses reports the configured database scale.
func (g *Generator) Warehouses() int { return g.warehouses }

// Next draws and builds the next transaction for a client whose home
// warehouse is homeWH (0-based).
func (g *Generator) Next(homeWH int) *db.Txn {
	r := g.rng.Float64()
	class := ArrivalStockLevel
	switch c := g.cal; {
	case r < c.MixNewOrder:
		class = ArrivalNewOrder
	case r < c.MixNewOrder+c.MixPayment:
		class = ArrivalPayment
	case r < c.MixNewOrder+c.MixPayment+c.MixOrderStatus:
		class = ArrivalOrderStatus
	case r < c.MixNewOrder+c.MixPayment+c.MixOrderStatus+c.MixDelivery:
		class = ArrivalDelivery
	}
	return g.NextOfClass(class, homeWH)
}

// NextOfClass draws and builds the next transaction of a fixed top-level
// class for a client homed at homeWH: Draw into the generator's own scratch
// draft, then Build.
func (g *Generator) NextOfClass(class ArrivalClass, homeWH int) *db.Txn {
	g.Draw(&g.scratch, class, homeWH)
	t := new(db.Txn)
	g.Build(&g.scratch, t)
	return t
}

// Draw fills d with the next transaction of a top-level class for a client
// homed at homeWH. The long/short variant choice and every other keying
// decision come from this generator's stream, and the transaction and
// inserted-row counters advance, whether or not the draft is ever built: an
// arrival a server refuses consumes exactly what an executed one does.
func (g *Generator) Draw(d *Draft, class ArrivalClass, homeWH int) {
	if homeWH >= g.warehouses {
		homeWH = homeWH % g.warehouses
	}
	d.ReadOnly, d.UserAbort, d.WriteBytes = false, false, 0
	d.FetchOnly, d.Reads, d.Writes = d.FetchOnly[:0], d.Reads[:0], d.Writes[:0]
	switch class {
	case ArrivalNewOrder:
		g.newOrder(d, homeWH)
	case ArrivalPayment:
		g.payment(d, homeWH)
	case ArrivalOrderStatus:
		g.orderStatus(d, homeWH)
	case ArrivalDelivery:
		g.delivery(d, homeWH)
	default:
		g.stockLevel(d, homeWH)
	}
}

func (g *Generator) nextInsert(table uint16, wh int) dbsm.TupleID {
	g.insertCounter++
	return insertRow(table, g.site, wh, g.insertCounter)
}

// seal ends a class function's draw: the class's processing-time sample, the
// transaction identifier, the commit cost sample — in that order, after the
// keys.
func (g *Generator) seal(d *Draft, class string) {
	d.Class = class
	d.CPU = g.cal.CPU[class].SampleDur(g.rng)
	g.tidCounter++
	d.TID = dbsm.MakeTID(g.site, g.tidCounter)
	d.CommitCPU = g.cal.CommitCPU.SampleDur(g.rng)
}

// Build assembles the executable transaction a draft describes into t: the
// script — one fetch for every read item, processing sliced into round-robin
// quanta — the two certification sets and the cost fields. It is the only
// place an item set is constructed, and it draws nothing.
func (g *Generator) Build(d *Draft, t *db.Txn) {
	// The read-set always covers the write-set: a transaction reads what
	// it updates. Certification correctness of the preemption rule relies
	// on this (Section 3.1).
	g.union = append(append(g.union[:0], d.Reads...), d.Writes...)
	t.TID = d.TID
	t.Class = d.Class
	t.ReadOnly = d.ReadOnly
	t.UserAbort = d.UserAbort
	t.Fetches = len(d.FetchOnly) + len(d.Reads)
	t.CPU = d.CPU
	t.Quantum = g.cal.Quantum
	t.ReadSet = dbsm.NewItemSet(g.union...)
	t.WriteSet = dbsm.NewItemSet(d.Writes...)
	t.WriteBytes = d.WriteBytes
	t.CommitCPU = d.CommitCPU
}

// newOrder: reads warehouse, district, customer, items and stocks; updates
// the stocks and inserts order, new-order and order lines. 1% of instances
// are rolled back by the application (TPC-C 2.4.1.4); 1% of order lines
// come from a remote warehouse.
func (g *Generator) newOrder(t *Draft, wh int) {
	c := g.cal
	d := g.rng.Intn(DistrictsPerWarehouse)
	cust := g.rng.NURand(1023, 0, CustomersPerDistrict-1)
	olcnt := g.rng.IntRange(5, 15)

	// W_TAX and D_TAX are read but never written by any class: they are
	// fetched without entering the certification read-set.
	t.FetchOnly = append(t.FetchOnly, WarehouseRow(wh), DistrictRow(wh, d))
	t.Reads = append(t.Reads, CustomerRow(wh, d, cust))
	t.WriteBytes = c.RowOrder + c.RowNewOrder
	for i := 0; i < olcnt; i++ {
		item := g.rng.NURand(8191, 0, ItemCount-1)
		supplyWH := wh
		if g.warehouses > 1 && g.rng.Bool(0.01) {
			supplyWH = g.rng.Intn(g.warehouses)
		}
		t.Reads = append(t.Reads, ItemRow(item), StockRow(supplyWH, item))
		t.Writes = append(t.Writes, StockRow(supplyWH, item), g.nextInsert(TableOrderLine, wh))
		t.WriteBytes += c.RowStock + c.RowOrderLine
	}
	t.Writes = append(t.Writes, g.nextInsert(TableOrder, wh), g.nextInsert(TableNewOrder, wh))
	g.seal(t, ClassNewOrder)
	t.UserAbort = g.rng.Bool(c.NewOrderUserAbortFraction)
}

// payment: updates the warehouse (the hot, W-row table driving write-write
// conflicts), district and customer rows and inserts a history record. 15%
// of payments go to a remote warehouse; 60% select the customer by last
// name (the long variant, more processing).
func (g *Generator) payment(t *Draft, homeWH int) {
	c := g.cal
	wh := homeWH
	if g.warehouses > 1 && g.rng.Bool(c.RemoteWarehouseFraction) {
		wh = g.rng.Intn(g.warehouses)
	}
	d := g.rng.Intn(DistrictsPerWarehouse)
	cust := g.rng.NURand(1023, 0, CustomersPerDistrict-1)
	class := ClassPaymentShort
	if g.rng.Bool(c.PaymentLongFraction) {
		class = ClassPaymentLong
	}
	t.Reads = append(t.Reads, WarehouseRow(wh), DistrictRow(wh, d), CustomerRow(wh, d, cust))
	t.Writes = append(t.Writes, WarehouseRow(wh), DistrictRow(wh, d), CustomerRow(wh, d, cust), g.nextInsert(TableHistory, wh))
	t.WriteBytes = c.RowWarehouse + c.RowDistrict + c.RowCustomer + c.RowHistory
	g.seal(t, class)
}

// orderStatus: read-only; reads a customer (by name 60% of the time — the
// long variant) plus their most recent order and its lines.
func (g *Generator) orderStatus(t *Draft, wh int) {
	c := g.cal
	d := g.rng.Intn(DistrictsPerWarehouse)
	cust := g.rng.NURand(1023, 0, CustomersPerDistrict-1)
	class := ClassOrderStatusShort
	if g.rng.Bool(c.OrderStatusLongFraction) {
		class = ClassOrderStatusLong
	}
	// The last order and its lines: synthetic identifiers; reads never
	// conflict under the multi-version policy.
	order := g.rng.Int63n(1 << 32)
	t.Reads = append(t.Reads, CustomerRow(wh, d, cust), dbsm.MakeTupleID(TableOrder, uint64(order)))
	for i := 0; i < 10; i++ {
		t.Reads = append(t.Reads, dbsm.MakeTupleID(TableOrderLine, uint64(order)*16+uint64(i)))
	}
	t.ReadOnly = true
	g.seal(t, class)
}

// delivery: CPU-bound; processes each district's oldest new-order, updating
// the order and the customer's balance. The per-district new-order queue
// head is the contention point between concurrent deliveries; the carrier
// batch anchors on the district it starts from, so two deliveries conflict
// only when they start from the same district of the same warehouse.
func (g *Generator) delivery(t *Draft, wh int) {
	c := g.cal
	queue := NewOrderQueueRow(wh, g.rng.Intn(DistrictsPerWarehouse))
	t.Reads = append(t.Reads, queue)
	t.Writes = append(t.Writes, queue)
	t.WriteBytes = c.RowNewOrder
	for d := 0; d < DistrictsPerWarehouse; d++ {
		order := existingOrderRow(wh, uint64(g.rng.Int63n(1<<24)))
		cust := CustomerRow(wh, d, g.rng.NURand(1023, 0, CustomersPerDistrict-1))
		t.Reads = append(t.Reads, order, cust)
		t.Writes = append(t.Writes, order, cust)
		t.WriteBytes += c.RowOrder + 100 // balance delta, not the full row
	}
	g.seal(t, ClassDelivery)
}

// stockLevel: read-only; examines the district, recent order lines, and the
// stock of their items.
func (g *Generator) stockLevel(t *Draft, wh int) {
	d := g.rng.Intn(DistrictsPerWarehouse)
	t.Reads = append(t.Reads, DistrictRow(wh, d))
	for i := 0; i < 20; i++ {
		ol := g.rng.Int63n(1 << 32)
		t.Reads = append(t.Reads, dbsm.MakeTupleID(TableOrderLine, uint64(ol)), StockRow(wh, g.rng.Intn(ItemCount)))
	}
	t.ReadOnly = true
	g.seal(t, ClassStockLevel)
}
