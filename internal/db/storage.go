// Package db implements the simulated database server of Section 3.1: a
// scheduler over a collection of resources (CPUs, storage) plus a
// concurrency control policy modeled on PostgreSQL's multi-version locking.
// A transaction is a processing run followed by a commit whose write-back
// goes to disk (its fetches hit the storage cache and cost no device time);
// the costs come from profiling a real database engine (see internal/tpcc
// for the calibration data).
package db

import "repro/internal/sim"

// The device is the paper's test system: a RAID-5 fibre-channel box
// sustaining 9.486 MB/s of synchronous 4 KB writes (measured with IOzone)
// with eight requests in flight. Its cache hit ratio was above 98 %,
// configured as 100 %: a transaction's fetches take no device time, and
// only write-back and bulk snapshot reads reach it.
const (
	sectorSize    = 4096      // bytes per transfer
	maxConcurrent = 8         // requests in flight
	throughputBps = 9_486_000 // sustained bytes/s
	// sectorLatency is one sector's service time, about 3.454 ms, truncated
	// to the nanosecond.
	sectorLatency = maxConcurrent * sectorSize * sim.Second / throughputBps
)

// StorageConfig has no field: the device is fixed (see sectorLatency).
// NewStorage still takes one, as it takes an RNG it does not draw from, so
// that existing callers build unchanged.
type StorageConfig struct{}

// Storage is the simulated disk: maxConcurrent service slots with a
// per-sector latency; excess requests queue.
//
// Sectors that complete at the same instant share one kernel event, which
// completes them in start order: a sector whose completion falls at the
// instant of the batch started last joins it while nothing was scheduled
// since that batch's event (Kernel.Seq). Events of their own would have run
// back to back at that place in the order, so only one order differs: an
// event that a sector's done() schedules at delay 0 with a priority above
// PriorityNormal runs after the rest of the batch, not before the next
// sector. Each sector after a batch's first is settled without an event
// (Kernel.Settle), so the kernel's Events is one per sector. Batches and
// requests are pooled, and each batch carries a completion closure bound
// once at creation — so the steady-state hot path allocates nothing per
// sector.
//
// The queue is not FIFO for a request issued from inside another's done():
// the completing sector runs done() before it starts the next queued one, so
// the new request's first sector takes the slot just freed, ahead of sectors
// already waiting (a lock grant from ReleaseCommit to a waiting remote apply,
// recovery's chained writes). Fixing it moves simulated behaviour, so it
// stays, pinned by TestStorageCompletionTrace.
type Storage struct {
	k   *sim.Kernel
	lat sim.Time // per-sector latency: sectorLatency, or more under SetSlowdown

	inFlight int
	queue    []*ioReq // one entry per sector awaiting a free slot
	qhead    int      // consumed prefix of queue (popped lazily, O(1))
	maxQueue int

	// last is the batch started most recently, seq the kernel's Seq right
	// after its event was scheduled. A sector joins it only while the
	// kernel's Seq still equals seq and its instant is still to come: a
	// batch that has run, and so may be recycled, is never joined.
	last *sectorBatch
	seq  int64

	freeBatches sim.FreeList[*sectorBatch]
	freeReqs    sim.FreeList[*ioReq]

	busyNS  int64 // integrated slot-busy time
	sectors int64
}

// ioReq tracks one multi-sector request until its last sector completes.
type ioReq struct {
	remaining int
	done      func()
}

// sectorBatch is the sectors that complete at one instant under one kernel
// event, each entry the request of one sector, in start order. A batch holds
// only its own sectors, because completion order is not start order across
// batches: a sector started after SetSlowdown restores the latency finishes
// before ones started under the slowdown. complete is bound once, when the
// batch is first allocated, and reused across recycles.
type sectorBatch struct {
	s        *Storage
	at       sim.Time
	reqs     []*ioReq
	complete func()
}

// NewStorage builds the device. Its last two arguments are unused.
func NewStorage(k *sim.Kernel, _ StorageConfig, _ *sim.RNG) *Storage {
	return &Storage{k: k, lat: sectorLatency}
}

// ReadSectors issues n whole-sector reads — used for bulk operations like
// exporting a recovery snapshot, where the pages are certainly not all
// cached; done fires when the last one completes.
func (s *Storage) ReadSectors(n int, done func()) {
	if n < 1 {
		n = 1
	}
	s.request(n, done)
}

// WriteSectors issues n whole-sector synchronous writes. Transaction
// write-back uses one sector per written row: updated tuples live on
// distinct pages, so the ext3 synchronous 4 KB writes the paper measures
// with IOzone hit one page each.
func (s *Storage) WriteSectors(n int, done func()) {
	if n < 1 {
		n = 1
	}
	s.request(n, done)
}

// request issues n sector operations and calls done when all finish.
func (s *Storage) request(n int, done func()) {
	req := s.freeReqs.Get()
	if req == nil {
		req = &ioReq{}
	}
	req.remaining = n
	req.done = done
	for i := 0; i < n; i++ {
		if s.inFlight < maxConcurrent {
			s.start(req)
		} else {
			s.queue = append(s.queue, req)
			if q := len(s.queue) - s.qhead; q > s.maxQueue {
				s.maxQueue = q
			}
		}
	}
}

// start occupies a device slot for one sector service time: the sector
// joins the batch started last when it completes at the same instant and
// nothing was scheduled since that batch's event, and starts a batch of its
// own otherwise.
func (s *Storage) start(req *ioReq) {
	s.inFlight++
	s.sectors++
	s.busyNS += int64(s.lat)
	at := s.k.Now() + s.lat
	if b := s.last; b != nil && b.at == at && s.k.Seq() == s.seq {
		b.reqs = append(b.reqs, req)
		return
	}
	b := s.freeBatches.Get()
	if b == nil {
		b = &sectorBatch{s: s}
		b.complete = b.run
	}
	b.at = at
	b.reqs = append(b.reqs, req)
	s.k.Schedule(s.lat, b.complete)
	s.last, s.seq = b, s.k.Seq()
}

// run is the batch's event: it completes the sectors in start order, each
// one's request resolving when its last sector lands and returning to the
// pool, and starts queued sectors after each. The batch returns to the pool
// once its last sector is done.
func (b *sectorBatch) run() {
	s := b.s
	s.k.Settle(int64(len(b.reqs)-1), b.at)
	for i, req := range b.reqs {
		b.reqs[i] = nil
		s.inFlight--
		req.remaining--
		if req.remaining == 0 {
			done := req.done
			req.done = nil
			s.freeReqs.Put(req)
			if done != nil {
				done()
			}
		}
		s.dispatch()
	}
	b.reqs = b.reqs[:0]
	s.freeBatches.Put(b)
}

// dispatch starts queued sectors while slots are free. The queue pops via a
// head cursor — O(1) per sector — and the backing array resets for reuse
// whenever the queue fully drains.
func (s *Storage) dispatch() {
	for s.inFlight < maxConcurrent && s.qhead < len(s.queue) {
		req := s.queue[s.qhead]
		s.queue[s.qhead] = nil
		s.qhead++
		s.start(req)
	}
	if s.qhead == len(s.queue) {
		s.queue = s.queue[:0]
		s.qhead = 0
	}
}

// SetSlowdown scales the per-sector service time by factor (gray-failure
// degradation: the device still works, just slower). factor <= 1 restores
// sectorLatency.
func (s *Storage) SetSlowdown(factor float64) {
	lat := sectorLatency
	if factor > 1 {
		lat = sim.Time(float64(lat) * factor)
	}
	s.lat = lat
}

// Sectors reports total sector operations served.
func (s *Storage) Sectors() int64 { return s.sectors }

// Utilization reports the fraction of device capacity used over elapsed
// time, as a percentage — the paper's Figure 6(b) "disk bandwidth usage".
func (s *Storage) Utilization(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return 100 * float64(s.busyNS) / (float64(elapsed) * maxConcurrent)
}
