// Package db implements the simulated database server of Section 3.1: a
// scheduler over a collection of resources (CPUs, storage) plus a
// concurrency control policy modeled on PostgreSQL's multi-version locking.
// Transactions are sequences of fetch/process/write operations whose costs
// come from profiling a real database engine (see internal/tpcc for the
// calibration data).
package db

import "repro/internal/sim"

// StorageConfig describes the disk subsystem. The paper's test system is a
// RAID-5 fibre-channel box sustaining 9.486 MB/s of synchronous 4 KB writes
// (measured with IOzone), with a cache hit ratio above 98% configured as
// 100%.
type StorageConfig struct {
	// SectorSize is the unit of transfer (default 4096).
	SectorSize int
	// MaxConcurrent is the number of in-flight requests the device
	// sustains (default 8).
	MaxConcurrent int
	// ThroughputBps is the sustained bandwidth in bytes/s; the per-sector
	// latency is derived as MaxConcurrent*SectorSize/Throughput.
	// Default 9.486e6.
	ThroughputBps float64
	// CacheHitRatio is the probability a read is served from cache
	// without consuming storage resources (default 1.0).
	CacheHitRatio float64
}

func (c *StorageConfig) fill() {
	if c.SectorSize == 0 {
		c.SectorSize = 4096
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 8
	}
	if c.ThroughputBps == 0 {
		c.ThroughputBps = 9.486e6
	}
	if c.CacheHitRatio == 0 {
		c.CacheHitRatio = 1.0
	}
}

// Latency reports the derived per-sector service time.
func (c StorageConfig) Latency() sim.Time {
	c.fill()
	return sim.FromSeconds(float64(c.SectorSize) * float64(c.MaxConcurrent) / c.ThroughputBps)
}

// Storage is the simulated disk: a fixed number of service slots with a
// per-sector latency; excess requests queue. A cache hit ratio short-cuts
// reads.
//
// Sectors that start completing at the same instant share one kernel event:
// a sector whose completion falls at the instant of the batch started last
// joins it through Kernel.Again, so long as nothing was scheduled in
// between, and takes exactly the dispatch its own event would have had.
// Batches and requests are pooled, and each batch carries a completion
// closure bound once at creation — so the steady-state hot path allocates
// nothing per sector.
//
// The queue is not FIFO for a request issued from inside another's done():
// the completing sector runs done() before it starts the next queued one, so
// the new request's first sector takes the slot just freed, ahead of sectors
// already waiting (a lock grant from ReleaseCommit to a waiting remote apply,
// recovery's chained writes). Fixing it moves simulated behaviour, so it
// stays, pinned by TestStorageCompletionTrace.
type Storage struct {
	k   *sim.Kernel
	cfg StorageConfig
	rng *sim.RNG
	lat sim.Time // cached per-sector latency

	inFlight int
	queue    []*ioReq // one entry per sector awaiting a free slot
	qhead    int      // consumed prefix of queue (popped lazily, O(1))
	maxQueue int

	// last is the batch started most recently, id its kernel event. A sector
	// joins it only while Again(id) holds, which ends with its last sector:
	// a recycled batch is never joined.
	last *sectorBatch
	id   sim.EventID

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
// event, each entry the request of one sector, in start order: each
// dispatch of the event completes the next. A batch holds only its own
// sectors, because completion order is not start order across batches: a
// sector started after SetSlowdown restores the latency finishes before
// ones started under the slowdown. complete is bound once, when the batch
// is first allocated, and reused across recycles.
type sectorBatch struct {
	s        *Storage
	at       sim.Time
	reqs     []*ioReq
	next     int
	complete func()
}

// NewStorage builds the device.
func NewStorage(k *sim.Kernel, cfg StorageConfig, rng *sim.RNG) *Storage {
	cfg.fill()
	return &Storage{k: k, cfg: cfg, rng: rng, lat: cfg.Latency()}
}

// Read serves a single-item fetch: with probability CacheHitRatio it
// completes immediately (cache hit, reported by the return value true);
// otherwise one sector read is issued and done fires on completion.
func (s *Storage) Read(done func()) bool {
	if s.rng.Bool(s.cfg.CacheHitRatio) {
		return true
	}
	s.request(1, done)
	return false
}

// Write issues the synchronous write of n bytes (rounded up to whole
// sectors); done fires when the last sector completes.
func (s *Storage) Write(n int, done func()) {
	sectors := (n + s.cfg.SectorSize - 1) / s.cfg.SectorSize
	if sectors == 0 {
		sectors = 1
	}
	s.WriteSectors(sectors, done)
}

// ReadSectors issues n whole-sector reads that bypass the cache model —
// used for bulk operations like exporting a recovery snapshot, where the
// pages are certainly not all cached; done fires when the last one completes.
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
		if s.inFlight < s.cfg.MaxConcurrent {
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
// the kernel still lets that batch's event take one more dispatch, and
// starts a batch of its own otherwise.
func (s *Storage) start(req *ioReq) {
	s.inFlight++
	s.sectors++
	s.busyNS += int64(s.lat)
	at := s.k.Now() + s.lat
	if b := s.last; b != nil && b.at == at && s.k.Again(s.id) {
		b.reqs = append(b.reqs, req)
		return
	}
	b := s.freeBatches.Get()
	if b == nil {
		b = &sectorBatch{s: s}
		b.complete = b.completeNext
	}
	b.at = at
	b.reqs = append(b.reqs, req)
	s.last, s.id = b, s.k.Schedule(s.lat, b.complete)
}

// completeNext finishes the batch's next sector: the owning request
// resolves when its last sector lands and returns to the pool, as does the
// batch after its last sector.
func (b *sectorBatch) completeNext() {
	s := b.s
	req := b.reqs[b.next]
	b.reqs[b.next] = nil
	if b.next++; b.next == len(b.reqs) {
		b.reqs, b.next = b.reqs[:0], 0
		s.freeBatches.Put(b)
	}
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

// dispatch starts queued sectors while slots are free. The queue pops via a
// head cursor — O(1) per sector — and the backing array resets for reuse
// whenever the queue fully drains.
func (s *Storage) dispatch() {
	for s.inFlight < s.cfg.MaxConcurrent && s.qhead < len(s.queue) {
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
// the configured latency.
func (s *Storage) SetSlowdown(factor float64) {
	lat := s.cfg.Latency()
	if factor > 1 {
		lat = sim.Time(float64(lat) * factor)
	}
	s.lat = lat
}

// MaxQueueLen reports the high-water queue length.
func (s *Storage) MaxQueueLen() int { return s.maxQueue }

// Sectors reports total sector operations served.
func (s *Storage) Sectors() int64 { return s.sectors }

// Utilization reports the fraction of device capacity used over elapsed
// time, as a percentage — the paper's Figure 6(b) "disk bandwidth usage".
func (s *Storage) Utilization(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return 100 * float64(s.busyNS) / (float64(elapsed) * float64(s.cfg.MaxConcurrent))
}
