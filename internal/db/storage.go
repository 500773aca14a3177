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
// Sector operations and their owning requests are pooled, and each pooled
// operation carries a completion closure bound once at creation — so the
// steady-state hot path allocates nothing per sector.
type Storage struct {
	k   *sim.Kernel
	cfg StorageConfig
	rng *sim.RNG
	lat sim.Time // cached per-sector latency

	inFlight int
	queue    []*sectorOp // sector operations awaiting a free slot
	qhead    int         // consumed prefix of queue (popped lazily, O(1))
	maxQueue int

	freeOps  sim.FreeList[*sectorOp]
	freeReqs sim.FreeList[*ioReq]

	busyNS  int64 // integrated slot-busy time
	sectors int64
}

// ioReq tracks one multi-sector request until its last sector completes.
type ioReq struct {
	remaining int
	done      func()
}

// sectorOp is one sector's occupancy of a device slot. fire is the
// completion event callback, bound once when the op is first allocated and
// reused across recycles.
type sectorOp struct {
	s    *Storage
	req  *ioReq
	fire func()
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
		op := s.freeOps.Get()
		if op == nil {
			op = &sectorOp{s: s}
			op.fire = op.complete
		}
		op.req = req
		if s.inFlight < s.cfg.MaxConcurrent {
			op.start()
		} else {
			s.queue = append(s.queue, op)
			if q := len(s.queue) - s.qhead; q > s.maxQueue {
				s.maxQueue = q
			}
		}
	}
}

// start occupies a device slot for one sector service time.
func (op *sectorOp) start() {
	s := op.s
	s.inFlight++
	s.sectors++
	s.busyNS += int64(s.lat)
	s.k.Schedule(s.lat, op.fire)
}

// complete finishes one sector: the owning request resolves when its last
// sector lands, and the op (and, then, the request) return to the pool.
func (op *sectorOp) complete() {
	s := op.s
	req := op.req
	op.req = nil
	s.freeOps.Put(op)
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
// head cursor — O(1) per op — and the backing array resets for reuse
// whenever the queue fully drains.
func (s *Storage) dispatch() {
	for s.inFlight < s.cfg.MaxConcurrent && s.qhead < len(s.queue) {
		op := s.queue[s.qhead]
		s.queue[s.qhead] = nil
		s.qhead++
		op.start()
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
