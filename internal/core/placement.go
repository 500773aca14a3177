package core

import (
	"repro/internal/dbsm"
	"repro/internal/runtimeapi"
	"repro/internal/tpcc"
	"repro/internal/xgroup"
)

// placement is the model's one answer to "where does it live": which group a
// site belongs to, who a group's members are, which site a client attaches
// to, which tuples a site stores, and which group owns a tuple. It is a
// replica set per data item: warehouse w is homed at one site
// (xgroup.HomeSite: group w mod G, rotating over the group's members) and
// stored at the span consecutive members of that group starting there,
// cyclically. The three replication schemes are three parameter choices:
//
//   - replication groups (Config.Groups = G > 1): span = Sites, every member
//     of the owning group stores the warehouse and nobody else does;
//   - degree-k partial replication (Config.ReplicationDegree = k, the paper's
//     Section 5.2 mitigation of the read-one/write-all disk bottleneck): one
//     group, span = k — certification and total order stay global, only the
//     write-back fan-out shrinks;
//   - full replication: one group, span = Sites.
//
// Tuples without a warehouse (the shared item catalog) live everywhere and
// belong to no group.
type placement struct {
	groups, perGroup int
	span             int
	clients          int
	// unit is the number of consecutive client indices placed together. Under
	// full replication it is 1: the ten clients of one warehouse spread
	// round-robin across sites, so hot-row conflicts that local locks would
	// serialize on a single site surface as certification conflicts between
	// sites — the replication effect of Table 1. Otherwise it is a whole
	// warehouse: clients run at their home warehouse's home site, which
	// stores their data, and cross-group traffic comes only from payment's
	// remote warehouse and new-order's remote stock lines.
	unit int
	// home[b mod len(home)] is the 0-based site homing block b (a warehouse,
	// or a single client when unit is 1).
	home []int
	// at[idx] is site idx's answer, per entry of home, to both questions a
	// replica asks per tuple (stores, owner): whether the site stores the
	// warehouses homed there, and which group owns them. Both depend only on
	// the warehouse's entry of home, so a lookup is a table read.
	at [][]placed
}

// placed is what a site knows about the warehouses one entry of home homes.
type placed struct {
	group  int  // the owning group
	stored bool // stored at this site
}

func newPlacement(cfg *Config) placement {
	p := placement{groups: max(cfg.Groups, 1), perGroup: cfg.Sites, span: cfg.Sites,
		clients: cfg.Clients, unit: 1}
	if k := cfg.ReplicationDegree; k > 0 && k < cfg.Sites {
		p.span = k
	}
	if !p.everywhere() {
		p.unit = tpcc.ClientsPerWarehouse
	}
	p.home = make([]int, p.groups*p.perGroup)
	for b := range p.home {
		p.home[b] = xgroup.HomeSite(b, p.groups, p.perGroup) - 1
	}
	p.at = make([][]placed, len(p.home))
	for idx := range p.at {
		p.at[idx] = make([]placed, len(p.home))
		for b, h := range p.home {
			p.at[idx][b] = placed{
				group:  p.group(h),
				stored: p.group(h) == p.group(idx) && (idx-h+p.perGroup)%p.perGroup < p.span,
			}
		}
	}
	return p
}

// everywhere reports full replication: every site stores every tuple.
func (p *placement) everywhere() bool { return p.groups == 1 && p.span == p.perGroup }

// group maps a 0-based site index to its 1-based group.
func (p *placement) group(idx int) int { return xgroup.GroupOfSite(idx+1, p.perGroup) }

// reported is a group number as results show it: 0 when the model has a
// single group, so classic reports carry no group annotations.
func (p *placement) reported(g int) int {
	if p.groups == 1 {
		return 0
	}
	return g
}

// sitesOf reports group g's sites as a half-open range of 0-based indices.
func (p *placement) sitesOf(g int) (lo, hi int) {
	first, last := xgroup.GroupSites(g, p.perGroup)
	return first - 1, last
}

// members lists a group's node ids in ascending order.
func (p *placement) members(g int) []runtimeapi.NodeID {
	lo, hi := p.sitesOf(g)
	out := make([]runtimeapi.NodeID, 0, hi-lo)
	for idx := lo; idx < hi; idx++ {
		out = append(out, runtimeapi.NodeID(idx+1))
	}
	return out
}

// siteOfClient maps a global client index to the 0-based site it runs at.
func (p *placement) siteOfClient(i int) int { return p.home[(i/p.unit)%len(p.home)] }

// clientBlocks describes the clients attached to one site as an arithmetic
// progression of blocks — start, start+stride, start+2·stride, … — where
// block b covers the client indices [b·unit, (b+1)·unit) that exist. It is
// O(1) whatever the population: the aggregate tier indexes into it, and
// siteOfClient, which places the individual tier, is its inverse.
type clientBlocks struct{ start, stride, unit, clients int }

// clientsAt describes site idx's clients: home is a bijection over one
// period, so exactly one of its first len(home) blocks lands at idx.
func (p *placement) clientsAt(idx int) clientBlocks {
	start := 0
	for p.home[start] != idx {
		start++
	}
	return clientBlocks{start: start, stride: len(p.home), unit: p.unit, clients: p.clients}
}

// population counts the site's clients. Only the globally last block can be
// short, and it is the last block of its site's progression.
func (c clientBlocks) population() int {
	total := (c.clients + c.unit - 1) / c.unit // blocks over all sites
	if c.start >= total {
		return 0
	}
	pop := ((total-1-c.start)/c.stride + 1) * c.unit
	if (total-1)%c.stride == c.start {
		pop -= total*c.unit - c.clients
	}
	return pop
}

// client maps the site's k-th client (0 ≤ k < population) to its global
// client index.
func (c clientBlocks) client(k int) int {
	return (c.start+k/c.unit*c.stride)*c.unit + k%c.unit
}

// stores builds site idx's stored-here predicate, a read of its table, or
// nil when every site stores everything. The catalog is stored everywhere.
func (p *placement) stores(idx int) func(dbsm.TupleID) bool {
	if p.everywhere() {
		return nil
	}
	at := p.at[idx]
	return func(id dbsm.TupleID) bool {
		wh, ok := tpcc.WarehouseOf(id)
		return !ok || at[wh%len(at)].stored
	}
}

// owner builds the tuple→owning-group classifier site idx's replica splits
// certification messages with, a read of its table; the catalog classifies
// to 0 and folds into a transaction's home part.
func (p *placement) owner(idx int) func(dbsm.TupleID) int {
	at := p.at[idx]
	return func(id dbsm.TupleID) int {
		wh, ok := tpcc.WarehouseOf(id)
		if !ok {
			return 0
		}
		return at[wh%len(at)].group
	}
}
