package tpcc

import (
	"repro/internal/db"
	"repro/internal/sim"
)

// Client is the single-threaded emulated user of Section 3.2: it issues a
// transaction, blocks until the server replies, pauses for a think time, and
// repeats. It logs submission time, termination time, outcome and identifier
// for every transaction through the OnDone hook.
type Client struct {
	// ID is the global client number; the home warehouse is ID/10.
	ID int
	// Server is the database site this client attaches to.
	Server *db.Server
	// Gen produces this client's transactions.
	Gen *Generator
	// Think is the mean think time.
	Think sim.Time
	// Retry governs resubmission after explicit admission rejections; the
	// zero value disables retry (a rejection is final, like an abort).
	Retry RetryPolicy
	// Stop, if set, is consulted before issuing: returning true ends the
	// client's stream (used to bound runs at N transactions).
	Stop func() bool
	// OnDone observes every finally-completed transaction — fired once per
	// transaction, after any retries have resolved, never between a
	// rejection and its resubmission.
	OnDone func(c *Client, t *db.Txn, o db.Outcome)

	retryLoop
	// cur is the one transaction a client has outstanding at a time, and txn
	// the memory it is built in: the last one, recycled once the server lets
	// go of it (db.Txn.Held).
	cur    attempt
	txn    *db.Txn
	homeWH int
	issued int64
	// fire is issue as a func value, bound once by Start: a method value
	// handed to the kernel would allocate at every think.
	fire func()

	// loadFactor > 1 compresses think times by that factor (sustained
	// saturation: the same closed population offers load as if it were
	// loadFactor times more eager).
	loadFactor float64
}

// Start begins the client's request stream. The first transaction is
// deferred by a uniform fraction of the think time, de-synchronizing
// clients.
func (c *Client) Start(k *sim.Kernel, rng *sim.RNG) {
	c.retryLoop = retryLoop{k: k, rng: rng, server: c.Server, policy: c.Retry}
	c.cur.bind(&c.retryLoop, c.resolved)
	c.homeWH = c.ID / ClientsPerWarehouse
	c.fire = c.issue
	k.Schedule(rng.UniformDur(0, c.Think), c.fire)
}

// Issued reports how many transactions this client has submitted (retries of
// a rejected transaction do not count again).
func (c *Client) Issued() int64 { return c.issued }

// SetLoadFactor scales the offered load: think times divide by f (f <= 1
// restores nominal load). The think-time draw itself is unchanged, so the
// RNG stream — and with it every other random decision — is identical across
// load factors.
func (c *Client) SetLoadFactor(f float64) { c.loadFactor = f }

// thinkDur draws the next think pause, compressed under saturation.
func (c *Client) thinkDur() sim.Time {
	d := c.rng.ExpDur(c.Think)
	if c.loadFactor > 1 {
		d = sim.Time(float64(d) / c.loadFactor)
	}
	return d
}

func (c *Client) issue() {
	if c.Stop != nil && c.Stop() {
		return
	}
	t := c.txn
	if t == nil || t.Held() {
		t = takeTxn()
		c.txn = t
	} else {
		t.Recycle()
	}
	c.Gen.NextInto(t, c.homeWH)
	c.issued++
	c.cur.submit(t)
}

// txns holds the transactions finished models' clients left (Release), for
// the next model's clients to build into: a replication does not regrow
// every client's item sets from empty.
var txns sim.Shelf[*db.Txn]

// takeTxn takes a transaction a released client left, or allocates one.
func takeTxn() *db.Txn {
	if t, ok := txns.Get(); ok {
		return t
	}
	return new(db.Txn)
}

// Release ends the client's part in its model: its transaction, unless a
// server still holds it, is unbound from that server and shelved for a
// client of the next model.
func (c *Client) Release() {
	if t := c.txn; t != nil && !t.Held() {
		t.Unbind()
		txns.Put(t)
	}
	c.txn = nil
}

// resolved receives a transaction's final outcome from the retry loop:
// report it, think, then issue the next request.
func (c *Client) resolved(t *db.Txn, o db.Outcome) {
	if c.OnDone != nil {
		c.OnDone(c, t, o)
	}
	c.k.Schedule(c.thinkDur(), c.fire)
}
