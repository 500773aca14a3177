// Package poolpair exercises get/put pairing and free-list hygiene.
package poolpair

import (
	"sim"
	"sync"
)

type msg struct{ data []byte }

type msgPool struct {
	free []*msg
}

func (p *msgPool) newMsg() *msg      { return &msg{} }
func (p *msgPool) recycleMsg(m *msg) {}

type sink struct{ held *msg }

func (s *sink) consume(m *msg) {}

var global *msg

// Balanced: the error path recycles, the success path hands off.
func balanced(p *msgPool, s *sink, bad bool) {
	m := p.newMsg()
	if bad {
		p.recycleMsg(m)
		return
	}
	s.consume(m)
}

// The error path strands the message.
func leakyReturn(p *msgPool, s *sink, bad bool) {
	m := p.newMsg()
	if bad {
		return // want `return without releasing pooled value from newMsg`
	}
	s.consume(m)
}

// Falling off the end without any discharge.
func leakyEnd(p *msgPool) {
	m := p.newMsg()
	_ = m.data
} // want `function ends without releasing pooled value from newMsg`

// Returning the pooled value passes ownership to the caller.
func escapes(p *msgPool) *msg {
	m := p.newMsg()
	return m
}

// A deferred recycle discharges every path.
func deferred(p *msgPool, bad bool) {
	m := p.newMsg()
	defer p.recycleMsg(m)
	if bad {
		return
	}
	_ = m.data
}

// Storing into a package-level variable defeats the pool.
func globals(p *msgPool) {
	m := p.newMsg()
	global = m // want `pooled value from newMsg stored into package-level "global"`
}

// Reassembly buffers: a byte slice is a pooled value like any other.
type bodyPool struct{ free [][]byte }

func (p *bodyPool) newBody() []byte    { return make([]byte, 0, 64) }
func (p *bodyPool) recycleBody([]byte) {}

type stream struct{ body []byte }

// Filling the buffer into the stream's state hands it off; a message that
// turns out to be cut short gives it back.
func reassemble(p *bodyPool, st *stream, chunk []byte, cut bool) {
	buf := p.newBody()
	if cut {
		p.recycleBody(buf)
		return
	}
	st.body = append(buf, chunk...)
}

// The cut-short path strands the buffer: the list drains one message at a
// time and every reassembly allocates again.
func strandedBody(p *bodyPool, st *stream, chunk []byte, cut bool) {
	buf := p.newBody()
	if cut {
		return // want `return without releasing pooled value from newBody`
	}
	st.body = append(buf, chunk...)
}

// sync.Pool Get/Put through a type assertion.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func syncPoolLeak(bad bool) {
	b := bufPool.Get().(*[]byte)
	if bad {
		return // want `return without releasing pooled value from Get`
	}
	bufPool.Put(b)
}

// sim.FreeList Get/Put: the miss branch allocates, every path then hands
// the record on or back.
type thunk struct{ fire func() }

type runtime struct{ freeThunks sim.FreeList[*thunk] }

func (r *runtime) schedule(fn func()) {}

func freeListBalanced(r *runtime, down bool) {
	th := r.freeThunks.Get()
	if th == nil {
		th = &thunk{}
	}
	if down {
		r.freeThunks.Put(th)
		return
	}
	r.schedule(th.fire)
}

func freeListLeak(r *runtime, down bool) {
	th := r.freeThunks.Get()
	if th == nil {
		th = &thunk{}
	}
	if down {
		return // want `return without releasing pooled value from Get`
	}
	r.schedule(th.fire)
}

func freeListLeakyEnd(r *runtime) {
	th := r.freeThunks.Get()
	_ = th.fire
} // want `function ends without releasing pooled value from Get`

// Get on a type that is neither is not a pool get.
type registry struct{}

func (r *registry) Get() *msg { return nil }

func notAPool(r *registry) {
	m := r.Get()
	_ = m
}

// Waived with a reason.
func waived(p *msgPool, bad bool) {
	m := p.newMsg()
	if bad {
		//lint:poolpair-ok shutdown path, the whole pool is dropped next
		return
	}
	p.recycleMsg(m)
}
