// Package freelist exercises the one free-list rule: outside package sim a
// free list is a sim.FreeList, not a slice popped by hand.
package freelist

import "sim"

type job struct{ fn func() }

type sched struct {
	freeJobs sim.FreeList[*job] // the one implementation: clean
	freeHand []*job             // the idiom, written out again
	pending  []*job             // not a free list by name: a queue may reslice
}

func (s *sched) take() *job {
	j := s.freeJobs.Get()
	if j == nil {
		j = &job{}
	}
	return j
}

func (s *sched) give(j *job) { s.freeJobs.Put(j) }

func (s *sched) takeHand() *job {
	if n := len(s.freeHand); n > 0 {
		j := s.freeHand[n-1]
		s.freeHand[n-1] = nil
		s.freeHand = s.freeHand[:n-1] // want `free list freeHand is popped by hand: use sim.FreeList`
		return j
	}
	return &job{}
}

func (s *sched) giveHand(j *job) { s.freeHand = append(s.freeHand, j) }

func (s *sched) next() *job {
	j := s.pending[0]
	s.pending = s.pending[1:]
	return j
}
