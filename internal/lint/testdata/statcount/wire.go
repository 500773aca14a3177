// Package statcount exercises the silent-drop accounting rule.
package statcount

import (
	"errors"
	"sync/atomic"
)

var errTruncated = errors.New("truncated")

type stats struct {
	ParseErrors int
	dropped     int64
}

type endpoint struct {
	stats stats
	last  []byte
}

func parseHeader(b []byte) (int, error) {
	if len(b) < 4 {
		return 0, errTruncated
	}
	return int(b[0]), nil
}

func (e *endpoint) Unmarshal(b []byte) error {
	if len(b) == 0 {
		return errTruncated
	}
	e.last = b
	return nil
}

// PeekTID mimics the tentative-stage probe.
func PeekTID(b []byte) (uint64, error) {
	if len(b) < 8 {
		return 0, errTruncated
	}
	return uint64(b[0]), nil
}

// ParseVote mimics xgroup's exported relay parsers: Parse* over a []byte.
func ParseVote(b []byte) (uint64, bool, error) {
	if len(b) < 9 {
		return 0, false, errTruncated
	}
	return uint64(b[0]), b[8] != 0, nil
}

// ParseLevel is Parse* over a string — configuration, not wire bytes.
func ParseLevel(s string) (int, error) {
	if s == "" {
		return 0, errTruncated
	}
	return len(s), nil
}

// helper is not decode-shaped: name does not match.
func helper(b []byte) error {
	if len(b) == 0 {
		return errTruncated
	}
	return nil
}

// Counting the drop satisfies the rule.
func (e *endpoint) recvCounted(b []byte) {
	n, err := parseHeader(b)
	if err != nil {
		e.stats.ParseErrors++
		return
	}
	_ = n
}

// Propagating the error satisfies the rule.
func (e *endpoint) recvPropagate(b []byte) error {
	if err := e.Unmarshal(b); err != nil {
		return err
	}
	return nil
}

// Wrapped propagation still mentions err.
func (e *endpoint) recvWrapped(b []byte) error {
	_, err := PeekTID(b)
	if err != nil {
		return errors.Join(errTruncated, err)
	}
	return nil
}

// Atomic counters count too.
func (e *endpoint) recvAtomic(b []byte) {
	if err := e.Unmarshal(b); err != nil {
		atomic.AddInt64(&e.stats.dropped, 1)
		return
	}
}

// Compound-assign counters count too.
func (e *endpoint) recvCompound(b []byte) {
	if _, err := parseHeader(b); err != nil {
		e.stats.ParseErrors += 1
		return
	}
}

// A silent early return on the error path is the bug this rule exists for.
func (e *endpoint) recvSilent(b []byte) {
	n, err := parseHeader(b) // want `error path of parseHeader drops the message silently`
	if err != nil {
		return
	}
	_ = n
}

// Discarding the error into _ is just as silent.
func (e *endpoint) recvBlank(b []byte) {
	_, _ = parseHeader(b) // want `decode error of parseHeader discarded into _`
}

// Dropping the whole result list.
func (e *endpoint) recvDropped(b []byte) {
	e.Unmarshal(b) // want `decode result of Unmarshal discarded`
}

// Binding err but never looking at it.
func (e *endpoint) recvUnchecked(b []byte) int {
	n, err := parseHeader(b) // want `decode error of parseHeader is never checked`
	_ = err
	return n
}

// if err == nil with no else: the error evaporates.
func (e *endpoint) recvHappyOnly(b []byte) {
	n, err := parseHeader(b) // want `decode error of parseHeader has no error branch`
	if err == nil {
		_ = n
	}
}

// if err == nil with an else that counts is fine.
func (e *endpoint) recvInverted(b []byte) {
	n, err := parseHeader(b)
	if err == nil {
		_ = n
	} else {
		e.stats.ParseErrors++
	}
}

// panic on the error path is loud enough.
func (e *endpoint) recvPanic(b []byte) {
	if err := e.Unmarshal(b); err != nil {
		panic(err)
	}
}

// Non-decode callees are out of scope even when the error is dropped.
func (e *endpoint) recvHelper(b []byte) {
	_ = helper(b)
	_, _ = ParseLevel(string(b))
}

// An exported Parse* over wire bytes falls under the rule: silent is a bug,
func (e *endpoint) recvVoteSilent(b []byte) {
	tid, _, err := ParseVote(b) // want `error path of ParseVote drops the message silently`
	if err != nil {
		return
	}
	_ = tid
}

// and counting satisfies it.
func (e *endpoint) recvVoteCounted(b []byte) {
	tid, _, err := ParseVote(b)
	if err != nil {
		e.stats.ParseErrors++
		return
	}
	_ = tid
}

// Waived with a reason: the tentative stage already counted this drop.
func (e *endpoint) recvWaived(b []byte) {
	//lint:statcount-ok tentative stage already counted this drop
	_, err := PeekTID(b)
	if err != nil {
		return
	}
}

// A waiver without a reason still waives its line, but is a finding itself.
// The expectation is a block comment: a line comment after the directive
// would become its reason.
func (e *endpoint) recvBareWaiver(b []byte) {
	e.Unmarshal(b) /* want `//lint:statcount-ok directive requires a reason` */ //lint:statcount-ok
}
