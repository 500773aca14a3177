package gcs

// This file holds the mitigation knobs for the sequencer bottleneck the
// paper identifies in Section 5.3: "The problem is mitigated by increasing
// available buffer space or by allocating a dedicated sequencer process. In
// the future, it should be solved by avoiding the centralized sequencer."
//
// Increasing buffer space is Config.BufferBytes. A dedicated sequencer is a
// group member that orders messages but originates no application traffic;
// its buffer share then carries only ordering messages. The core model
// builds such a member when core.Config.DedicatedSequencer is set; at this
// layer it is simply a member that never calls Multicast, so no protocol
// change is needed — but the stack exposes accounting that makes the
// mitigation measurable.

// SequencerLoad reports how much of this member's unstable buffer is
// consumed right now and by how many messages, enabling the buffer-share
// analysis of Section 5.3.
func (s *Stack) SequencerLoad() (bytes, share int, msgs int) {
	return s.rm.sendBufBytes, s.rm.share(), len(s.rm.sendBuf)
}

// StabilityState exposes the gossip round state for diagnosis.
func (s *Stack) StabilityState() (round uint64, voters uint32, mSelf, sSelf uint64) {
	return s.stab.round, s.stab.w, s.stab.m[s.cfg.Self], s.stab.stable[s.cfg.Self]
}
