//go:build race

package sim

// RaceBuild is true in `go test -race` builds and false otherwise, so every
// check it arms costs nothing outside them. It arms, across the tree:
//
//   - FreeList.Put panics on a value already on the list (a record
//     recycled twice);
//   - simnet digests each packet's payload at Send/Multicast, re-checks it
//     at every arrival and the last release (a receiver that wrote it
//     panics), then fills the buffer with all-ones;
//   - gcs fills every buffer it recycles — a delivered body, a stable chunk
//     of the own stream, a received chunk's dataMsg — with all-ones;
//   - dbsm's UnmarshalFrom fills the record's reused sets with all-ones
//     before decoding into them;
//   - db's Txn.Recycle fills the transaction's old sets with all-ones;
//   - replica's xmgr recomputes its reservation table from pending after
//     every prepare and decide delivery (checkActive).
//
// A reader that kept a recycled buffer or set past its owner's reuse thus
// reads garbage in every race run instead of another record's bytes once in
// a while.
const RaceBuild = true
