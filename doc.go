// Package repro reproduces "Testing the Dependability and Performance of
// Group Communication Based Database Replication Protocols" (Sousa, Pereira,
// Soares, Correia Jr., Rocha, Oliveira, Moura — DSN 2005).
//
// The repository implements the paper's testing tool — a centralized
// discrete-event simulation that executes real implementations of the
// Database State Machine certification procedure and of a view-synchronous
// atomic multicast stack against simulated network, database engine, and
// TPC-C traffic generator components — and regenerates every table and
// figure of the paper's evaluation, with multi-seed replication and 95%
// confidence intervals via the parallel experiment engine (internal/expr).
//
// Two termination protocol variants are implemented, selected by
// core.Config.Protocol: the paper's conservative protocol (certify on final
// total-order delivery) and an optimistic-delivery variant (the Section 7
// ongoing-work direction) that certifies on tentative, spontaneous-order
// delivery one ordering round early — dbsm.SpecCertifier holds the
// speculative state (one undo stack for the un-finalized suffix),
// internal/replica runs the two-stage pipeline, and tentative/final order
// mismatches roll back and re-certify deterministically. cmd/experiments's "protocols" subcommand reports the
// resulting certification-latency split; cmd/faultsim campaigns verify
// one-copy serializability for both variants under randomized fault
// schedules.
//
// Site liveness is an explicit lifecycle — Up → Crashed → Recovering → Up —
// owned by internal/recovery, so the dependability campaigns measure the
// recovery side the DSN'05 evaluation implies, not just survival: a crashed
// site (faults.Crash) can rejoin (faults.Recover) through a gcs join
// handshake (admission view change plus a sequencer-announced catch-up
// sequence), state-transfer a snapshot — certifier state, commit log,
// written pages — from a donor replica, and replay the deliveries buffered
// during the transfer. Safety verdicts extend across rejoin: the dead
// incarnation's log must be a prefix of the donor's at install, and a
// recovered site's log is held to full equality with the survivors' at the
// end of the run. Per-site downtime, recovery duration, transfer bytes, and
// post-rejoin commit lag surface through core.Results, the faultsim verdict
// lines, and cmd/experiments's "recovery" table. A run that stops before it
// quiesces fails its verdict as wedged, and `faultsim -replay-file F -seeds
// N` turns any run file into a failure rate with a Wilson interval, leaving
// every run's seed, verdict kind and core.Results (as JSON) in the corpus
// directory's runs.jsonl.
//
// Overload is a first-class faultload. The protection is one per-site
// admission cap: the database refuses past-capacity work with an explicit
// Rejected outcome that clients retry idempotently (same TID, deterministic
// jittered backoff). An admitted transaction stays active until its
// termination settles or a certified transaction preempts it, so the cap
// also bounds, up to preemptions, the replica's termination backlog and
// what it queues in the group communication layer. Two fault kinds drive it
// — think-time saturation and the never-suspected slow-node gray failure —
// forced into every campaign schedule by `faultsim -overload`, swept by
// cmd/experiments's "overload" table (graceful degradation vs collapse at
// 2x), and pinned by internal/core's overload tests.
// The sweep's faultload exposed a non-uniform sequencer delivery; the
// sequencer now holds self-assigned globals until a majority of the view
// acks the ordering announcement (README.md's "Overload and flow control"
// section has the details).
//
// Partial replication removes the full-replication wall the paper's Section
// 5.2 measures: core.Config.Groups splits the sites into per-warehouse
// replication groups, each with its own group-communication stack and total
// order. Groups, the paper's degree-k ReplicationDegree and full replication
// are one placement in internal/core — a replica set per warehouse: homed at
// one site, stored at a span of that site's group — which alone answers
// where sites, clients and tuples live for the assembly, the replicas and
// both client tiers (internal/xgroup holds the numbering). Single-stripe
// transactions commit through their group's order alone, so aggregate
// throughput scales with the group count; transactions spanning stripes run
// a cross-group commit round on top of the existing orders — home-ordered
// prepare, relayed and re-ordered per group, one certification vote per
// group, AND decision, with coordinator retransmits and crash handover.
// internal/check extends the safety verdict across groups (atomicity plus
// acyclic cross-group serialization), the campaign generator draws
// group-targeted faults for a config with groups, and cmd/experiments's
// "shard" table prints the scaling verdict (README.md's "Partial
// replication" section has the protocol walk-through).
//
// The emulated population scales to millions of users through the
// aggregate client tier: above core.Config.AggregateClients, per-client
// objects are replaced by one calibrated arrival process per site
// (internal/tpcc.Aggregate) — a state-dependent Poisson stream with a
// binomially-thinned warmup pool, batched into one simulation event per
// site per 10ms window, submitting through the identical
// admission/retry path individual clients use. A transaction
// is drawn (tpcc.Generator.Draw into a tpcc.Draft: every RNG draw and
// counter step) apart from being built (Generator.Build: the script — a
// processing time and a quantum — and the item sets);
// db.Server.Submit calls the db.Txn.Build hook once, on the
// attempt it admits, so a refused arrival is never built; and an arrival's
// record, like an individual client's last transaction, is reused once the
// server lets go of its transaction (db.Txn.Held) unless the stream has
// stopped. Equivalence is statistical, pinned within CI95 at
// 500 clients for both protocol variants; memory and wall clock stay
// O(sites + in-flight) to 10^6 clients (cmd/experiments's "clients" table,
// the agg1m_shed workload of bench/, and README.md's "Scaling to millions of
// clients" section).
//
// Beyond randomized campaigns, cmd/faultsim's -explore mode runs an
// adversarial search (internal/explore): fault schedules are genomes,
// coverage is a log2-bucketed fingerprint of the protocol counters the
// stacks expose (core.Results.Features), and schedules that reach new
// protocol states are mutated and spliced across generations on the
// internal/expr pool — deterministically, so the same seed and budget give
// byte-identical results at any worker count. Every UNSAFE schedule is
// delta-debugged down to a locally-minimal repro and saved as self-contained
// JSON — format version 3 is the run's core.Config whole and the verdict
// kind it must reproduce, so a replay is the run that failed whatever flags
// produced it (replayed by `faultsim -replay-file`). It is the one run-file
// format: without an expected kind the same file is a plain configuration, which
// is how dbsim and faultsim take their workload (-config configs/*.json),
// and a failing random-campaign schedule is saved the same way. The search
// cornered the residual n>=5 non-uniform delivery window documented in
// gcs/totalorder.go and surfaced the sequencer-handover renumbering
// divergence tracked in ROADMAP.md, both pinned as guarded repros under
// cmd/faultsim/testdata (README.md's "Adversarial exploration" section has
// the model and the corpus-directory convention).
//
// The simulation critical path is engineered to allocate nothing in steady
// state: certification runs against an inverted last-writer index
// (O(|ReadSet|) per transaction, differential-tested against the paper's
// history scan, which dbsm's tests keep as their reference), the
// kernel sorts only what is due soon — a pointer-free 4-ary heap over pooled
// event slots holds what is due before a ~1 ms horizon, a two-level calendar
// of ~1 ms buckets and ~4 s slots the rest, spilled into the heap bucket by
// bucket so the heap still decides every dispatch in the exact (time,
// priority, sequence) order — and the wire path has socket semantics with
// pooled buffers at every layer. A datagram belongs to its sender until Send
// returns and to its receiver only for the upcall: simnet copies a payload
// into the pooled packet that carries it (one copy per transmission, shared
// by a multicast's receivers), csrt copies an arrival into the pooled
// reception job that waits for the CPU, and gcs keeps what it needs past an
// upcall in buffers it owns — a received chunk in its pooled dataMsg until
// stability, a message in a pooled body until its delivery upcall returns
// (gcs.Delivery.Payload is valid for the upcall; a consumer copies what it
// keeps), and its own stream's chunks in a per-stack free list from cast to
// stability. Every pool of per-event records, in every layer, is a
// sim.FreeList — recycling is written once, and race builds panic on a
// record handed back twice; in gcs, dbsm, db and simnet they also fill a
// recycled buffer or item set with all-ones (sim.RaceBuild, sim.Poison). A replication pays for its transactions, not
// its setup: core.Model.Run is the model's end of life, and what the model
// sized for its run — about 4.9 KB of math/rand state per RNG stream (one
// per client, host, disk and generator), the kernel's slot and node slabs,
// each certifier's index maps and history blocks, the buffers waiting on
// each gcs stack's free lists, each client's transaction with its item-set
// arrays, each server's latency arrays and lock table, each replica's
// cross-group records and transaction table — goes to process-wide
// sim.Shelf shelves for the next core.New,
// reseeded, emptied or overwritten before it is read, so the run that takes
// it back is byte-identical to one on fresh storage. What that
// costs the host is measured by
// one command, `bash bench/run.sh all` (five workloads, eight end-to-end
// metrics, a per-layer ledger; bench/README.md holds the committed
// baseline) — profiles included, through its --trace 1 pass. Outside bench/
// and runtimeapi.Native (the paper's second bridge, run only by its own tests
// and gcs/native_test.go), nothing reads the host clock, and no command reads
// it at all: what dbsim, faultsim and experiments print is a pure function
// of their flags and run files, so the whole evaluation is pinned by
// cmd/experiments/testdata/all.golden, faultsim's verdict lines — five short
// campaigns and the fixed matrix — by cmd/faultsim/testdata/*.golden, a
// dbsim report by cmd/dbsim/testdata/smoke.golden, and the simdeterminism
// rule in internal/lint covers those three commands.
//
// A protocol counter is declared once: in gcs.Stats or replica.Stats, where
// the layer increments it in place. core.Results carries both structs whole
// (replica.Stats embedded, gcs.Stats as GCS), one reflection-driven fold in
// internal/core merges sites and crash-rebuilt incarnations (sum, or max
// for the two tagged peak gauges), and core.Aggregate computes a mean ± CI
// column only when a table asks Stat for it — so adding a counter edits the
// Stats struct and its increment, nothing in between.
//
// Two invariants — deterministic packages and silent-drop accounting — are
// enforced mechanically by two rules in the one package internal/lint,
// whose loader the tier-1 test TestAnalyzeCleanTree runs over the module and
// the fixture tests run over internal/lint/testdata (README.md's "Static
// analysis" section documents the rules and the //lint:<rule>-ok waiver
// syntax). The rest are checked by running the code: allocation-free hot
// paths by testing.AllocsPerRun pins, pooled records by sim.FreeList's
// count of what it has lent, which each owner's tests hold at zero once
// its work drains, and the wire's read-only rule at the event: race builds
// digest every packet's payload at simnet's Send/Multicast and panic at the
// first arrival that sees a receiver changed it, naming the sender, the
// packet and the receiver.
//
// See README.md and the per-package documentation under internal/.
package repro
