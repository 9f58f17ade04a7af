// Package wal provides durable replica state: an append-only, CRC-framed,
// fsync-batched write-ahead log with periodic compacted snapshots, behind a
// pluggable Backend interface.
//
// The replication layer (internal/core) records its externally visible
// commitments here — endorsements granted, batches broadcast, batches
// settled, dependency certificates accumulated — so that a replica killed
// without warning (kill -9, power loss) can restart from its data directory
// without violating the protocol's safety argument, which assumes replicas
// remember what they endorsed.
//
// # Durability contract
//
// A record is durable once the Sync that covers it returns. The file
// backend buffers appended records in memory and writes + fsyncs them as
// one batch on Sync; the Writer issues that Sync from a dedicated scheduler
// flow whenever the append queue drains (tail sync), so one fsync amortizes
// across a settlement wave instead of stalling settle lanes per record.
//
// What is fsynced when:
//
//   - Broadcast-slot reservations (a batch about to be broadcast under a
//     slot) are fsynced *before* the first wire message of that broadcast
//     leaves the replica — Writer.Barrier blocks until the covering Sync
//     completes. This is the one synchronous point in the hot path: without
//     it, a crash between send and fsync would let the restarted replica
//     reuse the slot for a different batch, which its peers (remembering
//     the first digest) would silently refuse.
//   - Endorsements and settled batches are appended asynchronously and
//     reach disk at the next tail sync or Barrier. An endorsement ack may
//     therefore be on the wire before its record is durable; the window is
//     one Sync batch. See "Residual windows" below. An endorsement record
//     lists the endorsed batch's not-yet-settled payments, 32 bytes each;
//     once a payment settles, the settled-batch record (and later the
//     snapshot's xlog) is what remembers it, so neither the log nor the
//     snapshot keeps endorsements for longer than they are in flight.
//   - Snapshots are written to a temporary file, fsynced, atomically
//     renamed over the previous snapshot, the directory fsynced, and only
//     then is the log truncated. A crash between rename and truncate
//     leaves a new snapshot plus a stale log tail whose records are all
//     covered by the snapshot; replay of those records is idempotent.
//
// # Torn tails
//
// Every record is framed as
//
//	[u32 length][u32 crc32c][u8 kind][payload]
//
// with length = 1+len(payload) and the CRC (Castagnoli) computed over
// kind||payload. On Load the file backend replays frames in order and stops
// at the first incomplete or CRC-mismatching frame, truncating the file to
// the last valid prefix. A torn tail therefore means exactly this: the
// final Sync batch was interrupted mid-write, and every record in it is
// discarded as if the crash had happened just before that Sync. Because
// the upper layer orders its appends so that no record is acted on
// externally before the Sync covering it returns (the Barrier points
// above), dropping a torn suffix never forgets a commitment that reached
// the network.
//
// # Residual windows
//
// Two pieces of state are deliberately not covered:
//
//   - Endorsement records are appended before the ack is signed but their
//     fsync is asynchronous; a crash inside that window can forget an
//     endorsement whose ack reached the spender. The restarted replica
//     then refuses (ignores) a conflicting re-endorsement rather than
//     granting one — recovery merges endorsement memory from the log only
//     and never adopts it from peers, so the failure mode is liveness
//     (one lost ack among 2f+1) rather than safety.
//   - The broadcast layer's ack memory for *other* replicas' slots is not
//     persisted. After restart the replica may re-ack a slot it acked
//     before crashing; acks are deterministic over (origin, slot, digest),
//     so the re-ack is byte-identical and harmless.
//
// # Backends
//
// FileBackend stores one directory per replica: a log file and a snapshot
// file, managed as above. Nop discards everything and reports success; it
// keeps the full append/flow/Sync code path live with zero I/O, which is
// the measured baseline for the durability overhead (a nil Backend in
// core.Config disables the subsystem entirely, preserving the original
// memory-only behavior).
package wal
