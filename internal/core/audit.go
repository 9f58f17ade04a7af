package core

// Audit sampling hooks: one consistent cut of a replica's full account
// state, cheap enough to take repeatedly while the system runs. The
// invariant auditor (internal/sim) samples these across all replicas and
// checks conservation-of-money, per-client FIFO, no-duplicate-settle, and
// cross-replica agreement without stopping traffic.

// AuditExport captures every materialized account under all stripe locks
// — one consistent cut (no export observes a half-applied transfer),
// sorted by client. This is the same image the WAL snapshot and
// reconfiguration state transfer serialize.
func (r *Replica) AuditExport() []AccountExport {
	return r.state.ExportAccounts()
}

// DecodeAuditAccounts parses the account section out of a replica's full
// snapshot (the FullSnapshot / reconfig state-transfer encoding). It is
// how out-of-process auditors — the TCP chaos harness, astro-client's
// audit command — turn a fetched remote snapshot into the same
// AccountExport view that in-process auditing reads directly.
func DecodeAuditAccounts(snapshot []byte) ([]AccountExport, error) {
	img, err := decodeReplicaImage(snapshot)
	if err != nil {
		return nil, err
	}
	return img.accounts, nil
}
