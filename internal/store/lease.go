package store

import "encoding/json"

// Lease journal record types. When a daemon coordinates a cluster, the
// serving layer journals every lease grant and expiry alongside its job
// lifecycle records, so a restarted coordinator can tell which runs
// were out on workers at the crash. Replay code that predates these
// types skips them (unknown "t" values are ignored by design), and
// compaction drops them: a lease is meaningful only while the run it
// covers is unresolved, and recovery requeues those runs anyway.
const (
	// RecLeaseGranted marks a run dispatched to a worker under a lease.
	RecLeaseGranted = "lease_granted"
	// RecLeaseExpired marks that lease lapsing (worker death or
	// heartbeat loss) and the run's return to the scheduler.
	RecLeaseExpired = "lease_expired"
)

// LeaseRecord is the wire form of one lease journal entry. It shares
// the "t"/"job"/"run" keys with the serving layer's job records so one
// decoder pass can dispatch on Type across both families.
type LeaseRecord struct {
	Type   string `json:"t"`
	Job    string `json:"job"`
	Run    int    `json:"run"`
	Hash   string `json:"hash,omitempty"`
	Worker string `json:"worker,omitempty"`
	// Epoch is the lease's fencing token (monotonic across every grant a
	// coordinator makes), journaled so operators can reconstruct custody
	// order when reading a chaotic campaign's trail.
	Epoch int64 `json:"epoch,omitempty"`
	// ExpiresUnixMS is the lease deadline, for operators reading the
	// journal; replay only needs the grant/expiry pairing.
	ExpiresUnixMS int64 `json:"expires_unix_ms,omitempty"`
}

// Marshal encodes the record for Journal.Append.
func (r LeaseRecord) Marshal() ([]byte, error) { return json.Marshal(r) }
