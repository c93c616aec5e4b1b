// Package resilience gives SAGE jobs a failure-survival story on top of the
// fault-injection substrate the simulator already has. It provides the three
// mechanisms a geo-distributed streaming job needs to outlive a site outage
// without restarting from scratch:
//
//   - periodic checkpointing of distributed job state — per-site
//     window/keyed-aggregate partials, the sink's merged state, and the
//     chunk-level ledgers of in-flight transfers — snapshotted in virtual
//     time with a deterministic binary serialization (Checkpoint);
//   - heartbeat-based failure detection with configurable interval and
//     suspect→dead transitions, recording its samples through the monitor's
//     history machinery (Detector);
//   - a widest-path sink-failover planner (PlanFailover) for recovery
//     orchestration. The orchestration itself — with each source's batch
//     log for gap replay — lives in internal/core, which owns the job state
//     being recovered.
//
// Everything here is deterministic: no randomness, sorted iteration, and all
// timing derived from the simulation scheduler, so a run with resilience
// enabled is exactly reproducible and a run with it disabled is byte-
// identical to one built before this package existed.
package resilience

import (
	"time"
)

// Config tunes the resilience machinery for one job. The zero value is
// usable: detection on with default timing, checkpointing off.
type Config struct {
	// CheckpointInterval is the virtual-time period between checkpoints.
	// 0 disables checkpointing: failures are still detected and lost work
	// replayed, but recovery restores from nothing, so everything the batch
	// log retains for the failed site is re-shipped.
	CheckpointInterval time.Duration
	// HeartbeatInterval is the detector's probe period (default 5s).
	HeartbeatInterval time.Duration
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 5 * time.Second
	}
	return c
}

// The detector's thresholds: suspectMisses consecutive missed heartbeats
// move a site to Suspect, DeadMisses declare it Dead. Each site keeps its
// last heartbeatHistory heartbeat samples.
const (
	suspectMisses    = 1
	DeadMisses       = 2
	heartbeatHistory = 128
)

// Metrics aggregates what the resilience machinery did during one job run.
type Metrics struct {
	// Checkpoints counts snapshots taken; CheckpointBytes sums their encoded
	// sizes and LastCheckpointBytes is the most recent one's.
	Checkpoints         int
	CheckpointBytes     int64
	LastCheckpointBytes int64
	// Failures / Recoveries / Failovers count Dead declarations, returns to
	// Alive, and sink re-elections affecting this job.
	Failures   int
	Recoveries int
	Failovers  int
	// DetectTime is the modeled failure→Dead detection latency (max over
	// failures); RecoveryTime sums, per recovery, the virtual time from the
	// site's return (or the failover decision) until the replayed backlog
	// fully re-arrived at the sink.
	DetectTime   time.Duration
	RecoveryTime time.Duration
	// ReplayedWindows / ReplayedEvents count work re-done from the batch
	// log.
	ReplayedWindows int
	ReplayedEvents  int64
	// ResumedTransfers counts transfers restarted from a checkpointed
	// ledger; SkippedBytes are chunk bytes those resumptions did not re-send.
	ResumedTransfers int
	SkippedBytes     int64
	// DuplicateBytes is the duplicate work the failure caused: re-shipped
	// partials the sink had already acknowledged plus in-flight transfer
	// progress that had to be re-sent because no checkpoint recorded it.
	DuplicateBytes int64
}
