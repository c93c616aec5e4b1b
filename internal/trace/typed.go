package trace

import "time"

// This file is the typed emission API. Each constructor names one event the
// instrumented subsystems produce and takes exactly the fields that event
// carries, baking in the field conventions (what goes in Site vs Peer, what
// Value means, the canonical Note strings) that used to live informally at
// every emission site. Constructing Event literals directly at emission
// sites is deprecated: the constructors are the contract that keeps the
// JSONL wire format stable.

// NewTransferStart records a transfer of bytes leaving from toward to under
// the named strategy.
func NewTransferStart(at time.Duration, from, to string, bytes int64, strategy string) Event {
	return Event{At: at, Kind: TransferStart, Site: from, Peer: to, Bytes: bytes, Note: strategy}
}

// NewTransferDone records a completed transfer; dur is its wall time on the
// simulated clock.
func NewTransferDone(at time.Duration, from, to string, bytes int64, dur time.Duration, strategy string) Event {
	return Event{At: at, Kind: TransferDone, Site: from, Peer: to, Bytes: bytes,
		Value: dur.Seconds(), Note: strategy}
}

// NewRetransmit records a chunk being resent after attempts tries.
func NewRetransmit(at time.Duration, from, to string, bytes int64, attempts int) Event {
	return Event{At: at, Kind: Retransmit, Site: from, Peer: to, Bytes: bytes, Value: float64(attempts)}
}

// NewReplan records the count-th lane replan of the from→to transfer; reason
// is the strategy name for periodic replans or "self-heal" for loss-driven
// ones.
func NewReplan(at time.Duration, from, to string, count int, reason string) Event {
	return Event{At: at, Kind: Replan, Site: from, Peer: to, Value: float64(count), Note: reason}
}

// NewWindowComplete records sink finishing a window with the given
// end-to-end latency; window is the window's human-readable bounds.
func NewWindowComplete(at time.Duration, sink string, latency time.Duration, window string) Event {
	return Event{At: at, Kind: WindowComplete, Site: sink, Value: latency.Seconds(), Note: window}
}

// NewSiteFail records the failure detector declaring site dead after
// detect of silence.
func NewSiteFail(at time.Duration, site string, detect time.Duration) Event {
	return Event{At: at, Kind: SiteFail, Site: site, Value: detect.Seconds(), Note: "declared dead"}
}

// NewSiteRecover records site rejoining the job.
func NewSiteRecover(at time.Duration, site string) Event {
	return Event{At: at, Kind: SiteRecover, Site: site}
}

// NewBacklogDrained records the sink finishing recovery re-collection after
// dur of catch-up work; emitted as a SiteRecover on the sink.
func NewBacklogDrained(at time.Duration, sink string, dur time.Duration) Event {
	return Event{At: at, Kind: SiteRecover, Site: sink, Value: dur.Seconds(), Note: "backlog drained"}
}

// NewCheckpoint records checkpoint seq persisting bytes of encoded job state
// at the sink.
func NewCheckpoint(at time.Duration, sink string, bytes int64, seq int) Event {
	return Event{At: at, Kind: Checkpoint, Site: sink, Bytes: bytes, Value: float64(seq)}
}

// NewCheckpointDecodeFailed records a checkpoint restore failing to decode.
func NewCheckpointDecodeFailed(at time.Duration, sink string, err error) Event {
	return Event{At: at, Kind: Checkpoint, Site: sink, Note: "decode failed: " + err.Error()}
}

// NewFailoverStall records a failover attempt finding no viable sink.
func NewFailoverStall(at time.Duration, oldSink string) Event {
	return Event{At: at, Kind: Failover, Site: oldSink, Note: "no viable sink; stalling"}
}

// NewFailover records the meta-reducer role moving from oldSink to newSink.
func NewFailover(at time.Duration, oldSink, newSink string) Event {
	return Event{At: at, Kind: Failover, Site: oldSink, Peer: newSink, Note: "meta-reducer re-elected"}
}
