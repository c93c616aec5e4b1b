package core

import (
	"time"

	"sage/internal/cloud"
	"sage/internal/model"
	"sage/internal/monitor"
	"sage/internal/netsim"
	"sage/internal/obs"
	"sage/internal/trace"
	"sage/internal/transfer"
)

// Option configures engine construction. Options compose left to right:
// NewEngine(WithSeed(3), WithObservability(o)). The Options struct stays the
// underlying carrier, so a fully built struct passes through WithOptions and
// individual fields layer on top of it.
type Option func(*Options)

// WithOptions replaces the whole carrier struct. Use it to migrate a call
// site that already builds an Options value; later options still apply on
// top.
func WithOptions(o Options) Option { return func(dst *Options) { *dst = o } }

// WithSeed sets the root random seed.
func WithSeed(seed uint64) Option { return func(o *Options) { o.Seed = seed } }

// WithTopology sets the cloud topology.
func WithTopology(t *cloud.Topology) Option { return func(o *Options) { o.Topology = t } }

// WithNet tunes the network simulator.
func WithNet(n netsim.Options) Option { return func(o *Options) { o.Net = n } }

// WithMonitor tunes the monitoring service.
func WithMonitor(m monitor.Options) Option { return func(o *Options) { o.Monitor = m } }

// WithTransfer tunes the transfer service.
func WithTransfer(t transfer.Options) Option { return func(o *Options) { o.Transfer = t } }

// WithParams sets the cost/time model calibration.
func WithParams(p model.Params) Option { return func(o *Options) { o.Params = p } }

// WithTrace attaches a trace recorder to the run.
func WithTrace(r *trace.Recorder) Option { return func(o *Options) { o.Trace = r } }

// WithObservability attaches the unified observability layer: the observer's
// metrics registry and span timeline are wired through every subsystem. Nil
// (the default) disables the layer with zero behavioral or allocation cost.
func WithObservability(ob *obs.Observer) Option { return func(o *Options) { o.Obs = ob } }

// WithAuditSink attaches a planner-decision audit sink: one TransferDone
// record per completed partial transfer, carrying the predicted throughput,
// time and cost frozen at dispatch next to the actual outcome. Nil (the
// default) disables auditing at zero cost. The sink must not re-enter the
// engine; predictions are computed from pure model/monitor reads, so the
// simulation is byte-identical with and without a sink.
func WithAuditSink(a AuditSink) Option { return func(o *Options) { o.Audit = a } }

// WithShards sets the event-core shard count: n > 1 stages the pure half of
// window processing on n workers at once, each source's generator dealt
// round-robin to one of 8n executor shards that the workers claim one at a
// time, under a conservative lookahead barrier (minimum WAN RTT),
// with commits replayed in exact sequential order — output stays
// byte-identical to a 1-shard engine. 1 keeps the fused single-threaded core;
// 0, the default, is one shard per core (runtime.GOMAXPROCS(0)).
func WithShards(n int) Option { return func(o *Options) { o.Shards = n } }

// WithCheckpointInterval arms the resilience subsystem for every job started
// on the engine that does not carry its own Resilience config, checkpointing
// at the given interval. Zero (the default) leaves jobs non-resilient unless
// their spec says otherwise.
func WithCheckpointInterval(d time.Duration) Option {
	return func(o *Options) { o.DefaultCheckpointInterval = d }
}
