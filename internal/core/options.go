package core

import "sage/internal/obs"

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

// WithObservability attaches the unified observability layer: every engine
// fact is emitted on the observer's event spine, which feeds its metrics
// registry, span timeline and subscribers (a trace, an audit log). Nil (the
// default) disables the layer; the simulation is identical either way.
func WithObservability(ob *obs.Observer) Option { return func(o *Options) { o.Obs = ob } }

// WithShards sets the event-core shard count: n > 1 stages the pure half of
// window processing on n workers at once, each source's generator dealt
// round-robin to one of 8n executor shards that the workers claim one at a
// time, under a conservative lookahead barrier (minimum WAN RTT),
// with commits replayed in exact sequential order — output stays
// byte-identical to a 1-shard engine. 1 keeps the fused single-threaded core;
// 0, the default, is one shard per core (runtime.GOMAXPROCS(0)).
func WithShards(n int) Option { return func(o *Options) { o.Shards = n } }
