// Package baseline implements the comparison systems SAGE is evaluated
// against. None of them consult the monitor or the cost/time model:
//
//   - BlobRelay: staging through the provider's object store — the source
//     writes each file to storage over HTTP, the destination then reads it.
//     Two wide-area-facing phases, per-request protocol overhead, and a
//     storage fee. This was the only cloud-native option for inter-site
//     data movement, and the slowest.
//   - Direct endpoint-to-endpoint and statically tuned parallel transfers
//     are provided by the transfer package itself (transfer.Direct,
//     transfer.ParallelStatic); harness code uses those directly.
//   - Centralized streaming (ship every raw event to the sink) is the
//     core.JobSpec.ShipRaw mode.
package baseline

import (
	"errors"
	"time"

	"sage/internal/cloud"
	"sage/internal/netsim"
)

// BlobStore models an object-storage service hosted in one site.
type BlobStore struct {
	net  *netsim.Network
	site cloud.SiteID
	// frontends are the storage service's ingestion nodes.
	frontends []*netsim.Node
	next      int
	opt       BlobOptions
}

// BlobOptions tunes the storage model.
type BlobOptions struct {
	// Frontends is the number of storage frontend nodes (default 4).
	Frontends int
	// RequestOverhead is the fixed HTTP/auth cost per request
	// (default 120ms), charged on every put and every get.
	RequestOverhead time.Duration
	// HTTPFactor derates achievable throughput relative to raw TCP
	// (default 0.7): headers, chunked encoding, server-side replication.
	HTTPFactor float64
	// PricePerGBOp is the storage fee charged per GB written (default
	// $0.01, a coarse stand-in for transactions + short-term storage).
	PricePerGBOp float64
}

func (o BlobOptions) withDefaults() BlobOptions {
	if o.Frontends <= 0 {
		o.Frontends = 4
	}
	if o.RequestOverhead <= 0 {
		o.RequestOverhead = 120 * time.Millisecond
	}
	if o.HTTPFactor <= 0 {
		o.HTTPFactor = 0.7
	}
	if o.PricePerGBOp <= 0 {
		o.PricePerGBOp = 0.01
	}
	return o
}

// NewBlobStore provisions a storage service in the given site. Frontend
// nodes are XLarge, as real storage services run on fat hardware.
func NewBlobStore(net *netsim.Network, site cloud.SiteID, opt BlobOptions) *BlobStore {
	opt = opt.withDefaults()
	return &BlobStore{
		net:       net,
		site:      site,
		frontends: net.NewNodes(site, cloud.XLarge, opt.Frontends),
		opt:       opt,
	}
}

func (b *BlobStore) frontend() *netsim.Node {
	f := b.frontends[b.next%len(b.frontends)]
	b.next++
	return f
}

// Put writes size bytes from the client node into the store; onDone fires
// when the object is durable.
func (b *BlobStore) Put(client *netsim.Node, size int64, onDone func()) {
	fe := b.frontend()
	sched := b.net.Scheduler()
	sched.After(b.opt.RequestOverhead, func() {
		cap := client.Class.NICMBps * b.opt.HTTPFactor
		b.net.StartFlow(client, fe, size, netsim.FlowOpts{CapMBps: cap}, func(f *netsim.Flow) {
			onDone()
		})
	})
}

// Get reads size bytes from the store into the client node.
func (b *BlobStore) Get(client *netsim.Node, size int64, onDone func()) {
	fe := b.frontend()
	sched := b.net.Scheduler()
	sched.After(b.opt.RequestOverhead, func() {
		cap := client.Class.NICMBps * b.opt.HTTPFactor
		b.net.StartFlow(fe, client, size, netsim.FlowOpts{CapMBps: cap}, func(f *netsim.Flow) {
			onDone()
		})
	})
}

// RelayResult reports a completed relay transfer.
type RelayResult struct {
	Bytes    int64
	Files    int
	Duration time.Duration
	// Cost covers egress out of the source site, the storage fee, and the
	// client VM time (at full occupancy: blob staging has no
	// intrusiveness control).
	Cost float64
}

// RelaySpec describes moving files from src to dst via the store: src puts
// every file, dst gets every file once it is durable. Parallel bounds the
// number of files in flight per phase.
type RelaySpec struct {
	Src, Dst  *netsim.Node
	Files     int
	FileBytes int64
	Parallel  int
}

// Relay executes the staging pattern and reports via onDone. Each file is
// an independent put followed by a get — the two-phase, HTTP-fronted path
// whose latency the comparison experiments quantify.
func (b *BlobStore) Relay(spec RelaySpec, onDone func(RelayResult)) error {
	if spec.Files <= 0 || spec.FileBytes <= 0 {
		return errors.New("baseline: relay needs files and a file size")
	}
	if spec.Parallel <= 0 {
		spec.Parallel = 1
	}
	sched := b.net.Scheduler()
	start := sched.Now()
	nextFile := 0
	doneFiles := 0
	var launch func()
	finishOne := func() {
		doneFiles++
		if doneFiles == spec.Files {
			dur := sched.Now() - start
			topo := b.net.Topology()
			cost := 0.0
			if s := topo.Site(spec.Src.Site); s != nil && spec.Src.Site != b.site {
				cost += cloud.EgressCost(s, int64(spec.Files)*spec.FileBytes)
			}
			if s := topo.Site(b.site); s != nil && b.site != spec.Dst.Site {
				cost += cloud.EgressCost(s, int64(spec.Files)*spec.FileBytes)
			}
			cost += b.opt.PricePerGBOp * float64(int64(spec.Files)*spec.FileBytes) / (1 << 30)
			cost += spec.Src.Class.PricePerHour * dur.Hours()
			cost += spec.Dst.Class.PricePerHour * dur.Hours()
			onDone(RelayResult{
				Bytes:    int64(spec.Files) * spec.FileBytes,
				Files:    spec.Files,
				Duration: dur,
				Cost:     cost,
			})
			return
		}
		launch()
	}
	launch = func() {
		if nextFile >= spec.Files {
			return
		}
		nextFile++
		b.Put(spec.Src, spec.FileBytes, func() {
			b.Get(spec.Dst, spec.FileBytes, finishOne)
		})
	}
	inFlight := spec.Parallel
	if inFlight > spec.Files {
		inFlight = spec.Files
	}
	for i := 0; i < inFlight; i++ {
		launch()
	}
	return nil
}

// StageTime measures one synchronous put of size bytes from the client —
// the "writing to cloud storage" probe of the variability experiment. It
// returns via onDone with the elapsed staging duration.
func (b *BlobStore) StageTime(client *netsim.Node, size int64, onDone func(time.Duration)) {
	start := b.net.Scheduler().Now()
	b.Put(client, size, func() {
		onDone(b.net.Scheduler().Now() - start)
	})
}
