package daemon

import (
	"io"
	"testing"
	"time"

	"sage/internal/obs"
	"sage/internal/trace"
)

// TestSpineEmitZeroAllocs: an emit on the event spine allocates nothing,
// whether nothing listens or all four recorders do — metric families (label
// handles warm), timeline, trace and the audit log. The facts that build a
// string by nature stay out: a completed window (the trace formats its
// bounds), a delivered transfer (the audit log encodes a row) and a lost
// checkpoint (its error text).
func TestSpineEmitZeroAllocs(t *testing.T) {
	facts := []obs.Event{
		{Kind: obs.EvJobStart, Job: 1},
		{Kind: obs.EvWindowClose, At: time.Minute, Job: 1, Site: "NEU", Value: 500, ID: 7},
		{Kind: obs.EvPartialShipped, At: time.Minute, Job: 1, Site: "NEU"},
		{Kind: obs.EvDispatch, At: time.Minute, Job: 1, Site: "NEU", Peer: "NUS", Bytes: 1 << 20, ID: 7},
		{Kind: obs.EvTransferStart, At: time.Minute, Job: 1, Site: "NEU", Peer: "NUS", Bytes: 1 << 20, Note: "EnvAware", ID: 3},
		{Kind: obs.EvChunkAck, At: time.Minute, Job: 1, Site: "NEU", Peer: "NUS", Bytes: 1 << 20, ID: 3},
		{Kind: obs.EvReplan, At: time.Minute, Job: 1, Site: "NEU", Peer: "NUS", Value: 1, Lanes: 2, Note: "WidestDynamic", ID: 3},
		{Kind: obs.EvTransferDone, At: time.Minute, Dur: 4 * time.Second, Job: 1, Site: "NEU", Peer: "NUS", Bytes: 1 << 20, Note: "EnvAware", ID: 3},
		{Kind: obs.EvCheckpoint, At: time.Minute, Job: 1, Site: "NUS", Bytes: 4096, ID: 2},
		{Kind: obs.EvSiteFail, At: time.Minute, Job: 1, Site: "WEU", Dur: 10 * time.Second},
	}
	all := obs.NewObserver()
	all.Subscribers = []obs.Subscriber{trace.New(1 << 10), newAuditor(io.Discard, all.Metrics)}
	observers := []struct {
		name string
		o    *obs.Observer
	}{{"nil", nil}, {"bare", &obs.Observer{}}, {"all four", all}}
	for _, ev := range facts {
		all.Emit(ev) // warm the label handles
		for _, ob := range observers {
			if n := testing.AllocsPerRun(100, func() { ob.o.Emit(ev) }); n != 0 {
				t.Errorf("%s observer, event kind %d: %v allocs/op, want 0", ob.name, ev.Kind, n)
			}
		}
	}
}
