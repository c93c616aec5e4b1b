package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	apiv1 "sage/api/v1"
	"sage/internal/cloud"
	"sage/internal/obs"
	"sage/internal/trace"
	"sage/internal/transfer"
)

// auditRows encodes every delivered transfer as the saged audit log line it
// becomes, with Wall left empty.
type auditRows struct{ buf bytes.Buffer }

func (a *auditRows) Observe(ev obs.Event) {
	if ev.Kind != obs.EvDelivered {
		return
	}
	rec := apiv1.AuditRecord{
		T: apiv1.Duration(ev.At), Kind: apiv1.AuditTransfer,
		Transfer: &apiv1.TransferAudit{
			JobID: ev.Job, From: ev.Site, To: ev.Peer,
			Strategy: ev.Note, Bytes: ev.Bytes, Lanes: ev.Lanes,
			PredictedMBps: ev.Predicted.MBps,
			PredictedTime: apiv1.Duration(ev.Predicted.Time),
			PredictedCost: ev.Predicted.Cost,
			ActualMBps:    ev.Actual.MBps,
			ActualTime:    apiv1.Duration(ev.Actual.Time),
			ActualCost:    ev.Actual.Cost,
			NodesUsed:     ev.Nodes,
			Replans:       ev.Replans,
		},
	}
	if err := json.NewEncoder(&a.buf).Encode(&rec); err != nil {
		panic(err)
	}
}

func fnv64(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestObservationStreamsPinned pins every byte the observability recorders
// produce — the trace JSONL, the timeline JSON, the Prometheus exposition and
// the transfer audit rows — for the resilient, preempting 3-job roster of the
// window-path matrix and for a resilient job whose sink fails over. The
// hashes were recorded once and hold at 1 and 4 shards; never re-record them
// to make a change pass.
func TestObservationStreamsPinned(t *testing.T) {
	want := map[string]string{
		"roster/trace":        "76249c9847dc1489",
		"roster/timeline":     "8b214043b111ae93",
		"roster/prometheus":   "c4fd3eff0a06a53b",
		"roster/audit":        "8f9f9b86bea47bd8",
		"failover/trace":      "aeffa75e1244897d",
		"failover/timeline":   "a71307c496cc6d92",
		"failover/prometheus": "de19383bbb134db2",
		"failover/audit":      "eac48568f34149c8",
	}
	for _, shards := range []int{1, 4} {
		for _, scen := range []string{"roster", "failover"} {
			t.Run(fmt.Sprintf("%s/shards=%d", scen, shards), func(t *testing.T) {
				rec := trace.New(1 << 18)
				ob := obs.NewObserver()
				aud := &auditRows{}
				ob.Subscribers = []obs.Subscriber{rec, aud}
				e := matrixEngine(shards, true, ob)
				if scen == "roster" {
					runRoster(t, matrixKinds[1], e)
				} else {
					// The sink dies under a replanning multipath job: failover,
					// replans and the sink's recovery all reach the recorders.
					js := matrixJob(matrixKinds[1], cloud.WestEU, cloud.SouthUS, cloud.EastUS)
					js.Sink = cloud.NorthEU
					js.Strategy = transfer.MultipathDynamic
					if _, err := e.Run(js, 4*time.Minute); err != nil {
						t.Fatal(err)
					}
				}
				var tr, tl, prom bytes.Buffer
				if err := rec.WriteJSONL(&tr); err != nil {
					t.Fatal(err)
				}
				if err := ob.Timeline.WriteJSON(&tl); err != nil {
					t.Fatal(err)
				}
				if err := ob.Metrics.WritePrometheus(&prom); err != nil {
					t.Fatal(err)
				}
				got := map[string][]byte{
					"trace": tr.Bytes(), "timeline": tl.Bytes(),
					"prometheus": prom.Bytes(), "audit": aud.buf.Bytes(),
				}
				for name, b := range got {
					if len(b) == 0 {
						t.Errorf("%s: recorded nothing", name)
					}
					if h := fnv64(b); h != want[scen+"/"+name] {
						t.Errorf("%s: hash %s (%d bytes), want %s", name, h, len(b), want[scen+"/"+name])
					}
				}
			})
		}
	}
}
