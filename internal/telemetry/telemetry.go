// Package telemetry is the observability layer over a run's one firing
// record, the commit-ordered schedule the engines hand to their
// Options.Schedule recorder (package replay). Everything here is a view of
// that record or of what a run returned, computed after the run:
//
//   - a registry of atomic counters, gauges and latency histograms
//     (registry.go), which replay's run-end folds fill from a run's
//     Stats/Result and its schedule, and which a service also keeps live;
//   - a Timeline of one span per recorded firing, packed into lanes that
//     never overlap, exported as Chrome trace-event JSON (loadable in
//     Perfetto) or as JSONL (export.go);
//   - the trace Formats a schedule is written in (export.go; the provenance
//     DOT of the firing DAG is replay.Schedule.WriteDOT);
//   - the Prometheus exposition, the live JSON and SSE endpoints (prom.go,
//     http.go).
//
// There is no second per-firing observer: the engines import nothing from
// here, so an untraced run pays nothing, and a traced run's trace holds every
// firing.
//
// Concurrency contract: the Registry is safe for arbitrary concurrent use
// and its snapshots may be taken live (gammad's metrics endpoint does);
// a Timeline is a single-goroutine fold.
package telemetry
