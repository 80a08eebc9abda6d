package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// MetricsHandler serves registry snapshots at one endpoint in two formats:
//
//	?format=json (default)  the indented Snapshot JSON
//	?format=prom            Prometheus text exposition (scrape-able)
//
// Content-Type follows the format; an unknown ?format= is 406 Not Acceptable
// (it used to silently fall back to JSON, which made scrape misconfiguration
// invisible). Snapshots read only atomics, so serving during a run is safe.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch format := r.URL.Query().Get("format"); format {
		case "", "json":
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(reg.Snapshot()) //nolint:errcheck // client gone
		case "prom", "prometheus":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			WritePrometheus(w, reg) //nolint:errcheck // client gone
		default:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.WriteHeader(http.StatusNotAcceptable)
			fmt.Fprintf(w, "unknown metrics format %q (want json or prom)\n", format)
		}
	})
}

// MetricsMux is the standard metrics surface: the format-dispatching
// snapshot handler at /metrics (and /, for curl convenience). Mount it on a
// dedicated port via ServeMux or merge the routes into a service mux.
func MetricsMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	h := MetricsHandler(reg)
	mux.Handle("/metrics", h)
	mux.Handle("/", h)
	return mux
}

// MountPprof attaches the standard net/http/pprof handlers under /debug/
// pprof/ on mux — the runtime introspection surface (goroutine dumps, CPU
// and heap profiles, mutex/block contention) for a live gammad or metrics
// endpoint. Callers gate the mount behind a flag: the profiles expose
// internals and cost CPU while sampling, so they are opt-in, never default.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// ServeMux starts an HTTP endpoint serving mux — MetricsMux, possibly
// extended with MountPprof behind a flag — on addr (e.g. "localhost:6060" or
// ":0" for an ephemeral port). It returns the bound address and a close
// function; the server runs until closed.
func ServeMux(addr string, mux *http.ServeMux) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: metrics listener: %w", err)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return ln.Addr().String(), func() { srv.Close() }, nil
}
