package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/cli"
	"repro/internal/rt"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/runs              submit a schema.RunRequest; 202 + RunResponse
//	                             (?wait=true blocks for the terminal state)
//	GET    /v1/runs/{id}         poll a run; 200 + RunResponse
//	DELETE /v1/runs/{id}         cancel a run; 202 + RunResponse
//	GET    /v1/runs/{id}/trace   a traced terminal run's trace;
//	                             ?format=perfetto (default) | jsonl | dot |
//	                             schedule (the executable replay schedule)
//	POST   /v1/replay            re-execute a schema.ReplayRequest schedule;
//	                             200 + ReplayResponse (divergence inside)
//	GET    /v1/runs/{id}/stats   a terminal run's schema.RunStats
//	GET    /v1/healthz           load snapshot; 200 + schema.Health
//	GET    /metrics              registry snapshot; ?format=prom for the
//	                             Prometheus text exposition
//
// Tenancy comes from the Authorization bearer token or X-API-Key header;
// absent both, the request is accounted to AnonymousTenant. Admission
// rejections are 429 with Retry-After; terminal errors map through
// cli.HTTPStatus (the same taxonomy the CLI maps to exit codes). A trace ask
// for an untraced run is 404, for a still-executing run 409.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /v1/replay", s.handleReplay)
	mux.HandleFunc("GET /v1/runs/{id}/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.Handle("GET /metrics", telemetry.MetricsHandler(s.reg))
	return mux
}

// tenantOf extracts the API-key identity of a request.
func tenantOf(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		if tok, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return strings.TrimSpace(tok)
		}
	}
	if key := r.Header.Get("X-API-Key"); key != "" {
		return key
	}
	return AnonymousTenant
}

// writeJSON writes one JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection is gone; nothing to do
}

// writeError renders err as a wire error envelope on the mapped status.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var busy *TooBusyError
	if errors.As(err, &busy) {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(busy.RetryAfter.Seconds())))
		writeJSON(w, http.StatusTooManyRequests, &schema.RunResponse{
			Version: schema.WireVersion,
			State:   schema.StateFailed,
			Tenant:  busy.Tenant,
			Error:   &schema.WireError{Code: "too_busy", Message: busy.Error()},
		})
		return
	}
	status := cli.HTTPStatus(err)
	switch {
	case errors.Is(err, ErrUnknownRun), errors.Is(err, ErrNotTraced):
		status = http.StatusNotFound
	case errors.Is(err, ErrRunActive):
		status = http.StatusConflict
	}
	writeJSON(w, status, &schema.RunResponse{
		Version: schema.WireVersion,
		State:   schema.StateFailed,
		Error:   schema.NewWireError(err),
	})
}

// readBody reads a request body of at most MaxBody bytes into one buffer,
// answering the request itself when that fails: an oversized body is
// rt.ErrInvalid whatever its Content-Length says.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	raw, err := schema.ReadBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody), r.ContentLength, s.cfg.MaxBody)
	if err == nil {
		return raw, true
	}
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		s.writeError(w, rt.Mark(rt.ErrInvalid, fmt.Errorf("service: request body over %d bytes", tooBig.Limit)))
	} else {
		s.writeError(w, rt.Mark(rt.ErrParse, err))
	}
	return nil, false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := schema.DecodeRunRequest(raw)
	if err != nil {
		s.writeError(w, err)
		return
	}
	run, err := s.Submit(req, tenantOf(r))
	if err != nil {
		s.writeError(w, err)
		return
	}

	if r.URL.Query().Get("wait") == "true" {
		// Synchronous mode: hold the request open until the run finishes.
		// A client that disconnects mid-run cancels it — the run's budget
		// should not be spent on an answer nobody will read.
		select {
		case <-run.Done():
		case <-r.Context().Done():
			run.Cancel()
			<-run.Done()
		}
		resp := run.snapshot()
		writeJSON(w, cli.HTTPStatus(run.Err()), resp)
		return
	}
	writeJSON(w, http.StatusAccepted, run.snapshot())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	run, err := s.Lookup(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, run.snapshot())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	run, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, run.snapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}

// traceContentTypes maps each trace export format to its Content-Type.
var traceContentTypes = map[telemetry.Format]string{
	telemetry.FormatPerfetto: "application/json; charset=utf-8",
	telemetry.FormatJSONL:    "application/jsonl; charset=utf-8",
	telemetry.FormatDOT:      "text/vnd.graphviz; charset=utf-8",
	telemetry.FormatSchedule: "application/jsonl; charset=utf-8",
}

func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := schema.DecodeReplayRequest(raw)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp, err := s.Replay(req, tenantOf(r))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	format := telemetry.FormatPerfetto
	if q := r.URL.Query().Get("format"); q != "" {
		var err error
		if format, err = telemetry.ParseFormat(q); err != nil {
			s.writeError(w, rt.Mark(rt.ErrInvalid, err))
			return
		}
	}
	id := r.PathValue("id")
	// Probe before writing: WriteTrace streams straight to the response, so
	// its errors must be found while the status line is still unsent.
	if run, err := s.Lookup(id); err != nil {
		s.writeError(w, err)
		return
	} else if _, _, _, err := run.terminalSnapshot(); err != nil {
		s.writeError(w, err)
		return
	} else if !run.Traced {
		s.writeError(w, ErrNotTraced)
		return
	}
	w.Header().Set("Content-Type", traceContentTypes[format])
	s.WriteTrace(w, id, format) //nolint:errcheck // headers sent; client gone
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.Stats(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
