// Package client is the typed Go client for gammad, the networked Gamma
// service (cmd/gammad). It speaks the versioned v1 wire format of
// internal/schema and reconstructs the runtime error taxonomy from wire
// codes, so errors.Is(err, gammaflow.ErrMaxSteps) works on remote runs
// exactly as on in-process ones.
//
//	c := client.New("http://localhost:8080")
//	resp, err := c.Run(ctx, client.NewGammaRequest(program, init,
//	    client.RunSpec{MaxSteps: 10000}))
//	fmt.Println(resp.Result.Multiset)
package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/schema"
)

// Aliases re-export the wire types so callers need only this package.
type (
	RunSpec        = schema.RunSpec
	RunRequest     = schema.RunRequest
	RunResponse    = schema.RunResponse
	RunResult      = schema.RunResult
	RunStats       = schema.RunStats
	Health         = schema.Health
	WireError      = schema.WireError
	ReplayRequest  = schema.ReplayRequest
	ReplayResponse = schema.ReplayResponse
	WireDivergence = schema.WireDivergence
)

// Trace formats accepted by Trace and TraceTo (wire minor 1.2; TraceSchedule
// is minor 1.3).
const (
	TracePerfetto = "perfetto"
	TraceJSONL    = "jsonl"
	TraceDOT      = "dot"
	// TraceSchedule is the executable replay schedule: feed it back through
	// Replay to re-execute the recorded run deterministically.
	TraceSchedule = "schedule"
)

// NewGammaRequest and NewGraphRequest build v1 run envelopes;
// NewGammaReplayRequest and NewGraphReplayRequest build the 1.3 replay
// envelopes for Replay.
var (
	NewGammaRequest       = schema.NewGammaRequest
	NewGraphRequest       = schema.NewGraphRequest
	NewGammaReplayRequest = schema.NewGammaReplayRequest
	NewGraphReplayRequest = schema.NewGraphReplayRequest
)

// BusyError is the client-side face of an admission-control rejection
// (HTTP 429): back off for RetryAfter and resubmit.
type BusyError struct {
	// RetryAfter is the server's suggested backoff.
	RetryAfter time.Duration
	// Message is the server's rejection reason.
	Message string
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("gammad busy (retry after %s): %s", e.RetryAfter, e.Message)
}

// Client talks to one gammad instance. The zero value is not usable; call
// New. Clients are safe for concurrent use.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// APIKey, when set, is sent as the bearer token and names the tenant.
	APIKey string
	// HTTPClient, when nil, is http.DefaultClient.
	HTTPClient *http.Client
}

// New returns a client for the gammad at baseURL.
func New(baseURL string) *Client { return &Client{BaseURL: baseURL} }

// Submit enqueues a run asynchronously and returns its pending envelope;
// poll with Get or Wait. Admission rejections return *BusyError.
func (c *Client) Submit(ctx context.Context, req RunRequest) (*RunResponse, error) {
	return c.post(ctx, "/v1/runs", req)
}

// Run submits synchronously: one round trip to the run's terminal state.
// A failed run returns both the response envelope and the reconstructed
// error (errors.Is-compatible with the rt taxonomy).
func (c *Client) Run(ctx context.Context, req RunRequest) (*RunResponse, error) {
	return c.post(ctx, "/v1/runs?wait=true", req)
}

// Get polls one run.
func (c *Client) Get(ctx context.Context, id string) (*RunResponse, error) {
	return c.do(ctx, "GET", "/v1/runs/"+id, nil)
}

// Cancel asks the server to stop a run.
func (c *Client) Cancel(ctx context.Context, id string) (*RunResponse, error) {
	return c.do(ctx, "DELETE", "/v1/runs/"+id, nil)
}

// Wait polls a run every interval (default 10ms) until it is terminal or
// ctx expires.
func (c *Client) Wait(ctx context.Context, id string, interval time.Duration) (*RunResponse, error) {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		resp, err := c.Get(ctx, id)
		if err != nil {
			return resp, err
		}
		if schema.TerminalState(resp.State) {
			return resp, resp.Error.Err()
		}
		select {
		case <-ctx.Done():
			return resp, ctx.Err()
		case <-tick.C:
		}
	}
}

// Stats fetches a terminal run's execution accounting (wire minor 1.2):
// steps, wall and queue-wait times, and — when the run was traced — the
// recorder's event/drop counts, private counters and the provenance firing
// count (equal to Steps on a traced sequential run). 409 while the run still
// executes surfaces as an error; poll Wait first.
func (c *Client) Stats(ctx context.Context, id string) (*RunStats, error) {
	return fetch(ctx, c, "GET", "/v1/runs/"+id+"/stats", nil, schema.DecodeRunStats)
}

// Trace fetches a traced terminal run's trace (wire minor 1.2) in the given
// format: TracePerfetto (default when empty), TraceJSONL, TraceDOT or
// TraceSchedule. The bytes are the export verbatim — write them to a file
// and load them in the matching viewer. 404 for untraced runs, 409 while the
// run executes.
func (c *Client) Trace(ctx context.Context, id, format string) ([]byte, error) {
	var buf bytes.Buffer
	if err := c.TraceTo(ctx, id, format, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TraceTo streams a traced terminal run's trace straight into w — the
// export never lives wholly in client memory, which is what a CLI piping a
// large JSONL trace to a file wants. Same formats and error surface as
// Trace. Nothing is written to w on a non-200 response.
func (c *Client) TraceTo(ctx context.Context, id, format string, w io.Writer) error {
	path := "/v1/runs/" + id + "/trace"
	if format != "" {
		path += "?format=" + format
	}
	hres, err := c.send(ctx, "GET", path, nil)
	if err != nil {
		return err
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		body, err := schema.ReadBody(hres.Body, hres.ContentLength, maxPresize)
		if err != nil {
			return err
		}
		return statusErr(body, hres)
	}
	_, err = io.Copy(w, hres.Body)
	return err
}

// Replay submits a recorded schedule for sequential re-execution against a
// program and initial state (wire minor 1.3): fetch a traced run's schedule
// with Trace(id, TraceSchedule), then replay it here. The response carries
// either the confirmed stable state or a structured Divergence naming the
// first step whose consumed elements or products differ; only unusable
// submissions error.
func (c *Client) Replay(ctx context.Context, req ReplayRequest) (*ReplayResponse, error) {
	payload, err := req.Encode()
	if err != nil {
		return nil, err
	}
	return fetch(ctx, c, "POST", "/v1/replay", payload, schema.DecodeReplayResponse)
}

// Health fetches the server's load snapshot.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	return fetch(ctx, c, "GET", "/v1/healthz", nil, schema.DecodeHealth)
}

// statusErr reconstructs the taxonomy error a non-200 response carries (the
// body is a RunResponse error envelope).
func statusErr(body []byte, hres *http.Response) error {
	if resp, err := schema.DecodeRunResponse(body); err == nil && resp.Error != nil {
		return resp.Error.Err()
	}
	return fmt.Errorf("gammad: status %d", hres.StatusCode)
}

// fetch makes one round trip whose 200 body decode reads; any other status
// is the error its envelope carries.
func fetch[T any](ctx context.Context, c *Client, method, path string, payload []byte, decode func([]byte) (*T, error)) (*T, error) {
	body, hres, err := c.roundTrip(ctx, method, path, payload)
	if err != nil {
		return nil, err
	}
	if hres.StatusCode != http.StatusOK {
		return nil, statusErr(body, hres)
	}
	return decode(body)
}

func (c *Client) post(ctx context.Context, path string, req RunRequest) (*RunResponse, error) {
	payload, err := req.Encode()
	if err != nil {
		return nil, err
	}
	return c.do(ctx, "POST", path, payload)
}

// do makes one round trip on the /v1/runs endpoints, whose every answer is a
// RunResponse: a 429 is *BusyError, a terminal failure its taxonomy error.
func (c *Client) do(ctx context.Context, method, path string, payload []byte) (*RunResponse, error) {
	raw, hres, err := c.roundTrip(ctx, method, path, payload)
	if err != nil {
		return nil, err
	}
	resp, err := schema.DecodeRunResponse(raw)
	if err != nil {
		return nil, fmt.Errorf("gammad: bad response (status %d): %w", hres.StatusCode, err)
	}
	if hres.StatusCode == http.StatusTooManyRequests {
		after, _ := strconv.Atoi(hres.Header.Get("Retry-After"))
		msg := ""
		if resp.Error != nil {
			msg = resp.Error.Message
		}
		return resp, &BusyError{RetryAfter: time.Duration(after) * time.Second, Message: msg}
	}
	// Terminal failures carry the reconstructed taxonomy error; submissions
	// and polls of healthy runs return a nil error.
	return resp, resp.Error.Err()
}

// roundTrip sends one request and reads its whole response body.
func (c *Client) roundTrip(ctx context.Context, method, path string, payload []byte) ([]byte, *http.Response, error) {
	hres, err := c.send(ctx, method, path, payload)
	if err != nil {
		return nil, nil, err
	}
	defer hres.Body.Close()
	raw, err := schema.ReadBody(hres.Body, hres.ContentLength, maxPresize)
	return raw, hres, err
}

// send is every request's one path: it sends payload, when not nil, as the
// JSON body, and the API key as the bearer token, on HTTPClient or else
// http.DefaultClient. The caller closes the response body.
func (c *Client) send(ctx context.Context, method, path string, payload []byte) (*http.Response, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return nil, err
	}
	if payload != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	if c.APIKey != "" {
		hreq.Header.Set("Authorization", "Bearer "+c.APIKey)
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	return hc.Do(hreq)
}

// maxPresize caps the buffer a response's Content-Length alone may size.
const maxPresize = 1 << 24
