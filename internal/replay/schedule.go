// Package replay turns execution traces into executable schedules: a
// recorded firing sequence that can be re-executed step for step against a
// fresh initial state, verifying at every step that the recorded elements
// exist and that the program's kernels still reproduce the recorded
// products. A schedule is simultaneously a debugger (replay to the first
// divergent step), a regression oracle (golden-replay the paper's Fig. 1 and
// Fig. 2 runs), and the strongest cross-engine differential: a
// nondeterministic parallel execution, recorded in commit order, replays
// sequentially to the identical final state (§III-C firing-history
// equivalence made executable). Its firing DAG (Sources) is the one source
// of the provenance DOT, the work/span profile and a divergence's ancestors.
//
// The schedule format is line-oriented JSON: one header object naming the
// format version and execution kind, then one object per firing in
// linearized order. Export → Parse → export round-trips byte-identically,
// so schedules can be pinned as goldens.
package replay

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/multiset"
	"repro/internal/rt"
)

// FormatVersion identifies the schedule file format. Parse rejects other
// versions; bump on incompatible changes.
const FormatVersion = "v1"

// Execution kinds a schedule can record.
const (
	KindGamma    = "gamma"
	KindDataflow = "dataflow"
)

// header is the first line of a schedule document.
type header struct {
	Schedule string `json:"schedule"`
	Kind     string `json:"kind"`
	Name     string `json:"name,omitempty"`
	Steps    int    `json:"steps"`
}

// Step is one recorded firing: the reaction or vertex that fired, the keys
// of the elements/tokens it consumed (in pattern/port order) and produced
// (in template/fan-out order), and the commit sequence number the engines
// drew inside the commit critical section. Step numbers are 1-based and
// dense in linearized (seq-sorted) order. Start and Dur time the firing, in
// nanoseconds since the recorder was created, from the start the engine
// reported to the record; they are not part of the encoding, so a parsed
// schedule reads 0 for both.
type Step struct {
	Step       int      `json:"step"`
	Seq        uint64   `json:"seq"`
	Name       string   `json:"name"`
	Consumed   []string `json:"consumed,omitempty"`
	Produced   []string `json:"produced,omitempty"`
	Start, Dur int64    `json:"-"`
}

// Schedule is an executable firing sequence.
type Schedule struct {
	Kind  string
	Name  string
	Steps []Step
}

// Encode writes the schedule in its canonical line-oriented JSON form.
func (s *Schedule) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	h := header{Schedule: FormatVersion, Kind: s.Kind, Name: s.Name, Steps: len(s.Steps)}
	if err := encodeLine(bw, h); err != nil {
		return err
	}
	for i := range s.Steps {
		if err := encodeLine(bw, s.Steps[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func encodeLine(w *bufio.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	return w.WriteByte('\n')
}

// Bytes renders the schedule as Encode would write it.
func (s *Schedule) Bytes() []byte {
	var b sliceWriter
	_ = s.Encode(&b) // cannot fail: the sink never errors
	return b
}

type sliceWriter []byte

func (b *sliceWriter) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// maxLine bounds one schedule line; reactions consuming thousands of
// elements per firing do not exist in this system.
const maxLine = 1 << 22

// Parse reads a schedule document, validating the header, the format
// version, and that step numbers are dense and the step count matches the
// header — a truncated or spliced file fails here rather than replaying a
// silently shortened run. Errors are rt.ErrParse.
func Parse(r io.Reader) (*Schedule, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, rt.Mark(rt.ErrParse, err)
		}
		return nil, rt.Mark(rt.ErrParse, fmt.Errorf("replay: empty schedule"))
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, rt.Mark(rt.ErrParse, fmt.Errorf("replay: schedule header: %w", err))
	}
	if h.Schedule != FormatVersion {
		return nil, rt.Mark(rt.ErrParse, fmt.Errorf("replay: schedule format %q, this build reads %q", h.Schedule, FormatVersion))
	}
	if h.Kind != KindGamma && h.Kind != KindDataflow {
		return nil, rt.Mark(rt.ErrParse, fmt.Errorf("replay: unknown schedule kind %q", h.Kind))
	}
	s := &Schedule{Kind: h.Kind, Name: h.Name, Steps: make([]Step, 0, h.Steps)}
	for sc.Scan() {
		var st Step
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			return nil, rt.Mark(rt.ErrParse, fmt.Errorf("replay: schedule step %d: %w", len(s.Steps)+1, err))
		}
		if st.Step != len(s.Steps)+1 {
			return nil, rt.Mark(rt.ErrParse, fmt.Errorf("replay: schedule step numbered %d at position %d", st.Step, len(s.Steps)+1))
		}
		s.Steps = append(s.Steps, st)
	}
	if err := sc.Err(); err != nil {
		return nil, rt.Mark(rt.ErrParse, err)
	}
	if len(s.Steps) != h.Steps {
		return nil, rt.Mark(rt.ErrParse, fmt.Errorf("replay: schedule header promises %d steps, found %d (truncated?)", h.Steps, len(s.Steps)))
	}
	return s, nil
}

// Recorder collects firing records from a run and linearizes them into a
// Schedule. It implements gamma.ScheduleRecorder (RecordStepTuples) and
// dataflow.ScheduleRecorder (RecordStepEdges) — the engines' only per-firing
// observer — and is safe for concurrent use.
//
// Both record into one store: a firing's name and key text accumulate in one
// byte buffer and are materialized into strings only when Schedule() runs, so
// the per-firing commit cost is a few appends into pointer-free memory — no
// allocation, and nothing for the garbage collector to scan or for the write
// barrier to track.
type Recorder struct {
	mu   sync.Mutex
	kind string
	name string
	base time.Time // Step.Start is measured from here
	raw  []rawStep
	buf  []byte
	offs []uint32
}

// rawStep is one recorded firing, pointer-free. Its name and keys are
// buf[...] spans whose end offsets sit in offs: the name's, then nc consumed
// ends, then np produced ends.
type rawStep struct {
	seq        uint64
	start, dur int64
	nc, np     uint32
}

// NewRecorder returns an empty recorder for an execution of the given kind
// (KindGamma or KindDataflow); name labels the schedule (program or run id).
func NewRecorder(kind, name string) *Recorder {
	return &Recorder{kind: kind, name: name, base: time.Now()}
}

// RecordStepTuples implements gamma.ScheduleRecorder: the firing's tuples are
// fingerprinted straight into the byte buffer (multiset.Tuple.AppendKey).
func (r *Recorder) RecordStepTuples(seq uint64, name string, start time.Time, consumed, produced []multiset.Tuple) {
	t0, dur := r.span(start)
	r.mu.Lock()
	r.begin(name, len(consumed)+len(produced))
	for _, t := range consumed {
		r.endSpan(t.AppendKey(r.buf))
	}
	for _, t := range produced {
		r.endSpan(t.AppendKey(r.buf))
	}
	r.raw = append(r.raw, rawStep{seq: seq, start: t0, dur: dur, nc: uint32(len(consumed)), np: uint32(len(produced))})
	r.mu.Unlock()
}

// RecordStepEdges implements dataflow.ScheduleRecorder: each token's
// "label@tag" key is appended straight into the byte buffer
// (dataflow.AppendTokenKey).
func (r *Recorder) RecordStepEdges(seq uint64, g *dataflow.Graph, v dataflow.NodeID, start time.Time, in []int32, tag int64, out []int32, outTag int64) {
	t0, dur := r.span(start)
	r.mu.Lock()
	r.begin(g.Nodes[v].Name, len(in)+len(out))
	for _, e := range in {
		r.endSpan(dataflow.AppendTokenKey(r.buf, g, dataflow.EdgeID(e), tag))
	}
	for _, e := range out {
		r.endSpan(dataflow.AppendTokenKey(r.buf, g, dataflow.EdgeID(e), outTag))
	}
	r.raw = append(r.raw, rawStep{seq: seq, start: t0, dur: dur, nc: uint32(len(in)), np: uint32(len(out))})
	r.mu.Unlock()
}

// span times a firing that started at start and is being recorded now.
func (r *Recorder) span(start time.Time) (int64, int64) {
	return start.Sub(r.base).Nanoseconds(), time.Since(start).Nanoseconds()
}

// begin starts the record of a firing with keys keys: it makes room and
// appends the firing's name. It grows the stores by hand: doubling from a
// small floor keeps the cumulative allocation at ~2x the final size — a
// three-firing run records into a few hundred bytes — where the runtime's
// large-slice growth factor would make it ~5x on a long one. On a hot workload
// the recording overhead is garbage-collector work, so allocated bytes are the
// cost that matters. buf doubles once less than half of it (at most 4 KiB) is
// free, which is the headroom a firing's text appends into. Called with mu
// held.
func (r *Recorder) begin(name string, keys int) {
	if room := cap(r.buf) - len(r.buf); room < min(4096, cap(r.buf)/2+1) {
		nb := make([]byte, len(r.buf), max(2*cap(r.buf), 1<<9))
		copy(nb, r.buf)
		r.buf = nb
	}
	if n := len(r.offs) + 1 + keys; n > cap(r.offs) {
		no := make([]uint32, len(r.offs), max(2*cap(r.offs), n, 1<<5))
		copy(no, r.offs)
		r.offs = no
	}
	if len(r.raw) == cap(r.raw) {
		nr := make([]rawStep, len(r.raw), max(2*cap(r.raw), 1<<3))
		copy(nr, r.raw)
		r.raw = nr
	}
	r.endSpan(append(r.buf, name...))
}

// endSpan takes buf with one more span appended and records where it ends.
func (r *Recorder) endSpan(buf []byte) {
	r.buf, r.offs = buf, append(r.offs, uint32(len(buf)))
}

// Len reports the number of firings recorded so far.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.raw)
}

// Schedule linearizes the recorded firings: sorted by commit sequence
// number (record order breaking ties, for engines whose seq restarts — the
// numbers within one run are unique) and densely renumbered. The recorder
// is left unchanged and can keep recording.
func (r *Recorder) Schedule() *Schedule {
	r.mu.Lock()
	// One string conversion covers every span, and one slice holds them all;
	// each step's keys are a capacity-clamped run of it.
	text, spans := string(r.buf), make([]string, len(r.offs))
	prev := uint32(0)
	for i, end := range r.offs {
		spans[i], prev = text[prev:end], end
	}
	run := func(n uint32) (ks []string) {
		if n > 0 {
			ks, spans = spans[:n:n], spans[n:]
		}
		return ks
	}
	steps := make([]Step, len(r.raw))
	for i, rs := range r.raw {
		steps[i] = Step{Seq: rs.seq, Name: run(1)[0], Start: rs.start, Dur: rs.dur}
		steps[i].Consumed, steps[i].Produced = run(rs.nc), run(rs.np)
	}
	r.mu.Unlock()
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].Seq < steps[j].Seq })
	for i := range steps {
		steps[i].Step = i + 1
	}
	return &Schedule{Kind: r.kind, Name: r.name, Steps: steps}
}
