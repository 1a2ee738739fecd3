package loadgen

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Trace v1 wire format: NDJSON. The first line is the header
//
//	{"trace":"v1","window_ms":1000,"windows":N}
//
// followed by exactly N window lines in order:
//
//	{"w":0,"a":[[class,offsetMS],...]}
//
// The header carries no provenance (no generating spec, no timestamps):
// a trace records only the load itself, which is what makes the
// record -> replay -> re-record round trip byte-identical — re-recording
// a replayed trace re-emits these exact bytes. Offsets are float64 and
// survive the JSON round trip exactly (encoding/json emits the shortest
// representation that parses back to the same value).

// TraceVersion is the trace wire-format version tag.
const TraceVersion = "v1"

type traceHeader struct {
	Trace    string  `json:"trace"`
	WindowMS float64 `json:"window_ms"`
	Windows  int     `json:"windows"`
}

type traceLine struct {
	W int          `json:"w"`
	A []TracePoint `json:"a"`
}

// WriteTrace serializes a trace in the v1 NDJSON format.
func WriteTrace(w io.Writer, t *TraceSpec) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(traceHeader{Trace: TraceVersion, WindowMS: t.WindowMS, Windows: len(t.Windows)}); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for i, pts := range t.Windows {
		if pts == nil {
			pts = []TracePoint{} // "a":[] rather than "a":null, so re-records are byte-stable
		}
		if err := enc.Encode(traceLine{W: i, A: pts}); err != nil {
			return fmt.Errorf("trace: write window %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadTrace parses and validates a v1 NDJSON trace.
func ReadTrace(r io.Reader) (*TraceSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var h traceHeader
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	if h.Trace != TraceVersion {
		return nil, fmt.Errorf("trace: version %q unsupported (want %q)", h.Trace, TraceVersion)
	}
	if h.Windows < 0 {
		return nil, fmt.Errorf("trace: negative window count %d", h.Windows)
	}
	// Reject a bad window length here, before decoding any window lines:
	// deferring to the whole-trace validate() would read (and possibly
	// buffer) every line of an arbitrarily long trace first, and report the
	// failure as a confusing per-window decode error when the body is
	// malformed too. The comparison is written to also reject NaN.
	if !(h.WindowMS > 0) {
		return nil, fmt.Errorf("trace: header window_ms %v must be > 0", h.WindowMS)
	}
	// Windows grows as lines decode: the header's count is untrusted until
	// that many lines have actually arrived.
	t := &TraceSpec{WindowMS: h.WindowMS}
	for i := 0; i < h.Windows; i++ {
		var line traceLine
		if err := dec.Decode(&line); err != nil {
			return nil, fmt.Errorf("trace: window %d: %w", i, err)
		}
		if line.W != i {
			return nil, fmt.Errorf("trace: window line %d labeled w=%d", i, line.W)
		}
		pts := line.A
		if pts == nil {
			pts = []TracePoint{}
		}
		t.Windows = append(t.Windows, pts)
	}
	if dec.More() {
		return nil, fmt.Errorf("trace: trailing data after %d windows", h.Windows)
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Spec wraps the trace as a replayable arrival spec, the form jasd and
// the canonical config carry it in.
func (t *TraceSpec) Spec() *Spec {
	return &Spec{Version: SpecVersion, Trace: t}
}

// Record generates a trace from the spec without running a simulation:
// sources are pure functions of (Spec, SourceConfig), so the standalone
// stream is identical to the one a live run would inject. Recording a
// trace spec replays it — that closure is what makes re-recording a
// recorded trace byte-identical.
func Record(s *Spec, cfg SourceConfig, windowMS float64, nWindows int) (*TraceSpec, error) {
	if nWindows <= 0 {
		return nil, fmt.Errorf("trace: record needs a positive window count, got %d", nWindows)
	}
	src, err := s.NewSource(cfg)
	if err != nil {
		return nil, err
	}
	if err := src.CheckRun(windowMS, nWindows); err != nil {
		return nil, err
	}
	t := &TraceSpec{WindowMS: windowMS, Windows: make([][]TracePoint, nWindows)}
	for w := 0; w < nWindows; w++ {
		arr := src.Window(windowMS)
		pts := make([]TracePoint, len(arr))
		for i, a := range arr {
			pts[i] = TracePoint{float64(a.Class), a.OffsetMS}
		}
		t.Windows[w] = pts
	}
	return t, nil
}
