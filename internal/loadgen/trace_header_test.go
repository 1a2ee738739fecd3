package loadgen

import (
	"bytes"
	"strings"
	"testing"
)

// A malformed header must be rejected on its own, before any window lines
// are decoded — previously a non-positive window_ms slipped past the
// header checks, had every window line decoded, and only failed in the
// whole-trace validate() (or, worse, as a misleading per-window decode
// error when the body was short).
func TestTraceHeaderValidation(t *testing.T) {
	cases := []struct {
		name    string
		raw     string
		wantErr string // substring the error must carry
	}{
		{"zero window_ms", `{"trace":"v1","window_ms":0,"windows":2}`, "window_ms"},
		{"negative window_ms", `{"trace":"v1","window_ms":-1000,"windows":2}`, "window_ms"},
		{"fractional negative window_ms", `{"trace":"v1","window_ms":-0.5,"windows":0}`, "window_ms"},
		{"missing window_ms", `{"trace":"v1","windows":2}`, "window_ms"},
		{"string window_ms", `{"trace":"v1","window_ms":"1000","windows":2}`, "header"},
		{"out-of-range window_ms", `{"trace":"v1","window_ms":1e999,"windows":2}`, "header"},
		{"wrong version", `{"trace":"v0","window_ms":1000,"windows":2}`, "version"},
		{"negative windows", `{"trace":"v1","window_ms":1000,"windows":-1}`, "window count"},
		{"not json", `trace v1 1000 2`, "header"},
		{"empty input", ``, "header"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadTrace(strings.NewReader(tc.raw))
			if err == nil {
				t.Fatal("malformed header accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// The window_ms check fires immediately after the header decode: a header
// with window_ms 0 followed by garbage that would fail window decoding is
// reported as the header problem, not as a window-line error — proof the
// lines were never decoded.
func TestTraceHeaderRejectedBeforeWindows(t *testing.T) {
	raw := "{\"trace\":\"v1\",\"window_ms\":0,\"windows\":3}\nnot a window line\n"
	_, err := ReadTrace(strings.NewReader(raw))
	if err == nil {
		t.Fatal("accepted")
	}
	if strings.Contains(err.Error(), "window 0") {
		t.Fatalf("failure attributed to a window line, not the header: %v", err)
	}
	if !strings.Contains(err.Error(), "window_ms") {
		t.Fatalf("error %q does not name window_ms", err)
	}
}

// FuzzReadTrace: ReadTrace never panics, and a trace it accepts writes
// back to bytes that read and write again unchanged, so a trace file
// round-trips through jasrun and jasd byte for byte. Seeds live under
// testdata/fuzz/FuzzReadTrace.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		tr, err := ReadTrace(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteTrace(&first, tr); err != nil {
			t.Fatalf("WriteTrace of an accepted trace: %v", err)
		}
		again, err := ReadTrace(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadTrace rejects what WriteTrace wrote: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := WriteTrace(&second, again); err != nil {
			t.Fatalf("second WriteTrace: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write -> read -> write is not byte-stable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
