package loadgen

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// testCfg mirrors the jas2004 pack mix without importing it: loadgen is
// pack-agnostic and sees only rates and class names.
func testCfg(ir int, seed int64) SourceConfig {
	return SourceConfig{
		IR:         ir,
		Rates:      []float64{0.25, 0.25, 0.50, 0.60},
		ClassNames: []string{"NewOrder", "Browse", "Manage", "WorkOrder"},
		Seed:       seed,
	}
}

func mustParse(t *testing.T, raw string) *Spec {
	t.Helper()
	s, err := Parse([]byte(raw))
	if err != nil {
		t.Fatalf("Parse(%s): %v", raw, err)
	}
	return s
}

func mustSource(t *testing.T, raw string, cfg SourceConfig) *Source {
	t.Helper()
	src, err := mustParse(t, raw).NewSource(cfg)
	if err != nil {
		t.Fatalf("NewSource: %v", err)
	}
	return src
}

const steadySpec = `{"version":1,"cohorts":[{"name":"all"}]}`

func TestParseRejects(t *testing.T) {
	bad := []struct{ name, raw string }{
		{"empty", `{}`},
		{"version", `{"version":2,"cohorts":[{"name":"a"}]}`},
		{"unknown field", `{"version":1,"cohorts":[{"name":"a","typo":1}]}`},
		{"unknown process field", `{"version":1,"cohorts":[{"name":"a","process":{"kind":"steady","typo":1}}]}`},
		{"both cohorts and trace", `{"version":1,"cohorts":[{"name":"a"}],"trace":{"window_ms":1000,"windows":[[]]}}`},
		{"nameless cohort", `{"version":1,"cohorts":[{"share":1}]}`},
		{"duplicate cohort", `{"version":1,"cohorts":[{"name":"a"},{"name":"a"}]}`},
		{"partial shares", `{"version":1,"cohorts":[{"name":"a","share":0.5},{"name":"b"}]}`},
		{"negative share", `{"version":1,"cohorts":[{"name":"a","share":-1}]}`},
		{"zero mix weight", `{"version":1,"cohorts":[{"name":"a","mix":{"Browse":0}}]}`},
		{"unknown kind", `{"version":1,"cohorts":[{"name":"a","process":{"kind":"chaos"}}]}`},
		{"burst missing params", `{"version":1,"cohorts":[{"name":"a","process":{"kind":"burst"}}]}`},
		{"burst factor under 1", `{"version":1,"cohorts":[{"name":"a","process":{"kind":"burst","on_ms":500,"off_ms":500,"factor":0.5}}]}`},
		{"burst factor over limit", `{"version":1,"cohorts":[{"name":"a","process":{"kind":"burst","on_ms":500,"off_ms":500,"factor":3}}]}`},
		{"cross-kind params", `{"version":1,"cohorts":[{"name":"a","process":{"kind":"ramp","steps":4,"step_ms":1000,"target_factor":2,"factor":3}}]}`},
		{"steady with params", `{"version":1,"cohorts":[{"name":"a","process":{"on_ms":100}}]}`},
		{"ramp zero steps", `{"version":1,"cohorts":[{"name":"a","process":{"kind":"ramp","step_ms":1000,"target_factor":2}}]}`},
		{"sweep amplitude over 1", `{"version":1,"cohorts":[{"name":"a","process":{"kind":"sweep","period_ms":60000,"amplitude":1.5}}]}`},
		{"trace no windows", `{"version":1,"trace":{"window_ms":1000,"windows":[]}}`},
		{"trace offset outside window", `{"version":1,"trace":{"window_ms":1000,"windows":[[[0,1000]]]}}`},
		{"trace fractional class", `{"version":1,"trace":{"window_ms":1000,"windows":[[[0.5,10]]]}}`},
		{"trace unsorted window", `{"version":1,"trace":{"window_ms":1000,"windows":[[[0,20],[0,10]]]}}`},
		{"trailing data", steadySpec + `{}`},
	}
	for _, tc := range bad {
		if _, err := Parse([]byte(tc.raw)); err == nil {
			t.Errorf("%s: accepted %s", tc.name, tc.raw)
		}
	}
}

func TestCanonicalMaterializesDefaults(t *testing.T) {
	implicit := mustParse(t, `{"version":1,"cohorts":[{"name":"a"},{"name":"b"}]}`)
	explicit := mustParse(t, `{"version":1,"cohorts":[
		{"name":"a","seed_lane":1,"process":{"kind":"steady"}},
		{"name":"b","seed_lane":2}]}`)
	if implicit.Canonical() != explicit.Canonical() {
		t.Fatalf("default materialization differs:\n%s\n%s", implicit.Canonical(), explicit.Canonical())
	}
	// Canonicalization is idempotent: canonical of canonical is itself.
	c := implicit.Canonical()
	again, err := CanonicalString(c)
	if err != nil || again != c {
		t.Fatalf("canonical not a fixed point: %v / %s vs %s", err, again, c)
	}
	// Distinct shapes stay distinct.
	burst := mustParse(t, `{"version":1,"cohorts":[{"name":"a","process":{"kind":"burst","on_ms":500,"off_ms":500,"factor":1.5}},{"name":"b"}]}`)
	if burst.Canonical() == implicit.Canonical() {
		t.Fatal("burst and steady specs coalesced")
	}
}

func TestCheckClasses(t *testing.T) {
	names := []string{"NewOrder", "Browse"}
	s := mustParse(t, `{"version":1,"cohorts":[{"name":"a","mix":{"Browse":2}}]}`)
	if err := s.CheckClasses(names); err != nil {
		t.Fatalf("valid mix rejected: %v", err)
	}
	s = mustParse(t, `{"version":1,"cohorts":[{"name":"a","mix":{"Nope":2}}]}`)
	if err := s.CheckClasses(names); err == nil {
		t.Fatal("unknown mix class accepted")
	}
	s = mustParse(t, `{"version":1,"trace":{"window_ms":1000,"windows":[[[5,10]]]}}`)
	if err := s.CheckClasses(names); err == nil {
		t.Fatal("out-of-range trace class accepted")
	}
}

func TestSummary(t *testing.T) {
	s := mustParse(t, `{"version":1,"cohorts":[{"name":"a","process":{"kind":"burst","on_ms":500,"off_ms":500,"factor":1.5}},{"name":"b"}]}`)
	if got := s.Summary(); got != "2 cohorts (burst, steady)" {
		t.Fatalf("Summary = %q", got)
	}
	s = mustParse(t, `{"version":1,"trace":{"window_ms":1000,"windows":[[],[]]}}`)
	if got := s.Summary(); got != "trace (2 windows)" {
		t.Fatalf("trace Summary = %q", got)
	}
	if got := SummaryString(""); got != "" {
		t.Fatalf("empty SummaryString = %q", got)
	}
	if got := SummaryString("not json"); got != "invalid" {
		t.Fatalf("invalid SummaryString = %q", got)
	}
}

// windowCounts runs the source for n windows and returns per-window
// arrival totals.
func windowCounts(src *Source, n int) []float64 {
	out := make([]float64, n)
	for w := 0; w < n; w++ {
		out[w] = float64(len(src.Window(1000)))
	}
	return out
}

func meanVar(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs))
	return mean, variance
}

// The steady process must reproduce the legacy offered load: IR x sum(mix)
// requests/second, Poisson (index of dispersion ~ 1).
func TestSteadyMean(t *testing.T) {
	src := mustSource(t, steadySpec, testCfg(40, 1))
	counts := windowCounts(src, 600)
	mean, variance := meanVar(counts)
	want := 40 * 1.6
	if math.Abs(mean-want) > want*0.05 {
		t.Fatalf("steady mean %.2f req/window, want ~%.1f", mean, want)
	}
	if iod := variance / mean; iod < 0.8 || iod > 1.25 {
		t.Fatalf("steady index of dispersion %.2f, want ~1", iod)
	}
}

// Burst mode must preserve the long-run mean while inflating the window
// count variance: index of dispersion well above 1.
func TestBurstDispersion(t *testing.T) {
	const burst = `{"version":1,"cohorts":[{"name":"a","process":{"kind":"burst","on_ms":3000,"off_ms":3000,"factor":1.9}}]}`
	src := mustSource(t, burst, testCfg(40, 1))
	counts := windowCounts(src, 1200)
	mean, variance := meanVar(counts)
	want := 40 * 1.6
	if math.Abs(mean-want) > want*0.05 {
		t.Fatalf("burst long-run mean %.2f req/window, want ~%.1f (mean-preserving)", mean, want)
	}
	if iod := variance / mean; iod < 2 {
		t.Fatalf("burst index of dispersion %.2f, want > 2", iod)
	}
}

// Ramp mode: the mean rate of each step plateau must be monotone from
// start to target.
func TestRampMonotone(t *testing.T) {
	const ramp = `{"version":1,"cohorts":[{"name":"a","process":{"kind":"ramp","start_factor":0.25,"target_factor":2,"steps":4,"step_ms":60000}}]}`
	src := mustSource(t, ramp, testCfg(40, 1))
	const stepWindows = 60
	var stepMeans []float64
	for step := 0; step < 4; step++ {
		mean, _ := meanVar(windowCounts(src, stepWindows))
		stepMeans = append(stepMeans, mean)
	}
	for i := 1; i < len(stepMeans); i++ {
		if stepMeans[i] <= stepMeans[i-1] {
			t.Fatalf("ramp step means not monotone: %v", stepMeans)
		}
	}
	base := 40 * 1.6
	if first := stepMeans[0]; math.Abs(first-0.25*base) > 0.25*base*0.15 {
		t.Fatalf("ramp first step mean %.2f, want ~%.1f", first, 0.25*base)
	}
	if last := stepMeans[3]; math.Abs(last-2*base) > 2*base*0.1 {
		t.Fatalf("ramp last step mean %.2f, want ~%.1f", last, 2*base)
	}
	// Past the ramp the rate holds at target.
	mean, _ := meanVar(windowCounts(src, stepWindows))
	if math.Abs(mean-2*base) > 2*base*0.1 {
		t.Fatalf("post-ramp mean %.2f, want ~%.1f", mean, 2*base)
	}
}

// Sweep mode: sinusoid peaks near 1+amplitude and troughs near
// 1-amplitude, mean preserved over whole periods.
func TestSweepShape(t *testing.T) {
	const sweep = `{"version":1,"cohorts":[{"name":"a","process":{"kind":"sweep","period_ms":120000,"amplitude":0.5}}]}`
	src := mustSource(t, sweep, testCfg(100, 1))
	counts := windowCounts(src, 480) // 4 whole periods of 120 windows
	mean, _ := meanVar(counts)
	base := 100 * 1.6
	if math.Abs(mean-base) > base*0.05 {
		t.Fatalf("sweep mean %.2f req/window, want ~%.0f", mean, base)
	}
	// Windows 25..35 straddle the first peak (t/period ~ 0.25), windows
	// 85..95 the first trough (~0.75).
	peak, _ := meanVar(counts[25:35])
	trough, _ := meanVar(counts[85:95])
	if peak < base*1.3 || trough > base*0.7 {
		t.Fatalf("sweep peak %.1f / trough %.1f around base %.0f, want ~1.5x / ~0.5x", peak, trough, base)
	}
}

// Cohort shares split the offered load; a mix override re-weights classes
// inside its cohort only.
func TestCohortShareAndMix(t *testing.T) {
	const spec = `{"version":1,"cohorts":[
		{"name":"browsers","share":0.75,"mix":{"NewOrder":0,"Browse":0,"Manage":2,"WorkOrder":0.00001}},
		{"name":"batch","share":0.25}]}`
	// Mix zero is invalid; use per-class checks on a simpler pair instead.
	const valid = `{"version":1,"cohorts":[
		{"name":"browsers","share":0.75,"mix":{"Manage":2}},
		{"name":"batch","share":0.25}]}`
	if _, err := Parse([]byte(spec)); err == nil {
		t.Fatal("zero mix weight accepted")
	}
	src := mustSource(t, valid, testCfg(40, 1))
	perClass := make([]float64, 4)
	const windows = 1200
	for w := 0; w < windows; w++ {
		for _, a := range src.Window(1000) {
			perClass[a.Class]++
		}
	}
	// Manage (class 2, base 0.50/IR): browsers contribute 0.75*2x, batch
	// 0.25*1x => 1.75x base. Browse (class 1, base 0.25/IR) stays 1x.
	wantManage := 40 * 0.50 * 1.75 * windows
	wantBrowse := 40 * 0.25 * 1.0 * windows
	if got := perClass[2]; math.Abs(got-wantManage) > wantManage*0.05 {
		t.Fatalf("Manage arrivals %v, want ~%v", got, wantManage)
	}
	if got := perClass[1]; math.Abs(got-wantBrowse) > wantBrowse*0.05 {
		t.Fatalf("Browse arrivals %v, want ~%v", got, wantBrowse)
	}
}

// Source output must satisfy the driver.Source contract: sorted offsets
// inside the window, classes in range.
func TestSourceSortedAndInRange(t *testing.T) {
	const spec = `{"version":1,"cohorts":[
		{"name":"a","process":{"kind":"burst","on_ms":700,"off_ms":1300,"factor":2}},
		{"name":"b","process":{"kind":"sweep","period_ms":30000,"amplitude":1}}]}`
	src := mustSource(t, spec, testCfg(100, 3))
	for w := 0; w < 60; w++ {
		arr := src.Window(1000)
		for i, a := range arr {
			if a.Class < 0 || a.Class >= 4 {
				t.Fatalf("class %d out of range", a.Class)
			}
			if a.OffsetMS < 0 || a.OffsetMS >= 1000 {
				t.Fatalf("offset %v outside window", a.OffsetMS)
			}
			if i > 0 && arr[i].OffsetMS < arr[i-1].OffsetMS {
				t.Fatal("arrivals not sorted")
			}
		}
	}
}

// Same spec + same seed => byte-identical trace; different seed lanes or
// run seeds diverge.
func TestTraceDeterminism(t *testing.T) {
	spec := mustParse(t, `{"version":1,"cohorts":[{"name":"a","process":{"kind":"burst","on_ms":2000,"off_ms":1000,"factor":1.4}}]}`)
	render := func(seed int64) string {
		tr, err := Record(spec, testCfg(40, seed), 1000, 12)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render(7) != render(7) {
		t.Fatal("same spec+seed produced different traces")
	}
	if render(7) == render(8) {
		t.Fatal("different seeds produced identical traces")
	}
}

// The full round trip: record -> serialize -> parse -> replay as a trace
// spec -> re-record -> byte-identical file.
func TestTraceRoundTrip(t *testing.T) {
	spec := mustParse(t, `{"version":1,"cohorts":[
		{"name":"a","share":0.6,"process":{"kind":"ramp","start_factor":0.5,"target_factor":1.5,"steps":3,"step_ms":4000}},
		{"name":"b","share":0.4}]}`)
	cfg := testCfg(40, 5)
	tr, err := Record(spec, cfg, 1000, 12)
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := WriteTrace(&first, tr); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadTrace(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	// Replaying the parsed trace must reproduce the recorded arrivals...
	src, err := parsed.Spec().NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.CheckRun(1000, 12); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 12; w++ {
		arr := src.Window(1000)
		if len(arr) != len(tr.Windows[w]) {
			t.Fatalf("window %d: replay %d arrivals, recorded %d", w, len(arr), len(tr.Windows[w]))
		}
		for i, a := range arr {
			if a.Class != int(tr.Windows[w][i][0]) || a.OffsetMS != tr.Windows[w][i][1] {
				t.Fatalf("window %d arrival %d: replay %+v vs recorded %v", w, i, a, tr.Windows[w][i])
			}
		}
	}
	// ...and re-recording the replayed trace must re-emit the same bytes.
	again, err := Record(parsed.Spec(), cfg, 1000, 12)
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := WriteTrace(&second, again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("record -> replay -> re-record is not byte-identical")
	}
}

func TestTraceReadRejects(t *testing.T) {
	bad := []struct{ name, raw string }{
		{"bad version", `{"trace":"v2","window_ms":1000,"windows":0}`},
		{"unknown header field", `{"trace":"v1","window_ms":1000,"windows":0,"spec":{}}`},
		{"missing window line", `{"trace":"v1","window_ms":1000,"windows":1}`},
		{"mislabeled window", "{\"trace\":\"v1\",\"window_ms\":1000,\"windows\":1}\n{\"w\":3,\"a\":[]}"},
		{"trailing line", "{\"trace\":\"v1\",\"window_ms\":1000,\"windows\":1}\n{\"w\":0,\"a\":[]}\n{\"w\":1,\"a\":[]}"},
		{"invalid point", "{\"trace\":\"v1\",\"window_ms\":1000,\"windows\":1}\n{\"w\":0,\"a\":[[0,2000]]}"},
		// The header's count once sized a slice before any line arrived,
		// so this 62-byte trace panicked in makeslice.
		{"window count beyond the body", `{"trace":"v1","window_ms":1000,"windows":4611686018427387904}`},
	}
	for _, tc := range bad {
		if _, err := ReadTrace(strings.NewReader(tc.raw)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// A trace that is shorter than the run it is asked to serve fails
// CheckRun; window size mismatches fail too.
func TestTraceCheckRun(t *testing.T) {
	spec := mustParse(t, `{"version":1,"trace":{"window_ms":1000,"windows":[[],[]]}}`)
	src, err := spec.NewSource(testCfg(40, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.CheckRun(1000, 2); err != nil {
		t.Fatalf("exact-length trace rejected: %v", err)
	}
	if err := src.CheckRun(1000, 3); err == nil {
		t.Fatal("short trace accepted")
	}
	if err := src.CheckRun(500, 2); err == nil {
		t.Fatal("window size mismatch accepted")
	}
}
