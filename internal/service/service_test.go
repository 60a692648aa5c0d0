package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	cxl2sim "repro"
	"repro/internal/experiments"
)

// testReps keeps runs fast while still exercising the real experiment
// jobs end to end.
const testReps = 25

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s := mustNew(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp, body
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp, b
}

// TestHealthzAndSectionsList: the discovery endpoints answer without
// touching the simulator.
func TestHealthzAndSectionsList(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	var hz healthzResponse
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	if hz.Status != "ok" || hz.QueueDepth != 0 || hz.InFlight != 0 {
		t.Fatalf("healthz = %+v", hz)
	}

	resp, body = get(t, ts.URL+"/v1/sections")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sections: %d %s", resp.StatusCode, body)
	}
	var list struct {
		Sections []sectionInfo `json:"sections"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("sections decode: %v", err)
	}
	want := map[string]bool{"table3": true, "fig3": true, "fig4": true,
		"fig5": true, "fig6": true, "wqsweep": true, "infer": true,
		"workload": true, "cluster": true}
	if len(list.Sections) != len(want) {
		t.Fatalf("%d sections, want %d: %s", len(list.Sections), len(want), body)
	}
	for _, sec := range list.Sections {
		if !want[sec.Name] {
			t.Fatalf("unexpected section %q", sec.Name)
		}
		if sec.Jobs <= 0 {
			t.Fatalf("section %q reports %d jobs", sec.Name, sec.Jobs)
		}
	}
}

// TestSectionDeterminismAndCacheHit — the core serving guarantee: two
// identical section requests return byte-identical bodies, the second
// served from the cache; the bytes also match an in-process serial render
// and are independent of the server's worker count.
func TestSectionDeterminismAndCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})

	body := fmt.Sprintf(`{"reps":%d,"seed":7}`, testReps)
	resp1, b1 := post(t, ts.URL+"/v1/sections/fig3", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first: %d %s", resp1.StatusCode, b1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q, want miss", got)
	}

	resp2, b2 := post(t, ts.URL+"/v1/sections/fig3", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second: %d %s", resp2.StatusCode, b2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit-mem" {
		t.Fatalf("second X-Cache = %q, want hit-mem", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("bodies differ:\n%s\n----\n%s", b1, b2)
	}
	if cs := s.cache.snapshot(); cs.Hits < 1 {
		t.Fatalf("cache recorded no hit: %+v", cs)
	}

	// The served bytes match a serial in-process render of the same
	// (section, reps, seed) — the runner's determinism, end to end.
	secs := cxl2sim.ExperimentSections(testReps)
	sec, _ := cxl2sim.ExperimentSectionByName(secs, "fig3")
	results := cxl2sim.RunJobs(sec.Jobs, cxl2sim.JobOptions{Workers: 1, RootSeed: 7})
	var ref bytes.Buffer
	if err := sec.Render(&ref, results); err != nil {
		t.Fatalf("reference render: %v", err)
	}
	if !bytes.Equal(b1, ref.Bytes()) {
		t.Fatalf("served bytes differ from serial render:\n%s\n----\n%s", b1, ref.Bytes())
	}

	// A single-worker server serves the same bytes for the same request.
	_, ts1 := newTestServer(t, Config{Workers: 1})
	resp3, b3 := post(t, ts1.URL+"/v1/sections/fig3", body)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("workers=1: %d %s", resp3.StatusCode, b3)
	}
	if !bytes.Equal(b1, b3) {
		t.Fatal("bytes depend on the server's worker count")
	}
}

// TestInferSectionCacheHit extends the determinism guarantee to the
// LLM-serving section: MISS then HIT with byte-identical bodies, both
// matching an in-process serial render of the same (reps, seed).
func TestInferSectionCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})

	body := fmt.Sprintf(`{"reps":%d,"seed":7}`, testReps)
	resp1, b1 := post(t, ts.URL+"/v1/sections/infer", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first: %d %s", resp1.StatusCode, b1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q, want miss", got)
	}
	resp2, b2 := post(t, ts.URL+"/v1/sections/infer", body)
	if got := resp2.Header.Get("X-Cache"); got != "hit-mem" {
		t.Fatalf("second X-Cache = %q, want hit-mem", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cached body differs:\n%s\n----\n%s", b1, b2)
	}

	secs := cxl2sim.ExperimentSections(testReps)
	sec, ok := cxl2sim.ExperimentSectionByName(secs, "infer")
	if !ok {
		t.Fatal("infer section missing from registry")
	}
	results := cxl2sim.RunJobs(sec.Jobs, cxl2sim.JobOptions{Workers: 1, RootSeed: 7})
	var ref bytes.Buffer
	if err := sec.Render(&ref, results); err != nil {
		t.Fatalf("reference render: %v", err)
	}
	if !bytes.Equal(b1, ref.Bytes()) {
		t.Fatalf("served bytes differ from serial render:\n%s\n----\n%s", b1, ref.Bytes())
	}
}

// TestInferSectionTraceReplay: replaying the trace recorded from (reps,
// seed) returns exactly the bytes a live run of the same (reps, seed)
// produces, under a distinct cache key (the trace hash joins the key), and
// malformed or misdirected traces fail with 400s before admission.
func TestInferSectionTraceReplay(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})

	live := fmt.Sprintf(`{"reps":%d,"seed":7}`, testReps)
	respLive, bLive := post(t, ts.URL+"/v1/sections/infer", live)
	if respLive.StatusCode != http.StatusOK {
		t.Fatalf("live: %d %s", respLive.StatusCode, bLive)
	}

	tr := cxl2sim.RecordInferTrace(7, cxl2sim.InferConfig{Reps: testReps})
	enc := base64.StdEncoding.EncodeToString(tr.Encode())
	replay := fmt.Sprintf(`{"reps":%d,"seed":7,"trace":%q}`, testReps, enc)
	resp1, b1 := post(t, ts.URL+"/v1/sections/infer", replay)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("replay: %d %s", resp1.StatusCode, b1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("replay after live X-Cache = %q, want miss (trace key is distinct)", got)
	}
	if !bytes.Equal(b1, bLive) {
		t.Fatalf("replayed bytes differ from live generation:\n%s\n----\n%s", b1, bLive)
	}
	resp2, b2 := post(t, ts.URL+"/v1/sections/infer", replay)
	if got := resp2.Header.Get("X-Cache"); got != "hit-mem" {
		t.Fatalf("second replay X-Cache = %q, want hit-mem", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cached replay body differs")
	}

	cases := []struct {
		name, url, body string
	}{
		{"non-infer section", "/v1/sections/fig3", fmt.Sprintf(`{"trace":%q}`, enc)},
		{"bad base64", "/v1/sections/infer", `{"trace":"!!!"}`},
		{"bad trace bytes", "/v1/sections/infer",
			fmt.Sprintf(`{"trace":%q}`, base64.StdEncoding.EncodeToString([]byte("notatrace")))},
	}
	for _, c := range cases {
		resp, body := post(t, ts.URL+c.url, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", c.name, resp.StatusCode, body)
		}
	}
}

// TestSectionJSONFormat: format=json returns the typed rows, cached under
// a distinct key from the text rendering.
func TestSectionJSONFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := fmt.Sprintf(`{"reps":%d,"format":"json"}`, testReps)
	resp, body := post(t, ts.URL+"/v1/sections/table3", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json run: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Section string            `json:"section"`
		Rows    []json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Section != "table3" || len(out.Rows) == 0 {
		t.Fatalf("section=%q rows=%d", out.Section, len(out.Rows))
	}

	respText, _ := post(t, ts.URL+"/v1/sections/table3", fmt.Sprintf(`{"reps":%d}`, testReps))
	if got := respText.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("text after json X-Cache = %q, want miss (distinct key)", got)
	}
}

// TestSectionErrors: bad requests fail before admission with helpful
// statuses.
func TestSectionErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, url, body string
		want            int
	}{
		{"unknown section", "/v1/sections/fig99", "{}", http.StatusNotFound},
		{"bad format", "/v1/sections/fig3", `{"format":"yaml"}`, http.StatusBadRequest},
		{"unknown field", "/v1/sections/fig3", `{"repz":3}`, http.StatusBadRequest},
		{"negative reps", "/v1/sections/fig3", `{"reps":-1}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, body := post(t, ts.URL+c.url, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: %d %s, want %d", c.name, resp.StatusCode, body, c.want)
		}
	}
}

// TestMeasureEndpoint: an ad-hoc D2H measurement runs, is cached, and is
// deterministic; invalid combinations are 400s.
func TestMeasureEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"kind":"d2h","op":"CS-rd","place":"LLC-1","reps":50,"burst":8,"seed":3}`
	resp, b1 := post(t, ts.URL+"/v1/measure", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measure: %d %s", resp.StatusCode, b1)
	}
	var m measureResponse
	if err := json.Unmarshal(b1, &m); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if m.MedianNs <= 0 || m.BandwidthGBs <= 0 || m.Reps != 50 || m.Burst != 8 {
		t.Fatalf("implausible measurement: %+v", m)
	}

	resp2, b2 := post(t, ts.URL+"/v1/measure", req)
	if got := resp2.Header.Get("X-Cache"); got != "hit-mem" {
		t.Fatalf("repeat X-Cache = %q, want hit-mem", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("measurement not deterministic across requests")
	}

	bad := []struct{ name, body string }{
		{"unknown kind", `{"kind":"x2h","op":"ld"}`},
		{"unknown op", `{"kind":"d2h","op":"mov"}`},
		{"unknown place", `{"kind":"d2h","op":"CS-rd","place":"L2-1"}`},
		{"bad device type", `{"kind":"h2d","op":"ld","config":{"device_type":"type9"}}`},
		{"place/kind mismatch", `{"kind":"d2h","op":"CS-rd","place":"DMC-1","reps":10}`},
	}
	for _, c := range bad {
		resp, body := post(t, ts.URL+"/v1/measure", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", c.name, resp.StatusCode, body)
		}
	}

	// A Type-3 measurement keys separately from the Type-2 default.
	resp3, _ := post(t, ts.URL+"/v1/measure",
		`{"kind":"h2d","op":"ld","reps":50,"burst":8,"config":{"device_type":"type3"}}`)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("type3 measure: %d", resp3.StatusCode)
	}
	if got := resp3.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("type3 X-Cache = %q, want miss", got)
	}
}

// TestReportMatchesSerialWriter: the /v1/report bytes equal
// WriteReportOpts run serially in-process — the same guarantee the CI
// smoke checks against cmd/report -serial.
func TestReportMatchesSerialWriter(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	resp, got := get(t, ts.URL+"/v1/report?reps="+fmt.Sprint(testReps)+"&seed=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: %d %s", resp.StatusCode, got)
	}
	var ref bytes.Buffer
	if _, err := cxl2sim.WriteReportOpts(&ref, cxl2sim.ReportOptions{
		Reps: testReps, Workers: 1, RootSeed: 5,
	}); err != nil {
		t.Fatalf("reference report: %v", err)
	}
	if !bytes.Equal(got, ref.Bytes()) {
		t.Fatalf("report bytes differ from serial writer:\n%s\n----\n%s", got, ref.Bytes())
	}
}

// TestConcurrentFloodSheds429AndKeepsCacheSound: N parallel clients with
// distinct seeds against queue bound K < N. Some must be rejected with
// 429 + Retry-After, every success must be byte-identical to a later
// (cache-hit) repeat, and the cache must end up uncorrupted. The flood
// retries a few times because scheduling could, in principle, let every
// client through sequentially.
func TestConcurrentFloodSheds429AndKeepsCacheSound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxConcurrent: 1, QueueDepth: 1})

	const clients = 10
	// floodReps keeps one fig3 job busy for tens of milliseconds so ten
	// simultaneous clients reliably overrun the 1+1 admission bound; with
	// a cheap job the single worker can drain arrivals as fast as the
	// HTTP layer staggers them and nothing gets shed.
	const floodReps = 8000
	type outcome struct {
		seed   int
		status int
		retry  string
		body   []byte
	}
	flood := func(round int) []outcome {
		out := make([]outcome, clients)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				seed := round*clients + i + 1
				body := fmt.Sprintf(`{"reps":%d,"seed":%d}`, floodReps, seed)
				resp, err := http.Post(ts.URL+"/v1/sections/fig3", "application/json",
					strings.NewReader(body))
				if err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
				defer resp.Body.Close()
				b, _ := io.ReadAll(resp.Body)
				out[i] = outcome{seed: seed, status: resp.StatusCode,
					retry: resp.Header.Get("Retry-After"), body: b}
			}(i)
		}
		close(start)
		wg.Wait()
		return out
	}

	var shed []outcome
	for round := 0; round < 3 && len(shed) == 0; round++ {
		results := flood(round)
		ok := 0
		for _, o := range results {
			switch o.status {
			case http.StatusOK:
				ok++
				// Every accepted response must be reproducible from cache.
				resp, b := post(t, ts.URL+"/v1/sections/fig3",
					fmt.Sprintf(`{"reps":%d,"seed":%d}`, floodReps, o.seed))
				if resp.StatusCode != http.StatusOK || !bytes.Equal(b, o.body) {
					t.Fatalf("seed %d: repeat %d / bytes differ — cache corrupted",
						o.seed, resp.StatusCode)
				}
				if got := resp.Header.Get("X-Cache"); got != "hit-mem" {
					t.Fatalf("seed %d repeat X-Cache = %q, want hit-mem", o.seed, got)
				}
			case http.StatusTooManyRequests:
				if o.retry == "" {
					t.Fatalf("seed %d: 429 without Retry-After", o.seed)
				}
				shed = append(shed, o)
			default:
				t.Fatalf("seed %d: unexpected status %d: %s", o.seed, o.status, o.body)
			}
		}
		if ok == 0 {
			t.Fatal("no request succeeded during the flood")
		}
	}
	if len(shed) == 0 {
		t.Fatal("flood never produced a 429 despite queue bound 1+1 < 10 clients")
	}
}

// TestRequestDeadline504: a deadline far shorter than the run cancels the
// dispatch inside runner.Run and surfaces as 504.
func TestRequestDeadline504(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	resp, body := post(t, ts.URL+"/v1/sections/fig3", `{"reps":200}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d %s, want 504", resp.StatusCode, body)
	}
}

// TestDrainingRejectsNewWork: after Shutdown the daemon answers 503 on
// work and healthz endpoints.
func TestDrainingRejectsNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, _ := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/v1/sections/fig3", `{"reps":10}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("section while draining: %d, want 503", resp.StatusCode)
	}
}

// TestMetricsExposition: the metrics page carries the documented gauges
// and reflects traffic.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/sections/table3", fmt.Sprintf(`{"reps":%d}`, testReps))
	post(t, ts.URL+"/v1/sections/table3", fmt.Sprintf(`{"reps":%d}`, testReps)) // hit
	_, body := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"cxlsimd_queue_depth 0",
		"cxlsimd_inflight_jobs 0",
		"cxlsimd_cache_hits_total 1",
		"cxlsimd_cache_misses_total 1",
		"cxlsimd_flight_waiters 0",
		"cxlsimd_sim_events_total",
		"cxlsimd_requests_total{code=\"200\"}",
		"cxlsimd_section_latency_seconds_count{section=\"section/table3\"} 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestRetryAfterTracksRunEWMA: the 429 Retry-After header is derived from
// an EWMA of observed run wall time scaled by the queue depth, with a 1s
// floor — not from the queue depth alone.
func TestRetryAfterTracksRunEWMA(t *testing.T) {
	m := newMetrics()
	if got := m.retryAfterSeconds(0); got != 1 {
		t.Fatalf("no observations: retryAfter = %d, want the 1s floor", got)
	}
	m.observeSection("report", 5*time.Second)
	if got := m.retryAfterSeconds(0); got != 5 {
		t.Fatalf("after one 5s run: retryAfter(0 waiting) = %d, want 5", got)
	}
	if got := m.retryAfterSeconds(2); got != 15 {
		t.Fatalf("after one 5s run: retryAfter(2 waiting) = %d, want 15", got)
	}
	// The estimate follows the workload: a burst of instant runs decays it
	// (0.2 weight each), and the floor keeps the header at least 1.
	for i := 0; i < 40; i++ {
		m.observeSection("section/table3", 0)
	}
	if got := m.retryAfterSeconds(9); got != 1 {
		t.Fatalf("after decay: retryAfter(9 waiting) = %d, want the 1s floor", got)
	}

	fast := newMetrics()
	fast.observeSection("section/table3", 10*time.Millisecond)
	if got := fast.retryAfterSeconds(0); got != 1 {
		t.Fatalf("sub-second run: retryAfter = %d, want the 1s floor", got)
	}

	// Through the handler: a queue-full rejection must carry the
	// EWMA-derived header, rounded up to whole seconds.
	s := mustNew(t, Config{})
	s.metrics.observeSection("report", 2500*time.Millisecond)
	rec := httptest.NewRecorder()
	s.writeRunError(rec, errQueueFull)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("writeRunError(errQueueFull) status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\" (ceil of the 2.5s EWMA)", got)
	}
}

// TestDiskStoreMetricsExposed: the service has no durable store, so /metrics
// exports no cxlsimd_store_* gauges and /healthz reports no disk tier; a cold
// section run is one memory-cache miss that leaves one memory entry.
func TestDiskStoreMetricsExposed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/sections/table3", fmt.Sprintf(`{"reps":%d}`, testReps))
	_, body := get(t, ts.URL+"/metrics")
	if strings.Contains(string(body), "cxlsimd_store_") {
		t.Errorf("metrics still export store gauges:\n%s", body)
	}
	for _, want := range []string{
		"cxlsimd_cache_hits_total 0",
		"cxlsimd_cache_misses_total 1",
		"cxlsimd_flight_waiters 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	_, hz := get(t, ts.URL+"/healthz")
	if strings.Contains(string(hz), "disk") {
		t.Errorf("healthz still reports a disk tier: %s", hz)
	}
	var resp healthzResponse
	if err := json.Unmarshal(hz, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cache.Misses != 1 || resp.Cache.Entries != 1 {
		t.Fatalf("healthz cache stats: %+v", resp.Cache)
	}
}

// TestVersionEndpoint: GET /v1/version reports the toolchain and the
// canonical cache-key schema responses are keyed under.
func TestVersionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts.URL+"/v1/version")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("version: %d %s", resp.StatusCode, body)
	}
	var v struct {
		GoVersion       string `json:"go_version"`
		CacheKeyVersion string `json:"cache_key_version"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(v.GoVersion, "go") || v.CacheKeyVersion != experiments.CacheKeyVersion {
		t.Fatalf("version = %+v", v)
	}
}
