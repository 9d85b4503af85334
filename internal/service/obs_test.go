package service_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"clustersim/internal/api"
	"clustersim/internal/engine"
	"clustersim/internal/obs"
	"clustersim/internal/service"
	"clustersim/internal/store"
)

// startTracedServer is startServer with tracing enabled: the engine
// records per-stage flights into a tracer the service exposes on
// /v1/trace/{id} and in the /metrics stage histograms.
func startTracedServer(t *testing.T) (*httptest.Server, *obs.Tracer) {
	t.Helper()
	st := store.NewMemory(64 << 20)
	tracer := obs.NewTracer(64)
	eng := engine.New(engine.Options{Parallelism: 2, ResultStore: st, Tracer: tracer})
	ts := httptest.NewServer(service.New(context.Background(), eng, st))
	t.Cleanup(ts.Close)
	return ts, tracer
}

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return resp, b.String()
}

// submitOne posts one job (optionally with a caller-chosen trace base)
// and waits for it to finish, returning the submit ack.
func submitOne(t *testing.T, ts *httptest.Server, traceBase string) service.SubmitResponse {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(
		`{"simpoint":"gzip-1","setup":{"kind":"OP","clusters":2},"opts":{"num_uops":2000}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceBase != "" {
		req.Header.Set(api.TraceHeader, traceBase)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sub service.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitDone(t, ts.URL, sub.ID)
	return sub
}

// The end-to-end trace contract: a cold job's flight carries the execute
// span exactly once (nested under the submission alongside annotate,
// expand, encode, store_put), and a warm resubmission of the same job is
// served by one store_get with no execute span at all: an engine with a
// result store keeps no finished results in memory.
func TestTraceEndToEnd(t *testing.T) {
	ts, _ := startTracedServer(t)

	sub := submitOne(t, ts, "e2e-cold")
	if len(sub.TraceIDs) != 1 || sub.TraceIDs[0] != "e2e-cold.0" {
		t.Fatalf("trace IDs %v, want [e2e-cold.0]", sub.TraceIDs)
	}

	resp, body := getBody(t, ts.URL+"/v1/trace/"+sub.TraceIDs[0])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: %d %s", resp.StatusCode, body)
	}
	var tr api.TraceResponse
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.ID != "e2e-cold.0" || tr.Label != "gzip-1/OP" {
		t.Fatalf("trace header %+v", tr)
	}
	count := map[string]int{}
	for _, sp := range tr.Spans {
		count[sp.Name]++
		if sp.DurUs < 0 || sp.StartUs < 0 || sp.StartUs+sp.DurUs > tr.TotalUs+1000 {
			t.Errorf("span %+v escapes flight total %dus", sp, tr.TotalUs)
		}
	}
	for _, stage := range []string{"queue", "annotate", "expand", "execute", "encode", "store_put"} {
		if count[stage] != 1 {
			t.Errorf("cold flight has %d %q spans, want exactly 1 (spans: %+v)", count[stage], stage, tr.Spans)
		}
	}
	if count["cache_hit"] != 0 {
		t.Errorf("cold flight recorded a cache_hit span: %+v", tr.Spans)
	}
	if tr.UnaccountedUs < 0 {
		t.Errorf("negative unaccounted time %d", tr.UnaccountedUs)
	}

	// Warm rerun: same job, new submission — served from the store, so
	// the flight is a store_get with zero execute spans.
	warm := submitOne(t, ts, "e2e-warm")
	_, body = getBody(t, ts.URL+"/v1/trace/"+warm.TraceIDs[0])
	var wtr api.TraceResponse
	if err := json.Unmarshal([]byte(body), &wtr); err != nil {
		t.Fatal(err)
	}
	wcount := map[string]int{}
	for _, sp := range wtr.Spans {
		wcount[sp.Name]++
	}
	if wcount["execute"] != 0 {
		t.Errorf("warm flight executed: %+v", wtr.Spans)
	}
	if wcount["store_get"] != 1 {
		t.Errorf("warm flight has %d store_get spans, want 1 (%+v)", wcount["store_get"], wtr.Spans)
	}

	// Chrome rendering of the same flight is loadable trace-event JSON.
	resp, body = getBody(t, ts.URL+"/v1/trace/"+sub.TraceIDs[0]+"?format=chrome")
	if resp.StatusCode != http.StatusOK || !json.Valid([]byte(body)) {
		t.Fatalf("chrome format: %d, valid=%v", resp.StatusCode, json.Valid([]byte(body)))
	}
	if !strings.Contains(body, `"traceEvents"`) {
		t.Fatalf("chrome format body: %s", body)
	}
}

// An invalid caller-supplied trace base is replaced, not adopted, and
// never fails the submission.
func TestTraceHeaderInvalidBase(t *testing.T) {
	ts, _ := startTracedServer(t)
	sub := submitOne(t, ts, "bad base!")
	if len(sub.TraceIDs) != 1 {
		t.Fatalf("trace IDs %v", sub.TraceIDs)
	}
	if strings.HasPrefix(sub.TraceIDs[0], "bad base!") {
		t.Fatalf("adopted invalid base: %q", sub.TraceIDs[0])
	}
	if resp, _ := getBody(t, ts.URL+"/v1/trace/"+sub.TraceIDs[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("minted trace not queryable: %d", resp.StatusCode)
	}
}

func TestTraceNotFoundAndDisabled(t *testing.T) {
	ts, _ := startTracedServer(t)
	resp, body := getBody(t, ts.URL+"/v1/trace/nonexistent")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: %d %s", resp.StatusCode, body)
	}
	var apiErr struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal([]byte(body), &apiErr); err != nil || apiErr.Code != api.CodeNotFound {
		t.Fatalf("error body %s (%v)", body, err)
	}

	// A server whose engine has no tracer reports "unsupported", not 404:
	// the caller can tell "tracing off" from "trace evicted".
	st := store.NewMemory(64 << 20)
	eng := engine.New(engine.Options{Parallelism: 2, ResultStore: st})
	plain := httptest.NewServer(service.New(context.Background(), eng, st))
	t.Cleanup(plain.Close)
	resp, body = getBody(t, plain.URL+"/v1/trace/any")
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("tracing-disabled trace fetch: %d %s", resp.StatusCode, body)
	}
}

// /metrics exposition well-formedness for the histogram families: every
// family carries _bucket series ending in le="+Inf", a _sum, and a
// _count, and the request count reflects served traffic.
func TestMetricsHistogramFamilies(t *testing.T) {
	ts, _ := startTracedServer(t)
	submitOne(t, ts, "")

	_, body := getBody(t, ts.URL+"/metrics")
	for _, fam := range []string{"clusterd_http_request_seconds", "clusterd_engine_stage_seconds"} {
		if !strings.Contains(body, "# TYPE "+fam+" histogram") {
			t.Errorf("missing TYPE line for %s", fam)
		}
		for _, suffix := range []string{"_bucket{", "_sum", "_count"} {
			if !strings.Contains(body, fam+suffix) {
				t.Errorf("family %s missing %s series", fam, suffix)
			}
		}
		if !strings.Contains(body, fam+`_bucket{`) || !strings.Contains(body, `le="+Inf"`) {
			t.Errorf("family %s missing +Inf bucket", fam)
		}
	}
	// The submit and the status polls must have been observed with their
	// route patterns (bounded label cardinality, never raw paths).
	for _, series := range []string{
		`clusterd_http_request_seconds_count{route="/v1/jobs",code="202"}`,
		`clusterd_http_request_seconds_count{route="/v1/jobs/{id}",code="200"}`,
		`clusterd_engine_stage_seconds_count{stage="execute"} 1`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics missing series %q", series)
		}
	}
	// Every _bucket line parses: cumulative counts, monotonic within a
	// series, value fields integral.
	var prev int64
	var prevSeries string
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "clusterd_http_request_seconds_bucket{") {
			continue
		}
		end := strings.LastIndex(line, "}")
		series := line[:strings.LastIndex(line[:end], ",")] // strip le
		var v int64
		if _, err := fmt.Sscanf(strings.TrimSpace(line[end+1:]), "%d", &v); err != nil {
			t.Fatalf("unparseable bucket line %q", line)
		}
		if series == prevSeries && v < prev {
			t.Fatalf("non-monotonic cumulative buckets at %q", line)
		}
		prev, prevSeries = v, series
	}
}

// /v1/stats carries the same histograms in JSON form, and their
// quantile helper works on the wire type.
func TestStatsLatencyHistograms(t *testing.T) {
	ts, _ := startTracedServer(t)
	submitOne(t, ts, "")

	_, body := getBody(t, ts.URL+"/v1/stats")
	var st service.StatsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Routes) == 0 || len(st.Stages) == 0 {
		t.Fatalf("stats lack histograms: routes %d stages %d", len(st.Routes), len(st.Stages))
	}
	var jobs *api.LatencyHistogram
	for i := range st.Routes {
		if st.Routes[i].Route == "/v1/jobs" {
			jobs = &st.Routes[i]
		}
	}
	if jobs == nil || jobs.Count == 0 {
		t.Fatalf("no /v1/jobs route histogram in %+v", st.Routes)
	}
	if q := jobs.Quantile(0.5); q < 0 {
		t.Fatalf("quantile %v", q)
	}
	seen := map[string]bool{}
	for _, h := range st.Stages {
		seen[h.Stage] = true
	}
	if !seen["execute"] {
		t.Fatalf("stage histograms %v lack execute", seen)
	}
}
