package service_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"clustersim/internal/api"
	"clustersim/internal/engine"
	"clustersim/internal/service"
	"clustersim/internal/store"
)

// startServer builds a clusterd-shaped stack: tiered memory-over-disk
// store, one engine writing through to it, the HTTP API on top.
func startServer(t *testing.T) (*httptest.Server, *engine.Engine, store.Store) {
	t.Helper()
	disk, err := store.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewTiered(store.NewMemory(64<<20), disk)
	eng := engine.New(engine.Options{Parallelism: 2, ResultStore: st})
	ts := httptest.NewServer(service.New(context.Background(), eng, st))
	t.Cleanup(ts.Close)
	return ts, eng, st
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return resp, []byte(buf.String())
}

// Drive a two-job submission end-to-end over HTTP: submit, stream every
// completion as SSE, fetch a result by key, check stats, and confirm a
// resubmission is served from the result store without simulating.
func TestSubmitStreamFetchRoundTrip(t *testing.T) {
	ts, eng, _ := startServer(t)

	body := `{"jobs":[
		{"simpoint":"gzip-1","setup":{"kind":"OP","clusters":2},"opts":{"num_uops":3000}},
		{"simpoint":"gzip-1","setup":{"kind":"VC","num_vc":2,"clusters":2},"opts":{"num_uops":3000}}
	]}`
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub service.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Total != 2 || len(sub.Keys) != 2 || sub.Keys[0] == "" || sub.Keys[1] == "" {
		t.Fatalf("submit response: %+v", sub)
	}

	// Stream until "done": every job must arrive exactly once.
	streamResp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	seen := map[int]service.JobEvent{}
	scanner := bufio.NewScanner(streamResp.Body)
	var eventType string
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			eventType = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if eventType == "done" {
				goto streamed
			}
			var ev service.JobEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatal(err)
			}
			if _, dup := seen[ev.Index]; dup {
				t.Errorf("job %d streamed twice", ev.Index)
			}
			seen[ev.Index] = ev
		}
	}
	t.Fatal("stream ended without a done event")
streamed:
	if len(seen) != 2 {
		t.Fatalf("streamed %d events, want 2", len(seen))
	}
	for i, ev := range seen {
		if ev.Error != "" || ev.Cycles == 0 || ev.IPC == 0 {
			t.Errorf("job %d event: %+v", i, ev)
		}
		if ev.Key != sub.Keys[ev.Index] {
			t.Errorf("job %d key mismatch: %q vs %q", i, ev.Key, sub.Keys[ev.Index])
		}
	}
	if seen[0].Setup != "OP" || seen[1].Setup != "VC" {
		t.Errorf("setups: %q, %q", seen[0].Setup, seen[1].Setup)
	}

	// Status endpoint agrees.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var status service.StatusResponse
	if err := json.NewDecoder(resp2.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if !status.Done || status.Completed != 2 || status.Total != 2 {
		t.Errorf("status: %+v", status)
	}

	// Fetch one result by its content key.
	resultURL := ts.URL + "/v1/results?key=" + url.QueryEscape(sub.Keys[1])
	resp3, err := http.Get(resultURL)
	if err != nil {
		t.Fatal(err)
	}
	var res service.ResultResponse
	if err := json.NewDecoder(resp3.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("result fetch: %d", resp3.StatusCode)
	}
	if res.Simpoint != "gzip-1" || res.Setup != "VC" || res.Cycles != seen[1].Cycles {
		t.Errorf("fetched result: %+v", res)
	}

	// Stats reflect the two simulations and the tiered store layout.
	resp4, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats service.StatsResponse
	if err := json.NewDecoder(resp4.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if stats.Engine.Simulations != 2 {
		t.Errorf("stats: %d simulations, want 2", stats.Engine.Simulations)
	}
	if stats.Memory == nil || stats.Disk == nil || stats.Disk.Entries != 2 {
		t.Errorf("tiered store stats: %+v", stats)
	}

	// A resubmission of the same batch completes from the cache — the
	// engine must not simulate again.
	resp5, raw5 := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp5.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", resp5.StatusCode, raw5)
	}
	var sub2 service.SubmitResponse
	if err := json.Unmarshal(raw5, &sub2); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts.URL, sub2.ID)
	if sims := eng.Stats().Simulations; sims != 2 {
		t.Errorf("resubmission simulated: %d total simulations, want 2", sims)
	}
}

func waitDone(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var status service.StatusResponse
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if status.Done {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("submission %s never finished", id)
}

// A single bare spec (no jobs array) is accepted, and bad requests fail
// with useful errors instead of queueing garbage. Out-of-range machine
// overrides are refused before any of them reaches a core.
func TestSubmitValidation(t *testing.T) {
	ts, eng, _ := startServer(t)

	resp, raw := postJSON(t, ts.URL+"/v1/jobs",
		`{"simpoint":"mcf","setup":{"kind":"OP"},"opts":{"num_uops":2000}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bare spec rejected: %d %s", resp.StatusCode, raw)
	}
	var sub service.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts.URL, sub.ID)

	for name, body := range map[string]string{
		"unknown simpoint": `{"simpoint":"nope","setup":{"kind":"OP"}}`,
		"unknown kind":     `{"simpoint":"mcf","setup":{"kind":"WAT"}}`,
		"empty":            `{}`,
		"not json":         `hello`,
		"negative latency": `{"simpoint":"mcf","setup":{"kind":"OP"},"opts":{"machine":{"link_latency":-1}}}`,
		"iq size":          `{"simpoint":"mcf","setup":{"kind":"OP"},"opts":{"machine":{"iq_size":-4}}}`,
		"copy bandwidth":   `{"simpoint":"mcf","setup":{"kind":"OP"},"opts":{"machine":{"copy_bandwidth":-1}}}`,
		"prefetch degree":  `{"simpoint":"mcf","setup":{"kind":"OP"},"opts":{"machine":{"prefetch_degree":-2}}}`,
		"topology":         `{"simpoint":"mcf","setup":{"kind":"OP"},"opts":{"machine":{"topology":"torus"}}}`,
		"machine field":    `{"simpoint":"mcf","setup":{"kind":"OP"},"opts":{"machine":{"rob_size":8}}}`,
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s", name, resp.StatusCode, raw)
		}
	}
	if st := eng.Stats(); st.Simulations != 1 {
		t.Errorf("rejected submissions simulated: %d simulations, want 1", st.Simulations)
	}

	if resp, _ := http.Get(ts.URL + "/v1/jobs/sub-999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown submission: %d", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/v1/results?key=absent"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("absent result: %d", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
}

// Completed submissions are evicted beyond the retention bound so the
// daemon's registry doesn't grow with lifetime traffic; results stay
// fetchable by key.
func TestSubmissionRetention(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewTiered(store.NewMemory(64<<20), disk)
	eng := engine.New(engine.Options{Parallelism: 2, ResultStore: st})
	srv := service.New(context.Background(), eng, st)
	srv.SetRetention(1)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	body := `{"simpoint":"mcf","setup":{"kind":"OP"},"opts":{"num_uops":2000}}`
	var ids []string
	var keys []string
	for i := 0; i < 3; i++ {
		resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, raw)
		}
		var sub service.SubmitResponse
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatal(err)
		}
		waitDone(t, ts.URL, sub.ID)
		ids = append(ids, sub.ID)
		keys = append(keys, sub.Keys[0])
	}
	if resp, _ := http.Get(ts.URL + "/v1/jobs/" + ids[0]); resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest submission survived retention: %d", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/v1/jobs/" + ids[2]); resp.StatusCode != http.StatusOK {
		t.Errorf("newest submission evicted: %d", resp.StatusCode)
	}
	// The evicted submission's result is still served by key.
	resp, err := http.Get(ts.URL + "/v1/results?key=" + url.QueryEscape(keys[0]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("evicted submission's result not fetchable: %d", resp.StatusCode)
	}
}

// Results persist across service restarts: a new engine+store over the
// same directory serves a previously computed result by key without
// simulating, including to the raw-blob codec path.
func TestResultSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	build := func() (*httptest.Server, *engine.Engine) {
		disk, err := store.OpenDisk(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		st := store.NewTiered(store.NewMemory(64<<20), disk)
		eng := engine.New(engine.Options{Parallelism: 2, ResultStore: st})
		ts := httptest.NewServer(service.New(context.Background(), eng, st))
		t.Cleanup(ts.Close)
		return ts, eng
	}

	ts1, _ := build()
	resp, raw := postJSON(t, ts1.URL+"/v1/jobs",
		`{"simpoint":"crafty","setup":{"kind":"RHOP","clusters":2},"opts":{"num_uops":2500}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub service.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts1.URL, sub.ID)

	ts2, eng2 := build() // fresh process, same cache dir
	fetch := ts2.URL + "/v1/results?key=" + url.QueryEscape(sub.Keys[0])
	resp2, err := http.Get(fetch)
	if err != nil {
		t.Fatal(err)
	}
	var res service.ResultResponse
	if err := json.NewDecoder(resp2.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || res.Setup != "RHOP" || res.Uops == 0 {
		t.Fatalf("restarted fetch: %d %+v", resp2.StatusCode, res)
	}

	rawResp, err := http.Get(fetch + "&raw=1")
	if err != nil {
		t.Fatal(err)
	}
	defer rawResp.Body.Close()
	var blob strings.Builder
	if _, err := bufio.NewReader(rawResp.Body).WriteTo(&blob); err != nil {
		t.Fatal(err)
	}
	if dec, err := engine.DecodeResult([]byte(blob.String())); err != nil || dec.Setup != "RHOP" {
		t.Errorf("raw blob decode: %v", err)
	}

	// Resubmitting against the new process simulates nothing.
	resp3, raw3 := postJSON(t, ts2.URL+"/v1/jobs",
		`{"simpoint":"crafty","setup":{"kind":"RHOP","clusters":2},"opts":{"num_uops":2500}}`)
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", resp3.StatusCode, raw3)
	}
	var sub3 service.SubmitResponse
	if err := json.Unmarshal(raw3, &sub3); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts2.URL, sub3.ID)
	if st := eng2.Stats(); st.Simulations != 0 || st.StoreHits != 1 {
		t.Errorf("restarted engine stats: %+v", st)
	}
}

// Every error path — bad requests, unknown submissions, unknown routes,
// wrong methods — returns a JSON body with a stable machine-readable code
// and the right Content-Type; no path writes bare text.
func TestUniformJSONErrors(t *testing.T) {
	ts, _, _ := startServer(t)

	check := func(name string, resp *http.Response, wantStatus int, wantCode string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type %q", name, ct)
		}
		if v := resp.Header.Get(api.VersionHeader); v != strconv.Itoa(api.Version) {
			t.Errorf("%s: version header %q", name, v)
		}
		var e api.Error
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Errorf("%s: body not JSON: %v", name, err)
			return
		}
		if e.Code != wantCode || e.Message == "" {
			t.Errorf("%s: error body %+v, want code %q", name, e, wantCode)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	check("bad request", resp, http.StatusBadRequest, api.CodeBadRequest)

	resp, err = http.Get(ts.URL + "/v1/jobs/sub-999")
	if err != nil {
		t.Fatal(err)
	}
	check("unknown submission", resp, http.StatusNotFound, api.CodeNotFound)

	resp, err = http.Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	check("unknown route", resp, http.StatusNotFound, api.CodeNotFound)

	resp, err = http.Get(ts.URL + "/v1/jobs") // GET on a POST-only route
	if err != nil {
		t.Fatal(err)
	}
	if allow := resp.Header.Get("Allow"); allow != "POST" {
		t.Errorf("Allow header %q", allow)
	}
	check("wrong method", resp, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed)

	resp, err = http.Post(ts.URL+"/v1/stats", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	check("POST on GET route", resp, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed)

	resp, err = http.Get(ts.URL + "/v1/results")
	if err != nil {
		t.Fatal(err)
	}
	check("missing key", resp, http.StatusBadRequest, api.CodeBadRequest)

	// HEAD is served by GET handlers (load-balancer health probes).
	resp, err = http.Head(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("HEAD /healthz: %d", resp.StatusCode)
	}
}

// Completed submissions are garbage-collected by age: under sustained
// traffic the TTL sweep drains the registry even while it sits below the
// retention count. Results stay fetchable by key.
func TestSubmissionTTLSweep(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewTiered(store.NewMemory(64<<20), disk)
	eng := engine.New(engine.Options{Parallelism: 2, ResultStore: st})
	srv := service.New(context.Background(), eng, st)
	srv.SetTTL(30 * time.Millisecond)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp, raw := postJSON(t, ts.URL+"/v1/jobs",
		`{"simpoint":"mcf","setup":{"kind":"OP"},"opts":{"num_uops":2000}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub service.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts.URL, sub.ID)

	// The sweep (TTL 30ms, swept at least every 50ms) must evict the
	// completed submission; in-flight ones are never touched, so poll.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("completed submission never swept")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The result outlives its submission id.
	resp2, err := http.Get(ts.URL + "/v1/results?key=" + url.QueryEscape(sub.Keys[0]))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("swept submission's result not fetchable: %d", resp2.StatusCode)
	}

	// The sweep shows up in the metrics endpoint.
	resp3, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var body strings.Builder
	if _, err := bufio.NewReader(resp3.Body).WriteTo(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.String(), "clusterd_submissions_swept_total 1") {
		t.Errorf("metrics missing sweep counter:\n%s", body.String())
	}
}

// GET /metrics renders the engine and per-tier store counters in
// Prometheus text exposition format.
func TestMetricsEndpoint(t *testing.T) {
	ts, _, _ := startServer(t)

	resp, raw := postJSON(t, ts.URL+"/v1/jobs",
		`{"simpoint":"gzip-1","setup":{"kind":"OP"},"opts":{"num_uops":2000}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub service.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts.URL, sub.ID)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	var b strings.Builder
	if _, err := bufio.NewReader(mresp.Body).WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	for _, want := range []string{
		"# TYPE clusterd_engine_simulations_total counter",
		"clusterd_engine_simulations_total 1",
		`clusterd_store_entries{tier="memory"}`,
		`clusterd_store_entries{tier="disk"} 1`,
		`clusterd_store_puts_total{tier="all"}`,
		"clusterd_submissions_retained 1",
		"# TYPE clusterd_engine_core_pool_hits_total counter",
		"clusterd_engine_core_pool_misses_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// A server started with a token answers every request that lacks it (or
// presents the wrong one) with a JSON 401 carrying the stable
// "unauthorized" code. /healthz stays open: orchestrator liveness probes
// cannot attach credentials.
func TestBearerTokenEnforced(t *testing.T) {
	st := store.NewMemory(64 << 20)
	eng := engine.New(engine.Options{Parallelism: 2, ResultStore: st})
	svc := service.New(context.Background(), eng, st)
	svc.SetToken("sesame")
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)

	get := func(path, auth string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		bufio.NewReader(resp.Body).WriteTo(&b)
		return resp, []byte(b.String())
	}

	for name, auth := range map[string]string{
		"no credentials": "",
		"wrong token":    "Bearer open",
		"wrong scheme":   "Basic sesame",
	} {
		resp, raw := get("/v1/stats", auth)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s: status %d, want 401", name, resp.StatusCode)
		}
		var e api.Error
		if err := json.Unmarshal(raw, &e); err != nil || e.Code != api.CodeUnauthorized {
			t.Errorf("%s: error body %s", name, raw)
		}
		if resp.Header.Get(api.VersionHeader) == "" {
			t.Errorf("%s: 401 lost the version header", name)
		}
	}

	if resp, raw := get("/v1/stats", "Bearer sesame"); resp.StatusCode != http.StatusOK {
		t.Errorf("correct token refused: %d %s", resp.StatusCode, raw)
	}
	if resp, _ := get("/healthz", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz demanded credentials: %d", resp.StatusCode)
	}

	// Submission requires the token too.
	resp, raw := postJSON(t, ts.URL+"/v1/jobs",
		`{"simpoint":"gzip-1","setup":{"kind":"OP"},"opts":{"num_uops":2000}}`)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated submit: %d %s", resp.StatusCode, raw)
	}
}

// The per-batch parallelism hint is accepted (and clamped server-side):
// a capped batch still completes every job correctly, and a hint beyond
// the server's own limit is not an escalation vector.
func TestSubmitMaxParallelHint(t *testing.T) {
	ts, eng, _ := startServer(t)

	for _, hint := range []int{1, 99} {
		body := fmt.Sprintf(`{"max_parallel":%d,"jobs":[
			{"simpoint":"gzip-1","setup":{"kind":"OP","clusters":2},"opts":{"num_uops":2000}},
			{"simpoint":"mcf","setup":{"kind":"OP","clusters":2},"opts":{"num_uops":2000}},
			{"simpoint":"crafty","setup":{"kind":"OP","clusters":2},"opts":{"num_uops":2000}}
		]}`, hint)
		resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("hint %d: submit status %d %s", hint, resp.StatusCode, raw)
		}
		var sub service.SubmitResponse
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatal(err)
		}
		waitDone(t, ts.URL, sub.ID)

		sresp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		var status service.StatusResponse
		err = json.NewDecoder(sresp.Body).Decode(&status)
		sresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if status.Completed != 3 {
			t.Fatalf("hint %d: %d of 3 jobs completed", hint, status.Completed)
		}
		for _, ev := range status.Results {
			if ev.Error != "" {
				t.Errorf("hint %d: job %d failed: %s", hint, ev.Index, ev.Error)
			}
		}
	}
	if eng.Stats().Simulations == 0 {
		t.Error("no simulations ran")
	}

	// Typos in the hint field are still rejected: the gate on unknown
	// fields did not loosen with the new optional one.
	resp, _ := postJSON(t, ts.URL+"/v1/jobs",
		`{"maxparallel":1,"jobs":[{"simpoint":"mcf","setup":{"kind":"OP"}}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field accepted: %d", resp.StatusCode)
	}
}
