package dist

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"bgpsim/internal/churn"
)

// getJSON drives a GET against a handler and decodes a 200 body.
func getJSON(t *testing.T, h http.Handler, path string, resp any) int {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code == http.StatusOK && resp != nil {
		if err := json.Unmarshal(w.Body.Bytes(), resp); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return w.Code
}

// TestServiceRunsQueuedSubmissions drives the full service loop over
// real HTTP: two clients submit concurrently (one experiment figure,
// one churn program), workers execute both in queue order, and
// /v1/query serves the streamed windows and final artifacts.
func TestServiceRunsQueuedSubmissions(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(coord, nil)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	loopDone := make(chan struct{})
	go func() { svc.Run(ctx); close(loopDone) }()
	wc := startWorker(ctx, srv.URL, "w")

	// Two concurrent clients submit over HTTP.
	submit := func(req SubmitRequest) int {
		t.Helper()
		var resp SubmitResponse
		if code := postJSON(t, svc.Handler(), "/v1/submit", req, &resp); code != http.StatusOK {
			t.Fatalf("submit: HTTP %d", code)
		}
		return resp.ID
	}
	churnSc := testChurnScenario()
	ids := make(chan int, 2)
	go func() { ids <- submit(SubmitRequest{Experiment: "fig3", Options: WireOptions(goldenOptions())}) }()
	go func() { ids <- submit(SubmitRequest{Churn: &ChurnDesc{Scenario: churnSc, Trials: 2}}) }()
	a, b := <-ids, <-ids
	if a == b {
		t.Fatalf("concurrent submissions shared ID %d", a)
	}

	// Both submissions finish; poll the query API.
	deadline := time.Now().Add(2 * time.Minute)
	var infos [2]SubmissionInfo
	for done := 0; done != 2; {
		if time.Now().After(deadline) {
			t.Fatalf("submissions stuck: %+v %+v", svc.Query(0), svc.Query(1))
		}
		done = 0
		for id := 0; id < 2; id++ {
			code := getJSON(t, svc.Handler(), "/v1/query?id="+strconv.Itoa(id), &infos[id])
			if code != http.StatusOK {
				t.Fatalf("query %d: HTTP %d", id, code)
			}
			switch infos[id].State {
			case SubmissionDone:
				done++
			case SubmissionFailed:
				t.Fatalf("submission %d failed: %s", id, infos[id].Error)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The artifacts match single-process runs byte for byte.
	for id := 0; id < 2; id++ {
		var want string
		switch infos[id].Kind {
		case "experiment":
			want = serialFig3(t)
		case "churn":
			local, err := churn.Run(context.Background(), churnSc, 2, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			want = local.Render()
			if len(infos[id].Windows) == 0 {
				t.Error("churn submission streamed no windows to the query API")
			}
			if len(infos[id].PerNodeSent) != churnSc.Topology.N {
				t.Errorf("per-node state has %d entries, want %d", len(infos[id].PerNodeSent), churnSc.Topology.N)
			}
		default:
			t.Fatalf("submission %d has kind %q", id, infos[id].Kind)
		}
		if infos[id].Result != want {
			t.Errorf("submission %d result differs from local run:\n--- service ---\n%s--- local ---\n%s",
				id, infos[id].Result, want)
		}
	}

	// The listing names both; the status page renders.
	var list QueryResponse
	if code := getJSON(t, svc.Handler(), "/v1/query", &list); code != http.StatusOK || len(list.Submissions) != 2 {
		t.Errorf("listing = (%d, %d submissions), want (200, 2)", code, len(list.Submissions))
	}
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	w := httptest.NewRecorder()
	svc.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "bgpsim coordinator") {
		t.Errorf("status page = HTTP %d, body %q", w.Code, w.Body.String()[:min(120, w.Body.Len())])
	}

	coord.Shutdown()
	if err := <-wc; err != nil {
		t.Errorf("worker exit: %v", err)
	}
	cancel()
	<-loopDone
}

func TestServiceRejectsBadSubmissions(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(coord, nil)
	bad := []SubmitRequest{
		{}, // neither experiment nor churn
		{Experiment: "no-such-experiment"},
		{Experiment: "fig3", Churn: &ChurnDesc{}},                                                // both
		{Churn: &ChurnDesc{Scenario: testChurnScenario()}},                                       // zero trials
		{Churn: &ChurnDesc{Scenario: churn.Scenario{Program: churn.Spec{Kind: "x"}}, Trials: 1}}, // bad program
	}
	for i, req := range bad {
		if code := postJSON(t, svc.Handler(), "/v1/submit", req, nil); code != http.StatusBadRequest {
			t.Errorf("bad submission %d: HTTP %d, want 400", i, code)
		}
	}
	if code := getJSON(t, svc.Handler(), "/v1/query?id=99", nil); code != http.StatusNotFound {
		t.Errorf("query of unknown id: HTTP %d, want 404", code)
	}
}

// fill is an endless reader of one repeated byte.
type fill byte

func (f fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestServiceRejectsOversizedBody: a submission body past maxBodyBytes
// is refused with 413 after reading at most the limit, and the service
// keeps answering afterwards.
func TestServiceRejectsOversizedBody(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewService(coord, nil).Handler()
	body := io.MultiReader(strings.NewReader(`{"experiment":"`), io.LimitReader(fill('a'), maxBodyBytes))
	r := httptest.NewRequest(http.MethodPost, "/v1/submit", body)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: HTTP %d, want 413", w.Code)
	}
	var st StatusResponse
	if code := getJSON(t, h, "/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status after oversized submit: HTTP %d, want 200", code)
	}
}
