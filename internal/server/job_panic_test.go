package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mochy/api"
	counting "mochy/internal/mochy"
	"mochy/internal/pipeline"
	"mochy/internal/testutil"
)

// TestJobPanicFailsJob: a panic inside a job goroutine fails that job with an
// internal error and is counted, while the daemon stays up and keeps running
// other jobs.
func TestJobPanicFailsJob(t *testing.T) {
	s := New(Config{CacheSize: 64, MaxConcurrent: 4, MaxWorkersPerJob: 8})
	s.jobHook = func(kind string) {
		if kind == api.JobKindCount {
			panic("injected job fault")
		}
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	loadGraph(t, ts.URL, "g", benchGraph(5))

	resp, body := postJSON(t, ts.URL+"/v1/graphs/g/count", map[string]any{"algorithm": "exact"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("start: HTTP %d", resp.StatusCode)
	}
	id := field[string](t, body, "id")
	testutil.Eventually(t, 10*time.Second, func() bool {
		_, body = getJSON(t, ts.URL+"/v1/jobs/"+id)
		return field[string](t, body, "state") == api.JobFailed
	}, "job %s did not fail", id)
	if msg := field[string](t, body, "error"); !strings.Contains(msg, "internal error") || !strings.Contains(msg, "injected job fault") {
		t.Fatalf("job error = %q, want an internal error naming the panic", msg)
	}

	if resp, _ := getReadiness(t, ts.URL); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after a job panic: HTTP %d, want 200", resp.StatusCode)
	}
	// Other job kinds still run to completion on the same daemon.
	if resp, doc := runJob(t, ts.URL+"/v1/graphs/g/profile", map[string]any{"randomizations": 1, "seed": 3}); resp.StatusCode != http.StatusAccepted || doc == nil {
		t.Fatalf("profile after a job panic: HTTP %d", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mochyd_job_panics_total 1", "mochyd_jobs_failed_total 1"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestNotePanicCountsRecoveredPanics: a panic a kernel worker or pipeline
// stage recovered into a job's error counts as a job panic, wrapped or not;
// an ordinary failure does not.
func TestNotePanicCountsRecoveredPanics(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	j := s.jobs.create(api.JobKindPipeline, "g", "")
	for _, err := range []error{
		fmt.Errorf("stage %q (count): %w", "c", &counting.PanicError{Value: "kernel fault"}),
		&pipeline.PanicError{Stage: "s", Value: "stage fault"},
		errors.New("ordinary failure"),
	} {
		s.notePanic(context.Background(), j, err)
	}
	if got := s.mets.jobPanics.Value(); got != 2 {
		t.Fatalf("mochyd_job_panics_total = %d, want 2", got)
	}
}
