package launch

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"gem5art/internal/core/run"
	"gem5art/internal/core/tasks"
	"gem5art/internal/database"
	"gem5art/internal/faultinject"
)

// TestEndToEndCrashRecovery is the acceptance scenario for the
// fault-tolerance layer: a worker wedges mid-run after the expensive
// boot checkpoint is archived; the broker's lease expires, the job is
// retried with backoff on the other worker, the retry resumes from the
// checkpoint instead of re-booting, and the run document ends Done with
// the full attempt history.
func TestEndToEndCrashRecovery(t *testing.T) {
	reg, base := buildEnv(t)
	base.Name = "hackback-e2e"
	base.RunScript = "configs/run_hackback.py"
	base.Params = []string{"benchmark=boot-exit", "suite=boot-exit",
		"cpu=TimingSimpleCPU", "num_cpus=1"}
	r, err := run.CreateFSRun(reg, base)
	if err != nil {
		t.Fatal(err)
	}
	// The first pass through phase 2 wedges forever (until Release) —
	// after the boot checkpoint has been archived, so the retry has
	// something to resume from.
	in := faultinject.New(11,
		faultinject.Rule{Site: "run.hackback.phase2", Kind: faultinject.Hang, Count: 1})
	r.SetInjector(in)

	b, err := tasks.NewBrokerWithOptions("127.0.0.1:0", tasks.BrokerOptions{
		Lease:         150 * time.Millisecond,
		CheckInterval: 10 * time.Millisecond,
		Retry:         tasks.RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	handlers := map[string]tasks.JobHandler{
		"run": func(json.RawMessage) (any, error) {
			return nil, r.Execute(context.Background())
		},
	}
	for i := 0; i < 2; i++ {
		w, err := tasks.NewWorker(b.Addr(), 1, handlers)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
	}
	// Cleanups are LIFO: unwedge the first attempt before Worker.Close
	// waits for its in-flight job.
	t.Cleanup(in.Release)

	b.Submit(tasks.Job{ID: r.ID, Kind: "run"})
	var res tasks.JobResult
	select {
	case res = <-b.Results():
	case <-time.After(10 * time.Second):
		t.Fatal("no result: crash recovery did not complete")
	}
	if res.Err != "" {
		t.Fatalf("recovered job failed: %+v", res)
	}
	if n := b.Executions(r.ID); n < 2 {
		t.Fatalf("executions = %d, want >= 2 (lease expiry must consume an attempt)", n)
	}

	if r.StatusNow() != run.Done {
		t.Fatalf("final status = %s", r.StatusNow())
	}
	if r.Results.ResumedFrom == "" {
		t.Fatal("retry did not resume from the archived checkpoint")
	}
	hist := r.AttemptHistory()
	if len(hist) < 2 {
		t.Fatalf("attempt history: %+v", hist)
	}
	if hist[len(hist)-1].Status != run.Done || hist[len(hist)-1].ResumedFrom == "" {
		t.Fatalf("final attempt: %+v", hist[len(hist)-1])
	}

	doc := reg.DB().Collection(run.Collection).FindOne(database.Doc{"_id": r.ID})
	if doc["status"] != "done" {
		t.Fatalf("doc status: %v", doc["status"])
	}
	if atts, ok := doc["attempts"].([]any); !ok || len(atts) < 2 {
		t.Fatalf("doc attempts: %v", doc["attempts"])
	}
	if rf, _ := doc["resumed_from"].(string); rf == "" {
		t.Fatalf("checkpoint provenance missing: %v", doc)
	}
	if cf, _ := doc["checkpoint_file"].(string); cf == "" {
		t.Fatalf("checkpoint_file missing: %v", doc)
	}
	sum := Summarize(reg.DB())
	if sum.Retried != 1 || sum.Resumed != 1 {
		t.Fatalf("summary must surface the flaky run: %s", sum)
	}
	if len(sum.Flaky) != 1 || sum.Flaky[0].ID != r.ID || len(sum.Flaky[0].Attempts) != len(hist) {
		t.Fatalf("summary's flaky runs: %+v, want %s with %d attempts", sum.Flaky, r.ID, len(hist))
	}
}

// TestExperimentPoolRetries wires the retry policy through the launch
// layer's pool: a run whose first attempt hits a transient fault is
// re-executed and the summary reports it as retried.
func TestExperimentPoolRetries(t *testing.T) {
	reg, base := buildEnv(t)
	e := NewExperiment("retry-pool", reg, 2)
	defer e.Close()
	e.SetRetryPolicy(tasks.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond})

	base.Name = "hackback-pool"
	base.RunScript = "configs/run_hackback.py"
	base.Params = []string{"benchmark=boot-exit", "suite=boot-exit",
		"cpu=TimingSimpleCPU", "num_cpus=1"}
	// Create the run by hand so the injector is armed before the pool
	// can pick the task up.
	r, err := run.CreateFSRun(reg, base)
	if err != nil {
		t.Fatal(err)
	}
	r.SetInjector(faultinject.New(2,
		faultinject.Rule{Site: "run.hackback.phase2", Kind: faultinject.Transient}))
	fut, err := e.Pool.ApplyAsync(tasks.TaskFunc{Name: r.ID, Fn: r.Execute})
	if err != nil {
		t.Fatal(err)
	}
	if werr := fut.Wait(context.Background()); werr != nil {
		t.Fatalf("pool did not recover the flaky run: %v", werr)
	}
	if fut.Attempts() != 2 {
		t.Fatalf("future attempts = %d, want 2", fut.Attempts())
	}
	if r.StatusNow() != run.Done {
		t.Fatalf("status = %s", r.StatusNow())
	}
	if len(r.AttemptHistory()) != 2 {
		t.Fatalf("attempts: %+v", r.AttemptHistory())
	}
	sum := Summarize(reg.DB())
	if sum.Retried != 1 {
		t.Fatalf("summary: %s", sum)
	}
}
