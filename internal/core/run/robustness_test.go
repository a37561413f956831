package run

import (
	"context"
	"errors"
	"strings"
	"testing"

	"gem5art/internal/core/artifact"
	"gem5art/internal/database"
	"gem5art/internal/diskimage"
	"gem5art/internal/faultinject"
	"gem5art/internal/workloads"
)

func TestCanTransitionTable(t *testing.T) {
	cases := []struct {
		from, to Status
		ok       bool
	}{
		{Queued, Running, true},
		{Running, Done, true},
		{Running, Failed, true},
		{Running, TimedOut, true},
		{Running, Running, true}, // reassignment after a lease expiry
		{Failed, Running, true},  // retry
		{TimedOut, Running, true},
		{Queued, Done, false},
		{Failed, Done, false},
		{Done, Running, false}, // completed work must never restart
		{Done, Failed, false},
		{Done, Queued, false},
	}
	for _, c := range cases {
		err := c.from.CanTransition(c.to)
		if c.ok && err != nil {
			t.Errorf("%s -> %s rejected: %v", c.from, c.to, err)
		}
		if !c.ok {
			var te *TransitionError
			if !errors.As(err, &te) {
				t.Errorf("%s -> %s: error %v is not a *TransitionError", c.from, c.to, err)
				continue
			}
			if te.From != c.from || te.To != c.to {
				t.Errorf("TransitionError fields: %+v", te)
			}
		}
	}
	if len(validNext[Done]) != 0 || len(validNext[Failed]) == 0 || len(validNext[Running]) == 0 {
		t.Fatal("validNext: Done must be the only terminal state of Done, Failed and Running")
	}
}

func TestExecuteRejectsDoneRun(t *testing.T) {
	e := newEnv(t)
	r, err := CreateFSRun(e.reg, e.fsSpec("once", "configs/run_exit.py", e.bootDisk,
		"cpu=kvmCPU", "num_cpus=1", "boot_type=init", "kernel=5.4.49"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r.StatusNow() != Done {
		t.Fatalf("status = %s", r.StatusNow())
	}
	err = r.Execute(context.Background())
	var te *TransitionError
	if !errors.As(err, &te) {
		t.Fatalf("re-executing a done run: err = %v, want *TransitionError", err)
	}
	if len(r.AttemptHistory()) != 1 {
		t.Fatalf("rejected execution still appended an attempt: %+v", r.AttemptHistory())
	}
}

// npbRun builds an NPB disk and a run over it — the retry tests need a
// workload whose handler passes through the "run.exec" fault point.
func npbRun(t *testing.T, e *env, name string) *Run {
	t.Helper()
	img, err := diskimage.Build(diskimage.Template{Name: "npb", OS: workloads.Ubuntu1804,
		Steps: []diskimage.Provisioner{{Type: "benchmarks", Suite: "npb"}}})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := e.reg.Register(artifact.Options{Name: "npb-disk-" + name, Typ: "disk image",
		Path: "disks/npb-" + name + ".img", Content: img.Serialize()})
	if err != nil {
		t.Fatal(err)
	}
	r, err := CreateFSRun(e.reg, e.fsSpec(name, "configs/run_npb.py", disk,
		"benchmark=cg", "cpu=TimingSimpleCPU", "num_cpus=1", "mem_sys=classic"))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestAttemptHistorySurvivesRetry drives the retry path by hand: a
// transient fault fails the first attempt, a second Execute succeeds,
// and both attempts land on the run document for gem5art report.
func TestAttemptHistorySurvivesRetry(t *testing.T) {
	e := newEnv(t)
	r := npbRun(t, e, "flaky-npb")
	r.SetInjector(faultinject.New(3, faultinject.Rule{Site: "run.exec", Kind: faultinject.Transient}))

	err := r.Execute(context.Background())
	if err == nil {
		t.Fatal("first attempt should fail with the injected fault")
	}
	if r.StatusNow() != Failed {
		t.Fatalf("status after fault = %s", r.StatusNow())
	}
	if err := r.Execute(context.Background()); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if r.StatusNow() != Done || r.Results.Outcome != "success" {
		t.Fatalf("retry: status=%s results=%+v", r.StatusNow(), r.Results)
	}

	hist := r.AttemptHistory()
	if len(hist) != 2 {
		t.Fatalf("attempt history: %+v", hist)
	}
	if hist[0].Status != Failed || !strings.Contains(hist[0].Err, "transient") {
		t.Fatalf("first attempt: %+v", hist[0])
	}
	if hist[1].Status != Done || hist[1].Err != "" {
		t.Fatalf("second attempt: %+v", hist[1])
	}

	doc := e.reg.DB().Collection(Collection).FindOne(database.Doc{"_id": r.ID})
	atts, ok := doc["attempts"].([]any)
	if !ok || len(atts) != 2 {
		t.Fatalf("doc attempts: %v", doc["attempts"])
	}
	first, _ := atts[0].(map[string]any)
	if first["status"] != "failed" {
		t.Fatalf("doc attempt 1: %v", first)
	}
	second, _ := atts[1].(map[string]any)
	if second["status"] != "done" {
		t.Fatalf("doc attempt 2: %v", second)
	}
	if doc["status"] != "done" {
		t.Fatalf("run status: %v", doc["status"])
	}
}

// TestHackBackResumesFromCheckpoint is the checkpoint-resume story: the
// first attempt boots, archives its checkpoint, then dies in phase 2;
// the retry must skip the boot and restore from the archived
// checkpoint, recording the provenance on the run document.
func TestHackBackResumesFromCheckpoint(t *testing.T) {
	e := newEnv(t)
	r, err := CreateFSRun(e.reg, e.fsSpec("hackback-flaky", "configs/run_hackback.py",
		e.bootDisk, "benchmark=boot-exit", "suite=boot-exit",
		"cpu=TimingSimpleCPU", "num_cpus=1"))
	if err != nil {
		t.Fatal(err)
	}
	r.SetInjector(faultinject.New(5,
		faultinject.Rule{Site: "run.hackback.phase2", Kind: faultinject.Transient}))

	if err := r.Execute(context.Background()); err == nil {
		t.Fatal("first attempt should fail after the checkpoint")
	}
	if r.StatusNow() != Failed {
		t.Fatalf("status = %s", r.StatusNow())
	}
	if _, hash, _ := r.PriorCheckpoint(); hash == "" {
		t.Fatal("failed attempt did not leave a resumable checkpoint")
	}

	if err := r.Execute(context.Background()); err != nil {
		t.Fatalf("resumed attempt failed: %v", err)
	}
	if r.StatusNow() != Done || r.Results.Outcome != "success" {
		t.Fatalf("resume: status=%s results=%+v", r.StatusNow(), r.Results)
	}
	if r.Results.ResumedFrom == "" {
		t.Fatal("Results.ResumedFrom not recorded")
	}
	if !strings.Contains(r.Results.Console, "resumed from checkpoint") {
		t.Fatalf("console does not show the resume: %q", r.Results.Console)
	}
	if r.Results.Stats["boot_insts"] == 0 {
		t.Fatal("resumed run lost the boot instruction count")
	}

	hist := r.AttemptHistory()
	if len(hist) != 2 || hist[1].ResumedFrom == "" {
		t.Fatalf("attempt history: %+v", hist)
	}
	doc := e.reg.DB().Collection(Collection).FindOne(database.Doc{"_id": r.ID})
	if doc["checkpoint_file"] != hist[1].ResumedFrom {
		t.Fatalf("doc checkpoint_file = %v, want %v", doc["checkpoint_file"], hist[1].ResumedFrom)
	}
	if doc["resumed_from"] != r.Results.ResumedFrom {
		t.Fatalf("doc resumed_from = %v", doc["resumed_from"])
	}
}
