package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"gem5art/internal/core/tasks"
	"gem5art/internal/database"
	"gem5art/internal/gateway"
	"gem5art/internal/sim"
	"gem5art/internal/sim/cpu"
	"gem5art/internal/sim/gpu"
	"gem5art/internal/sim/kernel"
	"gem5art/internal/statusd"
	"gem5art/internal/telemetry"
	"gem5art/internal/workloads"
)

const (
	svcTenant = "bench"
	svcToken  = "bench-token"
	// pollEvery is the client's status-poll interval: coarse enough
	// that polling does not take a core from the two workers.
	pollEvery = 5 * time.Millisecond
	// launchTimeout fails a launch that never finishes.
	launchTimeout = 60 * time.Second
)

// bootJob and gpuJob are cmd/gem5worker's handlers, re-declared here
// over the same kernel.Boot / gpu.Run calls because that package is a
// main package and cannot be imported.
func bootJob(payload json.RawMessage) (any, error) {
	var p struct {
		Kernel string `json:"kernel"`
		CPU    string `json:"cpu"`
		Mem    string `json:"mem"`
		Cores  int    `json:"cores"`
		Boot   string `json:"boot"`
	}
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil, fmt.Errorf("bad boot payload: %w", err)
	}
	res := kernel.Boot(kernel.Spec{
		Kernel: kernel.Version(p.Kernel),
		CPU:    cpu.Model(p.CPU),
		Mem:    p.Mem,
		Cores:  p.Cores,
		Boot:   kernel.BootType(p.Boot),
	}, 0)
	return map[string]any{
		"outcome":     string(res.Outcome),
		"sim_seconds": res.SimTicks.Seconds(),
		"insts":       res.Insts,
	}, nil
}

func gpuJob(payload json.RawMessage) (any, error) {
	var p struct {
		App   string `json:"app"`
		Alloc string `json:"alloc"`
	}
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil, fmt.Errorf("bad gpu payload: %w", err)
	}
	w, err := workloads.FindGPUWorkload(p.App)
	if err != nil {
		return nil, err
	}
	res, err := gpu.Run(gpu.Config{}, w.Kernel, gpu.Allocator(p.Alloc))
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"shader_ticks": res.Cycles,
		"ops":          res.Ops,
	}, nil
}

// handlerLog collects the traced pass's per-job handler intervals. The
// worker hands a handler only the payload, so jobs are attributed to
// the launch in flight — there is only ever one (closed loop, one
// client).
type handlerLog struct {
	mu  sync.Mutex
	ivs []interval
}

func (l *handlerLog) wrap(h tasks.JobHandler) tasks.JobHandler {
	return func(payload json.RawMessage) (any, error) {
		start := time.Now()
		out, err := h(payload)
		end := time.Now()
		l.mu.Lock()
		l.ivs = append(l.ivs, interval{start, end})
		l.mu.Unlock()
		return out, err
	}
}

// take returns the intervals logged so far and clears the log.
func (l *handlerLog) take() []interval {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.ivs
	l.ivs = nil
	return out
}

// svcSweep is the svc_sweep workload: the system assembled in one
// process the way `gem5artd -gateway` plus `gem5worker` assemble it.
type svcSweep struct {
	cfg    *config
	dir    string
	db     database.Store
	broker *tasks.Broker
	worker *tasks.Worker
	daemon *statusd.Daemon
	client *http.Client
	base   string

	// Launch specs: the full suites with every axis spelled out in the
	// seed's order, so the same cells run in a seed-dependent order.
	boot, gpu gateway.LaunchSpec

	// Traced-pass state.
	handlers   *handlerLog
	launches   []interval // boot and gpu launches, for idle accounting
	handlerIvs []interval
	queueWait  []time.Duration
	resultTail []time.Duration
	telBefore  map[string]float64
	diskBefore int64
	journal    int64
}

func strs[T ~string](vs []T) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = string(v)
	}
	return out
}

func setupSvcSweep(c *config, p *pass) (instance, error) {
	w := &svcSweep{cfg: c, client: &http.Client{Timeout: 30 * time.Second}}
	cores := make([]string, len(kernel.CoreCounts))
	for i, n := range kernel.CoreCounts {
		cores[i] = fmt.Sprint(n)
	}
	w.boot = gateway.LaunchSpec{Suite: "boot", Axes: map[string][]string{
		"kernel": permuted(c, "svc/kernel", strs(kernel.BootKernels)),
		"cpu":    permuted(c, "svc/cpu", strs(cpu.AllModels)),
		"mem":    permuted(c, "svc/mem", kernel.MemSystems),
		"cores":  permuted(c, "svc/cores", cores),
		"boot":   permuted(c, "svc/boot", strs(kernel.BootTypes)),
	}}
	w.gpu = gateway.LaunchSpec{Suite: "gpu", Axes: map[string][]string{
		"app":   permuted(c, "svc/app", workloads.GPUWorkloadNames()),
		"alloc": permuted(c, "svc/alloc", []string{string(gpu.Simple), string(gpu.Dynamic)}),
	}}

	var err error
	if w.dir, err = c.tempDir("svc-"); err != nil {
		return nil, err
	}
	fail := func(err error) (instance, error) {
		w.close()
		return nil, err
	}
	// Default engine options: journaled, fsync on every commit.
	if w.db, err = database.Open(w.dir); err != nil {
		return fail(err)
	}
	gcfg := &gateway.Config{
		// One 480-job launch must fit in flight + queued; admission then
		// parks all but 8 jobs and feeds the broker as results return.
		DefaultQuota: gateway.Quota{MaxInFlight: 8, MaxQueued: 512, Weight: 1},
		// The edge limiter is not under test: 200 polls/s must pass.
		DefaultRate: gateway.Rate{RPS: 100_000, Burst: 100_000},
		Tenants:     []gateway.TenantConfig{{ID: svcTenant, Token: svcToken}},
	}
	ctrl := gateway.NewController(gcfg)
	if w.broker, err = tasks.NewBrokerWithOptions("127.0.0.1:0",
		tasks.BrokerOptions{Admission: ctrl, DB: w.db}); err != nil {
		return fail(err)
	}
	handlers := map[string]tasks.JobHandler{"boot": bootJob, "gpu": gpuJob}
	if p.traced() {
		w.handlers = &handlerLog{}
		for k, h := range handlers {
			handlers[k] = w.handlers.wrap(h)
		}
	}
	if w.worker, err = tasks.NewWorkerWithOptions(w.broker.Addr(), tasks.WorkerOptions{
		Capacity: c.nproc,
		Handlers: handlers,
	}); err != nil {
		return fail(err)
	}
	s := statusd.New(w.db)
	s.Broker = w.broker
	g := gateway.New(gcfg, ctrl, w.broker, w.db, s.Handler())
	if w.daemon, err = statusd.StartDaemon("127.0.0.1:0", s, g.Handler()); err != nil {
		return fail(err)
	}
	w.base = "http://" + w.daemon.Addr

	// Warm-up: one untimed round, so TCP sessions, metric children and
	// the first-use paths of every cell are paid before timing.
	warm := newPass(false)
	w.round(warm)
	if warm.failed > 0 {
		return fail(fmt.Errorf("svc_sweep warm-up: %s", warm.errs[0]))
	}
	if p.traced() {
		w.handlers.take()
		w.telBefore = telemetry.Default.Snapshot()
		w.diskBefore, _ = treeBytes(w.dir)
	}
	return w, nil
}

// do performs one authenticated request and decodes the JSON reply.
func (w *svcSweep) do(method, path string, body any, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, w.base+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+svcToken)
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// launch is one op's worth of service work: submit, poll until
// finished, fetch the runs, and check all of it.
func (w *svcSweep) launch(p *pass, o opRef, spec gateway.LaunchSpec) (runs int, insts uint64, err error) {
	start := time.Now()
	var journalBefore map[string]int64
	if p.traced() {
		_, journalBefore = treeBytes(w.dir)
	}

	sp := p.tr.begin("gateway.submit."+spec.Suite, o.id, o.span)
	var acc struct {
		Launch string `json:"launch"`
		Jobs   int    `json:"jobs"`
		Error  string `json:"error"`
	}
	code, err := w.do("POST", "/api/launches", spec, &acc)
	p.tr.end(sp)
	accepted := time.Now()
	if err != nil {
		return 0, 0, err
	}
	if code != http.StatusAccepted {
		return 0, 0, fmt.Errorf("submit %s: status %d: %s", spec.Suite, code, acc.Error)
	}

	var st struct {
		Status string  `json:"status"`
		Jobs   float64 `json:"jobs"`
		Done   float64 `json:"done"`
		Failed float64 `json:"failed"`
	}
	for {
		sp := p.tr.begin("gateway.status", o.id, o.span)
		code, err := w.do("GET", "/api/launches/"+acc.Launch, nil, &st)
		p.tr.end(sp)
		if err != nil {
			return 0, 0, err
		}
		if code != http.StatusOK {
			return 0, 0, fmt.Errorf("status %s: status %d", acc.Launch, code)
		}
		if st.Status == "finished" {
			break
		}
		if time.Since(start) > launchTimeout {
			return 0, 0, fmt.Errorf("launch %s: not finished after %s (%v/%v done)",
				acc.Launch, launchTimeout, st.Done, st.Jobs)
		}
		time.Sleep(pollEvery)
	}
	finished := time.Now()

	sp = p.tr.begin("gateway.runs_fetch."+spec.Suite, o.id, o.span)
	var list struct {
		Runs []struct {
			Status string         `json:"status"`
			Params map[string]any `json:"params"`
			Output map[string]any `json:"output"`
		} `json:"runs"`
	}
	code, err = w.do("GET", "/api/launches/"+acc.Launch+"/runs", nil, &list)
	p.tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	if code != http.StatusOK {
		return 0, 0, fmt.Errorf("runs %s: status %d", acc.Launch, code)
	}

	if p.traced() {
		ivs := w.handlers.take()
		w.handlerIvs = append(w.handlerIvs, ivs...)
		w.launches = append(w.launches, interval{accepted, finished})
		var lastEnd time.Time
		for _, iv := range ivs {
			p.tr.record("tasks.handler."+spec.Suite, o.id, o.span, iv.start, iv.end)
			wait := iv.start.Sub(accepted)
			if wait < 0 {
				wait = 0 // dispatched before the 202 reached the client
			}
			w.queueWait = append(w.queueWait, wait)
			if iv.end.After(lastEnd) {
				lastEnd = iv.end
			}
		}
		if !lastEnd.IsZero() {
			w.resultTail = append(w.resultTail, finished.Sub(lastEnd))
		}
		_, journalAfter := treeBytes(w.dir)
		w.journal += grown(journalBefore, journalAfter)
	}

	// Checks: the launch document closed out every job, and the run
	// list has one done run per job with the expected outcome.
	if int(st.Done) != acc.Jobs || st.Failed != 0 || int(st.Jobs) != acc.Jobs {
		return 0, 0, fmt.Errorf("launch %s: jobs=%d done=%v failed=%v", acc.Launch, acc.Jobs, st.Done, st.Failed)
	}
	if len(list.Runs) != acc.Jobs {
		return 0, 0, fmt.Errorf("launch %s: %d runs listed for %d jobs", acc.Launch, len(list.Runs), acc.Jobs)
	}
	for _, r := range list.Runs {
		if r.Status != "done" {
			return 0, 0, fmt.Errorf("launch %s: run status %q", acc.Launch, r.Status)
		}
		switch spec.Suite {
		case "boot":
			s := kernel.Spec{
				Kernel: kernel.Version(fmt.Sprint(r.Params["kernel"])),
				CPU:    cpu.Model(fmt.Sprint(r.Params["cpu"])),
				Mem:    fmt.Sprint(r.Params["mem"]),
				Boot:   kernel.BootType(fmt.Sprint(r.Params["boot"])),
			}
			if n, ok := r.Params["cores"].(float64); ok {
				s.Cores = int(n)
			}
			outcome := fmt.Sprint(r.Output["outcome"])
			if want := kernel.Expected(s); outcome != string(want) {
				return 0, 0, fmt.Errorf("launch %s: %s: outcome %s, expected %s", acc.Launch, s, outcome, want)
			}
			n, _ := r.Output["insts"].(float64)
			secs, _ := r.Output["sim_seconds"].(float64)
			insts += uint64(n)
			p.stat(s.String(), outcome, uint64(n), uint64(secs*float64(sim.TicksPerSecond)+0.5))
		case "gpu":
			ops, _ := r.Output["ops"].(float64)
			ticks, _ := r.Output["shader_ticks"].(float64)
			if ops == 0 {
				return 0, 0, fmt.Errorf("launch %s: gpu run without ops", acc.Launch)
			}
			insts += uint64(ops)
			p.stat(fmt.Sprintf("gpu %v %v", r.Params["app"], r.Params["alloc"]), "done", uint64(ops), uint64(ticks))
		}
	}
	return acc.Jobs, insts, nil
}

// round is one op: a 480-job boot launch then a 58-job gpu launch.
// The pair is the op so that the latency sample is unimodal.
func (w *svcSweep) round(p *pass) {
	p.op(func(o opRef) (int, uint64, error) {
		var runs int
		var insts uint64
		for _, spec := range []gateway.LaunchSpec{w.boot, w.gpu} {
			r, i, err := w.launch(p, o, spec)
			if err != nil {
				return 0, 0, err
			}
			runs += r
			insts += i
		}
		return runs, insts, nil
	})
}

func (w *svcSweep) finish(p *pass) {
	spans := p.tr.all()
	p.layer["gateway.submit_ms_p50"] = median(ms(durations(spans, "gateway.submit.boot")))
	p.layer["gateway.status_ms_p50"] = median(ms(durations(spans, "gateway.status")))
	p.layer["gateway.runs_fetch_ms_p50"] = median(ms(durations(spans, "gateway.runs_fetch.boot")))
	p.layer["gateway.result_tail_ms_p50"] = median(ms(w.resultTail))
	p.layer["tasks.queue_wait_ms_p50"] = median(ms(w.queueWait))
	p.layer["tasks.worker_idle_frac"] = idleFrac(w.handlerIvs, w.launches, w.cfg.nproc)

	after := telemetry.Default.Snapshot()
	p.layer["tasks.retries"] = counterDelta(w.telBefore, after, "gem5art_broker_retries_total", "") +
		counterDelta(w.telBefore, after, "gem5art_tasks_retries_total", "")
	diskAfter, _ := treeBytes(w.dir)
	reportDatabase(p, w.telBefore, after, w.journal, diskAfter-w.diskBefore)

	probeDispatch(p, w.cfg)
	probeStore(p, w.db, "t."+svcTenant+".runs", "job_id")
	// Reopen needs the store closed, which needs its users stopped.
	dir := w.dir
	w.stop()
	probeReopen(p, dir)
}

// stop shuts the service down in gem5artd's drain order. It does not
// wait for the gateway's result pump: Broker.Close never closes its
// Results channel, so gateway.Wait would block forever.
func (w *svcSweep) stop() {
	if w.daemon != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = w.daemon.Shutdown(ctx)
		cancel()
		w.daemon = nil
	}
	if w.worker != nil {
		w.worker.Close()
		w.worker = nil
	}
	if w.broker != nil {
		w.broker.Close()
		w.broker = nil
	}
	if w.db != nil {
		_ = w.db.Close()
		w.db = nil
	}
	w.client.CloseIdleConnections()
}

func (w *svcSweep) close() {
	w.stop()
	if w.dir != "" {
		_ = os.RemoveAll(w.dir)
	}
}
