package gateway

import (
	"errors"
	"strings"
	"sync"
	"time"

	"gem5art/internal/core/tasks"
)

// jobIDPrefix marks gateway-submitted jobs. IDs read
// "g/<tenant>/<launch>/<index>", so every layer — admission, the result
// pump, the shard ring — can recover the owning tenant from the job ID
// alone.
const jobIDPrefix = "g/"

// TenantOf extracts the tenant from a gateway job ID, or "" for jobs
// submitted by trusted in-process callers (which bypass quotas).
func TenantOf(jobID string) string {
	if !strings.HasPrefix(jobID, jobIDPrefix) {
		return ""
	}
	rest := jobID[len(jobIDPrefix):]
	tenant, _, ok := strings.Cut(rest, "/")
	if !ok {
		return ""
	}
	return tenant
}

// Backend is the control plane the gateway submits into: a single
// *tasks.Broker or a sharded *shard.Fleet, both of which expose the
// admission-gated TrySubmit and a result stream.
type Backend interface {
	TrySubmit(j tasks.Job) error
	Results() <-chan tasks.JobResult
}

// tenantState is one tenant's admission bookkeeping.
type tenantState struct {
	inflight int         // jobs admitted to the backend, result pending
	parked   []tasks.Job // bounded queue awaiting capacity
	lastSeq  uint64      // dispatch recency, for fair tie-breaking
}

// Controller implements tasks.Admission with per-tenant in-flight caps,
// bounded parked queues, and weighted fair dispatch: when capacity
// frees, the parked tenant with the lowest in-flight/weight ratio
// dispatches next, so a tenant flooding its queue cannot starve a
// lighter one. It is installed on the broker/fleet submit path
// (BrokerOptions.Admission / shard.Options.Admission) and fed parked
// work through Reserve + Kick by the gateway's launch handler.
type Controller struct {
	// RetryAfter is the backoff hint attached to rejections (default 1s).
	RetryAfter time.Duration

	mu       sync.Mutex
	quotas   map[string]Quota
	fallback Quota
	state    map[string]*tenantState
	admitted map[string]tasks.Job // job ID -> job, for idempotent Admit
	seq      uint64

	// dispatchMu serializes Kick loops so the capacity a pick observed
	// cannot be claimed by a concurrent picker before Admit runs.
	dispatchMu sync.Mutex
	submit     func(tasks.Job) error // backend TrySubmit; set by Bind
	onDrop     func(tasks.Job, error)
}

// NewController builds a controller over the config's quotas. Bind must
// be called before any job parks.
func NewController(cfg *Config) *Controller {
	c := &Controller{
		RetryAfter: time.Second,
		state:      make(map[string]*tenantState),
		admitted:   make(map[string]tasks.Job),
	}
	c.SetConfig(cfg)
	return c
}

// Bind points the controller at the backend submit path and an optional
// drop callback invoked when a parked job is lost because the backend
// refused it terminally (e.g. closed during shutdown).
func (c *Controller) Bind(submit func(tasks.Job) error, onDrop func(tasks.Job, error)) {
	c.dispatchMu.Lock()
	c.submit = submit
	c.onDrop = onDrop
	c.dispatchMu.Unlock()
}

// SetConfig swaps the quota table in place. Live in-flight counts and
// parked queues survive: a SIGHUP reload tightens or loosens limits for
// future decisions without dropping queued work.
func (c *Controller) SetConfig(cfg *Config) {
	quotas := make(map[string]Quota, len(cfg.Tenants))
	for _, tc := range cfg.Tenants {
		quotas[tc.ID] = cfg.QuotaFor(tc)
	}
	fallback := cfg.DefaultQuota
	if fallback.Weight < 1 {
		fallback.Weight = 1
	}
	if fallback.MaxInFlight < 1 {
		fallback.MaxInFlight = 1
	}
	c.mu.Lock()
	c.quotas = quotas
	c.fallback = fallback
	c.mu.Unlock()
}

func (c *Controller) quotaLocked(tenant string) Quota {
	if q, ok := c.quotas[tenant]; ok {
		return q
	}
	return c.fallback
}

func (c *Controller) stateLocked(tenant string) *tenantState {
	st, ok := c.state[tenant]
	if !ok {
		st = &tenantState{}
		c.state[tenant] = st
	}
	return st
}

// Admit implements tasks.Admission: it reserves one in-flight slot for
// the job's tenant or rejects with *tasks.QuotaExceededError. Jobs
// without a gateway tenant prefix are always admitted untracked — the
// in-process submit paths keep their semantics even with a controller
// installed. Admit is idempotent per job ID, matching the durable
// queue's resubmit deduplication.
func (c *Controller) Admit(j tasks.Job) error {
	tenant := TenantOf(j.ID)
	if tenant == "" {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.admitted[j.ID]; ok {
		return nil
	}
	st := c.stateLocked(tenant)
	q := c.quotaLocked(tenant)
	if st.inflight >= q.MaxInFlight {
		gwRejected.With(tenant, "in_flight").Inc()
		return &tasks.QuotaExceededError{
			Tenant: tenant, Reason: "max in-flight jobs",
			Limit: q.MaxInFlight, RetryAfter: c.RetryAfter,
		}
	}
	st.inflight++
	c.admitted[j.ID] = j
	gwAdmitted.With(tenant).Inc()
	return nil
}

// Release implements tasks.Admission: the job's result is recorded, its
// slot frees, and parked work dispatches. Unknown jobs are no-ops.
func (c *Controller) Release(j tasks.Job) {
	tenant := TenantOf(j.ID)
	if tenant == "" {
		return
	}
	c.mu.Lock()
	if _, ok := c.admitted[j.ID]; !ok {
		c.mu.Unlock()
		return
	}
	delete(c.admitted, j.ID)
	st := c.stateLocked(tenant)
	if st.inflight > 0 {
		st.inflight--
	}
	c.mu.Unlock()
	// Kick asynchronously: Release can be reached from inside a submit
	// call the dispatcher itself made (the broker's replay-of-done
	// dedup path), where a synchronous Kick would self-deadlock on
	// dispatchMu.
	go c.Kick()
}

// Reserve parks a launch's jobs behind the tenant's queue bound,
// rejecting the whole launch when in-flight + parked + new would exceed
// MaxInFlight + MaxQueued — a launch is admitted or refused atomically,
// never half-queued. Call Kick afterwards (once the launch is recorded)
// to start dispatching.
func (c *Controller) Reserve(tenant string, jobs []tasks.Job) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stateLocked(tenant)
	q := c.quotaLocked(tenant)
	if st.inflight+len(st.parked)+len(jobs) > q.MaxInFlight+q.MaxQueued {
		gwRejected.With(tenant, "queue_full").Inc()
		return &tasks.QuotaExceededError{
			Tenant: tenant, Reason: "queue full",
			Limit: q.MaxInFlight + q.MaxQueued, RetryAfter: c.RetryAfter,
		}
	}
	st.parked = append(st.parked, jobs...)
	return nil
}

// CancelPrefix removes parked jobs whose IDs start with prefix and
// returns them — the cancel path for a launch whose jobs have not yet
// dispatched. In-flight jobs are not recalled; their results arrive and
// release normally.
func (c *Controller) CancelPrefix(tenant, prefix string) []tasks.Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.state[tenant]
	if !ok {
		return nil
	}
	var canceled []tasks.Job
	kept := st.parked[:0]
	for _, j := range st.parked {
		if strings.HasPrefix(j.ID, prefix) {
			canceled = append(canceled, j)
		} else {
			kept = append(kept, j)
		}
	}
	st.parked = kept
	return canceled
}

// Kick dispatches parked jobs while capacity allows, always picking the
// tenant with the lowest in-flight/weight ratio (ties broken by least
// recent dispatch). Loops are serialized: the fairness pick and the
// Admit that consumes its capacity cannot interleave with another loop.
func (c *Controller) Kick() {
	c.dispatchMu.Lock()
	defer c.dispatchMu.Unlock()
	if c.submit == nil {
		return
	}
	skip := make(map[string]bool)
	for {
		j, tenant, ok := c.pick(skip)
		if !ok {
			return
		}
		err := c.submit(j)
		if err == nil {
			continue
		}
		var quota *tasks.QuotaExceededError
		if errors.As(err, &quota) {
			// Lost a race with a direct TrySubmit; put the job back in
			// front and try other tenants this round.
			c.requeueFront(tenant, j)
			skip[tenant] = true
			continue
		}
		// Terminal refusal (backend closed): the job is dropped, not
		// silently — the gateway's onDrop marks its run failed.
		if c.onDrop != nil {
			c.onDrop(j, err)
		}
	}
}

// pick pops the next job under the weighted-fair policy, or reports
// none dispatchable.
func (c *Controller) pick(skip map[string]bool) (tasks.Job, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var (
		best      *tenantState
		bestName  string
		bestRatio float64
	)
	for name, st := range c.state {
		if skip[name] || len(st.parked) == 0 {
			continue
		}
		q := c.quotaLocked(name)
		if st.inflight >= q.MaxInFlight {
			continue
		}
		ratio := float64(st.inflight) / float64(q.Weight)
		if best == nil || ratio < bestRatio ||
			(ratio == bestRatio && st.lastSeq < best.lastSeq) {
			best, bestName, bestRatio = st, name, ratio
		}
	}
	if best == nil {
		return tasks.Job{}, "", false
	}
	j := best.parked[0]
	best.parked = best.parked[1:]
	c.seq++
	best.lastSeq = c.seq
	return j, bestName, true
}

func (c *Controller) requeueFront(tenant string, j tasks.Job) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stateLocked(tenant)
	st.parked = append([]tasks.Job{j}, st.parked...)
}

// InFlight reports a tenant's current admitted-but-unfinished count.
func (c *Controller) InFlight(tenant string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.state[tenant]; ok {
		return st.inflight
	}
	return 0
}

// Queued reports a tenant's parked-queue depth.
func (c *Controller) Queued(tenant string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.state[tenant]; ok {
		return len(st.parked)
	}
	return 0
}
