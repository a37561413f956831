package gateway

import (
	"fmt"
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

// TenantOf extracts the tenant from a gateway job ID, or "" for a job
// ID the gateway did not mint.
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

// QuotaExceededError reports a launch refused by admission control:
// its jobs would overflow the tenant's in-flight cap plus queue bound.
// The gateway maps it to HTTP 429 with a Retry-After header.
type QuotaExceededError struct {
	Tenant     string        // tenant whose quota refused the launch
	Reason     string        // "queue full"
	Limit      int           // the limit that was hit
	RetryAfter time.Duration // suggested backoff before resubmitting
}

func (e *QuotaExceededError) Error() string {
	return fmt.Sprintf("gateway: tenant %q over quota: %s (limit %d)", e.Tenant, e.Reason, e.Limit)
}

// tenantState is one tenant's admission bookkeeping.
type tenantState struct {
	inflight int         // jobs submitted to the executor, result pending
	parked   []tasks.Job // bounded queue awaiting capacity
	lastSeq  uint64      // dispatch recency, for fair tie-breaking
}

// Controller is the gateway's admission control: per-tenant in-flight
// caps, bounded parked queues, and weighted fair dispatch. When
// capacity frees, the parked tenant with the lowest in-flight/weight
// ratio dispatches next, so a tenant flooding its queue cannot starve a
// lighter one. The launch handler parks work with Reserve and Kick
// submits it to the executor, one in-flight slot per job; the result
// pump frees the slot with Release.
type Controller struct {
	// RetryAfter is the backoff hint attached to rejections (default 1s).
	RetryAfter time.Duration

	mu       sync.Mutex
	quotas   map[string]Quota
	fallback Quota
	state    map[string]*tenantState
	admitted map[string]string // job ID -> tenant, for every slot held
	seq      uint64

	// dispatchMu serializes Kick loops, so jobs reach the executor in
	// the order the fairness picks made.
	dispatchMu sync.Mutex
	submit     func(tasks.Job) error // the executor's Submit; set by Bind
	onDrop     func(tasks.Job, error)
}

// NewController builds a controller over the config's quotas. Bind must
// be called before any job parks.
func NewController(cfg *Config) *Controller {
	c := &Controller{
		RetryAfter: time.Second,
		state:      make(map[string]*tenantState),
		admitted:   make(map[string]string),
	}
	c.SetConfig(cfg)
	return c
}

// Bind points the controller at the executor's submit path and an
// optional drop callback invoked when a parked job is lost because the
// executor refused it (closed during shutdown).
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

// Release frees the in-flight slot a dispatched job holds, once its
// result is read, and dispatches parked work into it. It is idempotent
// per job ID: a durable broker redelivers a finished job's recorded
// result when the job is submitted again, and only the first delivery
// frees the slot.
func (c *Controller) Release(jobID string) {
	if c.free(jobID) {
		c.Kick()
	}
}

// free gives back the slot jobID holds, reporting whether it held one.
func (c *Controller) free(jobID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	tenant, ok := c.admitted[jobID]
	if ok {
		delete(c.admitted, jobID)
		c.state[tenant].inflight--
	}
	return ok
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
		return &QuotaExceededError{
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

// Kick submits parked jobs while capacity allows, always picking the
// tenant with the lowest in-flight/weight ratio (ties broken by least
// recent dispatch). Loops are serialized. A job the executor refuses
// gives its slot back and is handed to onDrop, which fails its run.
func (c *Controller) Kick() {
	c.dispatchMu.Lock()
	defer c.dispatchMu.Unlock()
	if c.submit == nil {
		return
	}
	for {
		j, ok := c.pick()
		if !ok {
			return
		}
		if err := c.submit(j); err != nil {
			c.free(j.ID)
			if c.onDrop != nil {
				c.onDrop(j, err)
			}
		}
	}
}

// pick pops the next job under the weighted-fair policy and reserves
// its tenant's in-flight slot, or reports none dispatchable.
func (c *Controller) pick() (tasks.Job, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var (
		best      *tenantState
		bestName  string
		bestRatio float64
	)
	for name, st := range c.state {
		if len(st.parked) == 0 {
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
		return tasks.Job{}, false
	}
	j := best.parked[0]
	best.parked = best.parked[1:]
	c.seq++
	best.lastSeq = c.seq
	best.inflight++
	c.admitted[j.ID] = bestName
	gwAdmitted.With(bestName).Inc()
	return j, true
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
