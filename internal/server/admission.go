package server

import (
	"context"
	"math"
	"net/http"
	"sync"
	"time"

	"repliflow/internal/core"
)

// ClientIDHeader is the request header carrying the tenant identity used
// for per-client admission control. Requests may alternatively pass the
// "client" query parameter; requests carrying neither share the
// AnonymousClient bucket.
const ClientIDHeader = "X-Client-Id"

// AnonymousClient is the tenant identity of requests that carry no
// client id.
const AnonymousClient = "anonymous"

// ClientID extracts the tenant identity of a request: the X-Client-Id
// header, else the "client" query parameter, else AnonymousClient. The
// replay recorder stores this identity in trace events so a replayed
// request lands in the same bucket.
func ClientID(r *http.Request) string {
	if id := r.Header.Get(ClientIDHeader); id != "" {
		return id
	}
	if id := r.URL.Query().Get("client"); id != "" {
		return id
	}
	return AnonymousClient
}

// Admission costs, in tokens. A request debits its bucket by the cost of
// the work it asks for, classified before solving (core.ClassifyCell):
// polynomial cells are cheap, NP-hard cells under an anytime budget are
// priced between (their latency is bounded by the budget), and NP-hard
// exhaustive solves — the requests that can monopolize workers for
// seconds — pay the most. A Pareto sweep multiplies its instance's cost
// by paretoCostFactor, since one sweep solves many bounded problems.
const (
	costPoly         = 1
	costAnytime      = 4
	costExhaustive   = 16
	paretoCostFactor = 4
)

// solveCost prices one solve of pr under opts.
func solveCost(pr core.Problem, opts core.Options) float64 {
	if core.ClassifyCell(core.CellKeyOf(pr)).Complexity.Polynomial() {
		return costPoly
	}
	if opts.AnytimeBudget > 0 {
		return costAnytime
	}
	return costExhaustive
}

// batchCost prices a batch as the sum of its instances' costs.
// Duplicates coalesce in the engine but still pay here: admission prices
// the requested work, not the marginal compute.
func batchCost(problems []core.Problem, opts core.Options) float64 {
	var cost float64
	for _, pr := range problems {
		cost += solveCost(pr, opts)
	}
	return cost
}

// maxBuckets bounds the tenant-bucket map: beyond it, stale buckets
// (refilled to capacity, so indistinguishable from fresh ones) are
// swept, keeping memory bounded under client-id churn.
const maxBuckets = 4096

// tokenBucket is one tenant's admission state. Time is carried in
// explicitly (admission.now), so tests drive refill with a fake clock.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// admission applies per-client token-bucket rate limits. The zero rate
// disables it (admission.enabled). Buckets refill at rate tokens/second
// up to burst; a request costing more than the available tokens is
// rejected with the duration after which the bucket will cover it.
type admission struct {
	rate  float64
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*tokenBucket
}

func newAdmission(rate, burst float64) *admission {
	return &admission{
		rate:    rate,
		burst:   burst,
		now:     time.Now,
		buckets: make(map[string]*tokenBucket),
	}
}

// enabled reports whether rate limiting is configured.
func (a *admission) enabled() bool { return a != nil && a.rate > 0 }

// admit debits cost tokens from client's bucket. When the bucket cannot
// cover the cost, nothing is debited and the returned retry-after is the
// time until refill covers it (a request costing more than one full
// bucket is admitted only when the bucket is full, so it is never
// unservable). Admission is independent of queueing: an admitted request
// may still wait for a solve slot.
func (a *admission) admit(client string, cost float64) (retryAfter time.Duration, ok bool) {
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.buckets[client]
	if b == nil {
		if len(a.buckets) >= maxBuckets {
			a.sweepLocked(now)
		}
		b = &tokenBucket{tokens: a.burst, last: now}
		a.buckets[client] = b
	} else {
		b.tokens = math.Min(a.burst, b.tokens+a.rate*now.Sub(b.last).Seconds())
		b.last = now
	}
	// Oversized requests (cost > burst) are admitted from a full bucket,
	// which then goes negative: the tenant pays the excess as extra
	// refill time before its next admission.
	if b.tokens >= cost || (cost > a.burst && b.tokens >= a.burst) {
		b.tokens -= cost
		return 0, true
	}
	need := cost
	if cost > a.burst {
		need = a.burst
	}
	return time.Duration((need - b.tokens) / a.rate * float64(time.Second)), false
}

// sweepLocked drops buckets that have refilled to capacity: a full
// bucket is indistinguishable from a fresh one, so dropping it loses no
// state.
func (a *admission) sweepLocked(now time.Time) {
	for id, b := range a.buckets {
		if math.Min(a.burst, b.tokens+a.rate*now.Sub(b.last).Seconds()) >= a.burst {
			delete(a.buckets, id)
		}
	}
}

// tenants counts the live buckets (for /metrics).
func (a *admission) tenants() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.buckets)
}

// slotWaiter is one queued acquire. granted marks a slot handed to the
// waiter by release; if the waiter's context won the race instead, it
// returns the slot itself.
type slotWaiter struct {
	ch      chan struct{}
	granted bool
}

// fairQueue is a weighted-fair semaphore over the server's solve slots:
// instead of every request racing one channel — where a tenant flooding
// requests statistically starves everyone else — waiters queue per
// tenant and freed slots are granted round-robin across tenants (each
// tenant's own queue stays FIFO). A tenant with weight w receives up to
// w consecutive grants per rotation (deficit-style weighted round-robin);
// unknown tenants weigh 1. With a single tenant the queue degenerates to
// the plain FIFO semaphore it replaced.
type fairQueue struct {
	capacity int
	weights  map[string]int

	mu      sync.Mutex
	inUse   int
	waiting int
	queues  map[string][]*slotWaiter
	ring    []string // rotation order of tenants with waiters
	cursor  int
	credit  int // grants left for ring[cursor] before rotating
}

func newFairQueue(capacity int, weights map[string]int) *fairQueue {
	return &fairQueue{
		capacity: capacity,
		weights:  weights,
		queues:   make(map[string][]*slotWaiter),
	}
}

func (q *fairQueue) weightOf(client string) int {
	if w := q.weights[client]; w > 1 {
		return w
	}
	return 1
}

// acquire claims a solve slot for client, queueing fairly when the pool
// is full (or other tenants are already queued — arrivals never barge
// past the queue). It returns ctx.Err() if the context dies first.
func (q *fairQueue) acquire(ctx context.Context, client string) error {
	q.mu.Lock()
	if q.inUse < q.capacity && q.waiting == 0 {
		q.inUse++
		q.mu.Unlock()
		return nil
	}
	w := &slotWaiter{ch: make(chan struct{})}
	if _, ok := q.queues[client]; !ok {
		q.ring = append(q.ring, client)
	}
	q.queues[client] = append(q.queues[client], w)
	q.waiting++
	q.mu.Unlock()

	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		q.mu.Lock()
		if w.granted {
			// The grant raced our cancellation: we own a slot we will not
			// use. Hand it onwards.
			q.mu.Unlock()
			q.release()
			return ctx.Err()
		}
		q.removeLocked(client, w)
		q.mu.Unlock()
		return ctx.Err()
	}
}

// removeLocked withdraws a cancelled waiter from its tenant queue.
func (q *fairQueue) removeLocked(client string, w *slotWaiter) {
	queue := q.queues[client]
	for i, cand := range queue {
		if cand == w {
			q.queues[client] = append(queue[:i:i], queue[i+1:]...)
			q.waiting--
			return
		}
	}
}

// release frees a slot: the next waiter under weighted round-robin
// inherits it directly, otherwise the slot returns to the pool.
func (q *fairQueue) release() {
	q.mu.Lock()
	if w, ok := q.nextLocked(); ok {
		w.granted = true
		close(w.ch)
	} else {
		q.inUse--
	}
	q.mu.Unlock()
}

// nextLocked pops the next waiter: the tenant at the rotation cursor is
// granted up to weight slots, then the cursor advances; tenants whose
// queues emptied leave the rotation.
func (q *fairQueue) nextLocked() (*slotWaiter, bool) {
	for len(q.ring) > 0 {
		if q.cursor >= len(q.ring) {
			q.cursor = 0
		}
		client := q.ring[q.cursor]
		queue := q.queues[client]
		if len(queue) == 0 {
			delete(q.queues, client)
			q.ring = append(q.ring[:q.cursor:q.cursor], q.ring[q.cursor+1:]...)
			q.credit = 0
			continue
		}
		if q.credit <= 0 {
			q.credit = q.weightOf(client)
		}
		w := queue[0]
		q.queues[client] = queue[1:]
		q.waiting--
		q.credit--
		if q.credit == 0 {
			q.cursor++
		}
		return w, true
	}
	return nil, false
}

// queued counts the waiters currently queued for a slot (for /metrics).
func (q *fairQueue) queued() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.waiting
}
