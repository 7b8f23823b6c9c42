package serve

import (
	"context"
	"sort"
	"sync"

	"perfpred/internal/lqn"
	"perfpred/internal/parallel"
	"perfpred/internal/workload"
)

// solveKind selects what a batch worker computes for a job.
type solveKind int

const (
	solveRT       solveKind = iota // mean response time at a population
	solveCapacity                  // max clients under a goal (§8.2 search)
)

// solveJob is one queued layered-solver request. The response channel
// is buffered so a worker's send never blocks on a caller that gave up
// waiting (deadline expiry leaves the job to complete harmlessly).
type solveJob struct {
	kind   solveKind
	key    modelKey
	n      int     // population, for solveRT
	goalRT float64 // seconds, for solveCapacity
	ctx    context.Context
	resp   chan solveOut
}

type solveOut struct {
	rt    float64 // mean response time, for solveRT
	n     int     // max clients, for solveCapacity
	evals int
	err   error
}

// keyState is a worker-owned warm solving context for one
// (architecture, mix): the trade model built once plus a retained
// warm-started Solver whose cached resolution and previous queue
// lengths every solve in a batch reuses.
type keyState struct {
	model  *lqn.Model
	solver *lqn.Solver
	load   func(n int) workload.Workload
}

// batcher turns the service's exact layered-queuing queries into
// warm-start sweeps. Requests land in one bounded queue; each worker
// drains a batch, groups it by (architecture, mix) and sorts each
// group by population, then runs the group on a single warm-started
// solver — adjacent-population solves collapse into a sweep (PR 2
// measured ~11% fewer MVA iterations per step, and the model
// resolution is paid once) instead of N cold solves. A full queue
// rejects instantly with ErrOverloaded: the overload regime costs a
// channel send attempt, not a convoy.
type batcher struct {
	queue    chan *solveJob
	maxBatch int
	opt      lqn.Options

	makeState func(modelKey) (*keyState, error)

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

func newBatcher(workers, queueCap, maxBatch int, opt lqn.Options, makeState func(modelKey) (*keyState, error)) *batcher {
	b := &batcher{
		queue:     make(chan *solveJob, queueCap),
		maxBatch:  maxBatch,
		opt:       opt,
		makeState: makeState,
	}
	for i := 0; i < workers; i++ {
		b.wg.Add(1)
		go b.worker()
	}
	return b
}

// submit enqueues a job, rejecting with ErrOverloaded when the queue
// is full. It never blocks.
func (b *batcher) submit(j *solveJob) error {
	m := metrics.Load()
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrShuttingDown
	}
	select {
	case b.queue <- j:
		depth := int64(len(b.queue))
		b.mu.Unlock()
		m.solveQueueDepth.Set(depth)
		m.solveQueueHigh.Observe(depth)
		return nil
	default:
		b.mu.Unlock()
		m.rejectedOverload.Inc()
		return ErrOverloaded
	}
}

// close stops the workers after the queue drains, so every accepted
// job still gets an answer — the graceful-shutdown half of the drain
// contract.
func (b *batcher) close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.queue)
	}
	b.mu.Unlock()
	b.wg.Wait()
}

func (b *batcher) worker() {
	defer b.wg.Done()
	// Worker-owned solver states, bounded so a key churn cannot pin
	// unbounded models: least-recently-solved keys drop their workspace
	// and rebuild on next use.
	states := &parallel.Memo[modelKey, *keyState]{Capacity: 32}
	batch := make([]*solveJob, 0, b.maxBatch)
	for first := range b.queue {
		batch = append(batch[:0], first)
		// Opportunistic drain: everything already queued joins this
		// batch (up to maxBatch) and will share sorted warm sweeps.
		for len(batch) < b.maxBatch {
			j, ok := tryRecv(b.queue)
			if !ok {
				break
			}
			batch = append(batch, j)
		}
		m := metrics.Load()
		m.solveQueueDepth.Set(int64(len(b.queue)))
		m.batchSize.Observe(float64(len(batch)))

		// Group by key, ascending population within a key: each
		// group becomes one warm-start sweep.
		sort.SliceStable(batch, func(i, j int) bool {
			if batch[i].key != batch[j].key {
				return lessKey(batch[i].key, batch[j].key)
			}
			return batch[i].n < batch[j].n
		})
		for _, job := range batch {
			b.run(states, job)
		}
	}
}

// run executes one job on the worker's warm state for its key.
func (b *batcher) run(states *parallel.Memo[modelKey, *keyState], job *solveJob) {
	if err := job.ctx.Err(); err != nil {
		// The caller's deadline passed while the job sat in the queue;
		// skip the solve rather than burning a worker on a dead request.
		metrics.Load().deadlineExpired.Inc()
		job.resp <- solveOut{err: err}
		return
	}
	st, err := states.Do(job.key, func() (*keyState, error) { return b.makeState(job.key) })
	if err != nil {
		job.resp <- solveOut{err: err}
		return
	}
	switch job.kind {
	case solveRT:
		for i, p := range st.load(job.n) {
			st.model.Classes[i].Population = p.Clients
		}
		res, err := st.solver.Solve(st.model, b.opt)
		if err != nil {
			job.resp <- solveOut{err: err}
			return
		}
		metrics.Load().batchSolves.Inc()
		job.resp <- solveOut{rt: weightedMeanRT(st.model, res), evals: 1}
	case solveCapacity:
		n, evals, err := b.capacitySearch(st, job.goalRT)
		if err != nil {
			job.resp <- solveOut{err: err}
			return
		}
		metrics.Load().batchSolves.Add(uint64(evals))
		job.resp <- solveOut{n: n, evals: evals}
	}
}

// capacitySearch is the §8.2 client-count search generalised to a
// fixed mix: the layered model cannot be inverted, so it probes total
// populations (the mix split at each probe exactly as the RT path
// splits it) until the request-weighted mean response time breaks the
// goal, then bisects. It deliberately runs on a fresh warm-started
// solver with a fixed probe sequence — MaxClientsSearch's exponential
// probe then bisection — so a capacity answer never depends on what
// the worker happened to solve before it, and an offline rerun of the
// same query reproduces the served number exactly.
func (b *batcher) capacitySearch(st *keyState, goalRT float64) (clients, evals int, err error) {
	if goalRT <= 0 {
		return 0, 0, &badRequestError{msg: "goal response time must be positive"}
	}
	solver := lqn.NewSolver()
	solver.WarmStart = true
	evalAt := func(n int) (bool, error) {
		for i, p := range st.load(n) {
			st.model.Classes[i].Population = p.Clients
		}
		res, err := solver.Solve(st.model, b.opt)
		if err != nil {
			return false, err
		}
		evals++
		return weightedMeanRT(st.model, res) <= goalRT, nil
	}
	const limit = 1 << 20
	ok, err := evalAt(1)
	if err != nil {
		return 0, evals, err
	}
	if !ok {
		return 0, evals, nil
	}
	lo, hi := 1, 2
	for hi <= limit {
		ok, err := evalAt(hi)
		if err != nil {
			return 0, evals, err
		}
		if !ok {
			break
		}
		lo = hi
		hi *= 2
	}
	if hi > limit {
		hi = limit + 1
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		ok, err := evalAt(mid)
		if err != nil {
			return 0, evals, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, evals, nil
}

// tryRecv is a non-blocking receive that also tolerates a closed
// queue.
func tryRecv(q chan *solveJob) (*solveJob, bool) {
	select {
	case j, ok := <-q:
		return j, ok
	default:
		return nil, false
	}
}

func lessKey(a, b modelKey) bool {
	if a.arch != b.arch {
		return a.arch < b.arch
	}
	return a.buyPctTenth < b.buyPctTenth
}
