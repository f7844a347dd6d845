// open.go is the open-system face of the cluster package: N app-server
// nodes behind a load balancer over sharded database backends, fed by an
// open arrival process instead of a fixed population of closed-loop
// drivers.
//
// Where Coordinator co-simulates two full memory-system engines in
// lockstep, OpenSim is a discrete-event queueing model of the whole
// machine room — the level of detail at which overload behavior lives:
// bounded queues, load-balancer routing, per-backend concurrency limits,
// timeouts, retries, and client patience. Requests carry reqtrace spans,
// so goodput-vs-offered-load and p99-vs-load curves fall out of the same
// HDR/SLO pipeline as the closed-loop workloads.
//
// Determinism: every stochastic decision draws from streams derived from
// one seed, events are ordered by (time, insertion sequence), and the
// optional collector is passive — the same seed produces byte-identical
// results with observability on or off.
package cluster

import (
	"fmt"

	"repro/internal/arrival"
	"repro/internal/db"
	"repro/internal/evq"
	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/obs/reqtrace"
	"repro/internal/simrand"
)

// Peer-id conventions for fault schedules aimed at the open topology:
// shard k is peer ShardPeerBase+k, node i is peer NodePeerBase+i.
const (
	ShardPeerBase uint8 = 1
	NodePeerBase  uint8 = 100
)

// ShardPeer returns the fault-schedule peer id of shard k.
func ShardPeer(k int) uint8 { return ShardPeerBase + uint8(k) }

// NodePeer returns the fault-schedule peer id of node i.
func NodePeer(i int) uint8 { return NodePeerBase + uint8(i) }

// LBPolicy selects the load balancer's routing discipline.
type LBPolicy uint8

const (
	// RoundRobin rotates across healthy nodes.
	RoundRobin LBPolicy = iota
	// LeastInFlight routes to the healthy node with the fewest queued plus
	// in-service requests.
	LeastInFlight
)

// String names the policy as accepted by ParseLBPolicy.
func (p LBPolicy) String() string {
	switch p {
	case RoundRobin:
		return "rr"
	case LeastInFlight:
		return "least"
	default:
		return fmt.Sprintf("LBPolicy(%d)", uint8(p))
	}
}

// ParseLBPolicy parses rr|least.
func ParseLBPolicy(s string) (LBPolicy, error) {
	switch s {
	case "rr":
		return RoundRobin, nil
	case "least":
		return LeastInFlight, nil
	}
	return 0, fmt.Errorf("cluster: unknown lb policy %q (want rr|least)", s)
}

// WorkClass is one entry of the request mix.
type WorkClass struct {
	Name   string
	Weight float64 // mix fraction (normalized over the mix)
	// Priority orders brown-out shedding: 0 is revenue-critical and never
	// shed by degradation; higher numbers shed earlier.
	Priority int
	// CPUCycles is the mean app-server compute per request.
	CPUCycles uint64
	// DBCalls is the number of synchronous shard round trips.
	DBCalls int
	// Request/response sizes on the client wire and the shard request
	// size; every shard response is dbRespBytes.
	ReqBytes, RespBytes uint32
	DBReqBytes          uint32
}

// dbRespBytes is the size of every shard response.
const dbRespBytes uint32 = 1024

// DefaultMix is a three-class e-commerce mix: critical orders, bulk
// browsing, and optional recommendations (the first brown-out victim).
func DefaultMix() []WorkClass {
	return []WorkClass{
		{Name: "order", Weight: 0.3, Priority: 0, CPUCycles: 150_000, DBCalls: 3,
			ReqBytes: 512, RespBytes: 2048, DBReqBytes: 256},
		{Name: "browse", Weight: 0.5, Priority: 1, CPUCycles: 75_000, DBCalls: 1,
			ReqBytes: 256, RespBytes: 4096, DBReqBytes: 128},
		{Name: "recommend", Weight: 0.2, Priority: 2, CPUCycles: 250_000, DBCalls: 2,
			ReqBytes: 256, RespBytes: 2048, DBReqBytes: 256},
	}
}

// OpenConfig parameterizes the open-system topology.
type OpenConfig struct {
	Nodes          int // app-server nodes
	WorkersPerNode int // service parallelism per node
	QueueCap       int // bounded per-node queue (ignored when controls off)
	Shards         int // database shards
	Shard          db.Config
	LB             LBPolicy
	Mix            []WorkClass
	// DeadlineCycles is client patience: completions later than this after
	// the client sent the request are wasted work, excluded from goodput.
	DeadlineCycles uint64
	// Controls arms the adaptive overload controllers (the bounded queue,
	// CoDel, the AIMD limit, the retry budget and brownout). Off is the
	// naive baseline: unbounded-ish queues, no queue-delay admission, no
	// concurrency limit, no retry budget, no degradation — timeouts and
	// retries only, the configuration that collapses under overload.
	Controls bool

	// Arrival drives open-system traffic. It is ignored in closed-loop
	// mode (ClosedClients > 0), where each client sends, waits for its
	// response, thinks ~Exp(ThinkCycles), and sends again.
	Arrival       arrival.Config
	ClosedClients int
	ThinkCycles   float64
}

// uncappedQueue stands in for "unbounded" when controls are off; the naive
// baseline still cannot queue infinitely (memory), it just queues far past
// any useful deadline.
const uncappedQueue = 1 << 20

// DefaultOpenConfig is a 4-node / 2-shard machine room on the default
// Ethernet, with a 25 ms client deadline and controls on. The deadline
// clears the worst-case bounded-queue delay (~11 ms at QueueCap 64) plus
// service with room to spare, so with controls on a request the system
// chose to serve is a request the client still wants.
func DefaultOpenConfig() OpenConfig {
	return OpenConfig{
		Nodes:          4,
		WorkersPerNode: 8,
		QueueCap:       64,
		Shards:         2,
		Shard:          db.DefaultDatabaseConfig(),
		LB:             LeastInFlight,
		Mix:            DefaultMix(),
		DeadlineCycles: 6_250_000,
		Controls:       true,
		Arrival:        arrival.Config{Pattern: arrival.Poisson, Rate: 5e-5},
	}
}

// Validate rejects topologies that cannot run.
func (c OpenConfig) Validate() error {
	if c.Nodes <= 0 || c.Nodes > 64 {
		return fmt.Errorf("cluster: nodes %d outside 1..64", c.Nodes)
	}
	if c.WorkersPerNode <= 0 {
		return fmt.Errorf("cluster: need at least one worker per node")
	}
	if c.Controls && c.QueueCap <= 0 {
		return fmt.Errorf("cluster: queue capacity must be positive")
	}
	if c.Shards <= 0 || c.Shards > 64 {
		return fmt.Errorf("cluster: shards %d outside 1..64", c.Shards)
	}
	if len(c.Mix) == 0 {
		return fmt.Errorf("cluster: empty work mix")
	}
	totalW := 0.0
	for _, m := range c.Mix {
		if m.Weight <= 0 || m.Name == "" {
			return fmt.Errorf("cluster: work class %q needs a name and positive weight", m.Name)
		}
		totalW += m.Weight
	}
	if totalW <= 0 {
		return fmt.Errorf("cluster: work mix has no weight")
	}
	if c.DeadlineCycles == 0 {
		return fmt.Errorf("cluster: client deadline must be positive")
	}
	if c.ClosedClients > 0 {
		if c.ThinkCycles <= 0 {
			return fmt.Errorf("cluster: closed-loop mode needs positive think time")
		}
		return nil
	}
	if c.ClosedClients < 0 {
		return fmt.Errorf("cluster: negative client population")
	}
	return c.Arrival.Validate()
}

// meanShardService returns the mean per-call shard service time (no
// jitter; jitter is mean-preserving around 1).
func (c OpenConfig) meanShardService(m WorkClass) float64 {
	return float64(c.Shard.BaseServiceCycles) +
		c.Shard.PerByteCycles*float64(m.DBReqBytes+dbRespBytes)
}

// Capacity estimates the topology's saturation throughput in requests per
// cycle: the tighter of worker-occupancy capacity (app tier) and shard
// service capacity (database tier), over the mean of the mix.
func (c OpenConfig) Capacity() float64 {
	totalW, occ, dbWork := 0.0, 0.0, 0.0
	for _, m := range c.Mix {
		svc := c.meanShardService(m)
		perCall := float64(netsim.TransferCycles(m.DBReqBytes)) + svc +
			float64(netsim.TransferCycles(dbRespBytes))
		occ += m.Weight * (float64(m.CPUCycles) + float64(m.DBCalls)*perCall)
		dbWork += m.Weight * float64(m.DBCalls) * svc
		totalW += m.Weight
	}
	occ /= totalW
	dbWork /= totalW
	nodeCap := float64(c.Nodes*c.WorkersPerNode) / occ
	shardCap := float64(c.Shards*c.Shard.Workers) / dbWork
	if shardCap < nodeCap {
		return shardCap
	}
	return nodeCap
}

// shed cause indexes.
const (
	shedNoNode = iota
	shedQueue
	shedBrownout
	shedCoDel
	numShedCauses
)

// OpenStats is the run's accounting. Conservation invariant at every
// event boundary: Offered == Shed + Completed + Failed + InFlight().
type OpenStats struct {
	Offered   uint64 // requests that arrived at the load balancer
	Shed      uint64 // rejected without service (all causes)
	Completed uint64 // served to completion (includes Late)
	Failed    uint64 // exhausted retries against the shards (".fail")
	Late      uint64 // completed after the client's deadline (wasted work)

	ShedByCause [numShedCauses]uint64 // no-node, queue-full, brownout, codel

	Attempts    uint64 // shard call attempts issued
	Timeouts    uint64 // attempts abandoned at the caller's timeout
	FastFails   uint64 // attempts refused by a crashed shard
	LostCalls   uint64 // attempts lost to partitions / packet loss
	LimiterHits uint64 // attempts refused by the AIMD limit
	BreakerHits uint64 // attempts refused by an open breaker
	Retries     uint64 // attempts beyond each call's first

	WastedDBCycles uint64 // shard service burned on attempts the caller abandoned
}

// Good returns completions the client was still waiting for.
func (s OpenStats) Good() uint64 { return s.Completed - s.Late }

// openReq is one request in flight through the topology.
type openReq struct {
	class  int
	shard  int
	client int    // closed-loop client index, -1 in open mode
	sendAt uint64 // client send time (span start)
	nodeAt uint64 // enqueue time at the chosen node
	node   int    // serving node, set at dispatch

	callIdx int // shard calls completed so far
	attempt int // attempts made for the current call
	ok      bool

	cpu, net, dbq, dbs, think uint64 // phase accumulators
}

const (
	evArrival = iota
	evCall    // the request's worker issues its next shard call attempt
	evDone
	evTick
)

// event is one scheduled occurrence, queued by (time, insertion order).
type event struct {
	kind uint8
	node int
	req  *openReq
}

// openNode is one app server: a bounded FIFO, a worker pool, and its
// overload controllers.
type openNode struct {
	id    int
	peer  uint8
	queue []*openReq
	head  int // pop index into queue (compacted periodically)
	busy  int

	codel *fault.CoDel
	brown *fault.Brownout

	admitted uint64 // requests enqueued at this node
}

func (n *openNode) depth() int { return len(n.queue) - n.head }

func (n *openNode) popFront() *openReq {
	r := n.queue[n.head]
	n.queue[n.head] = nil
	n.head++
	if n.head > 4096 && n.head*2 > len(n.queue) {
		n.queue = append(n.queue[:0], n.queue[n.head:]...)
		n.head = 0
	}
	return r
}

// shardLimiter pairs the AIMD control law with time-aware in-flight
// tracking: held slots are released when their call's wire time expires.
type shardLimiter struct {
	aimd *fault.AIMD
	rel  evq.Queue[struct{}] // slot release times
}

func (l *shardLimiter) expire(t uint64) {
	for l.rel.Len() > 0 && l.rel.Min().At <= t {
		l.rel.Pop()
	}
}

func (l *shardLimiter) tryAcquire(t uint64) bool {
	l.expire(t)
	return l.rel.Len() < int(l.aimd.Limit())
}

func (l *shardLimiter) hold(release uint64) {
	l.rel.Push(evq.Item[struct{}]{At: release})
}

// OpenSim is the open-system cluster simulation.
type OpenSim struct {
	cfg    OpenConfig
	cum    []float64 // cumulative mix weights
	rng    *simrand.Rand
	arr    *arrival.Source
	faults *fault.Injector
	coll   *reqtrace.Collector

	now    uint64
	seq    uint64
	events evq.Queue[event]

	nodes    []*openNode
	shards   []*db.Server
	limiters []*shardLimiter      // per shard, nil when controls off
	budgets  []*fault.RetryBudget // per node, nil when controls off
	breakers [][]*fault.Breaker   // [node][shard]

	lbNext int // round-robin cursor

	onTick func(t uint64, s *OpenSim)

	// errRespBytes sizes the response wire transfer of failed requests.
	errRespBytes uint32

	Stats OpenStats
}

// NewOpen builds the topology; every RNG stream derives from seed.
func NewOpen(cfg OpenConfig, seed uint64) (*OpenSim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Controls {
		cfg.QueueCap = uncappedQueue
	}
	root := simrand.New(seed)
	s := &OpenSim{cfg: cfg, rng: root.Derive(1), errRespBytes: 64}

	total := 0.0
	for _, m := range cfg.Mix {
		total += m.Weight
	}
	acc := 0.0
	for _, m := range cfg.Mix {
		acc += m.Weight / total
		s.cum = append(s.cum, acc)
	}

	if cfg.ClosedClients == 0 {
		src, err := arrival.New(cfg.Arrival, root.Derive(2))
		if err != nil {
			return nil, err
		}
		s.arr = src
	}

	for i := 0; i < cfg.Nodes; i++ {
		n := &openNode{id: i, peer: NodePeer(i)}
		if cfg.Controls {
			n.codel = fault.NewCoDel()
			n.brown = fault.NewBrownout()
		}
		s.nodes = append(s.nodes, n)
	}
	for k := 0; k < cfg.Shards; k++ {
		s.shards = append(s.shards, db.NewServer(cfg.Shard, root.Derive(uint64(10+k))))
	}
	if cfg.Controls {
		for range s.shards {
			s.limiters = append(s.limiters, &shardLimiter{aimd: fault.NewAIMD()})
		}
		for range s.nodes {
			s.budgets = append(s.budgets, fault.NewRetryBudget())
		}
	}
	s.breakers = make([][]*fault.Breaker, cfg.Nodes)
	for i := range s.breakers {
		s.breakers[i] = make([]*fault.Breaker, cfg.Shards)
		for k := range s.breakers[i] {
			s.breakers[i][k] = fault.NewBreaker()
		}
	}
	return s, nil
}

// SetFaults arms a fault injector over the topology's peer-id space
// (ShardPeer/NodePeer): each shard server answers to its ShardPeer, so
// db-lock-storm windows and crash recovery ramps aimed at it stretch its
// service times. nil disarms.
func (s *OpenSim) SetFaults(inj *fault.Injector) {
	s.faults = inj
	for k, shard := range s.shards {
		shard.SetFaults(inj, ShardPeer(k))
	}
}

// SetCollector attaches a passive latency collector (nil detaches). The
// collector never perturbs the simulation: same seed, same results, with
// or without it.
func (s *OpenSim) SetCollector(c *reqtrace.Collector) { s.coll = c }

// tickCycles is the tick's period: the drivers' run-loop step
// (core.SliceCycles).
const tickCycles = 2_000_000

// SetTick arranges fn to run every tickCycles while the simulation has
// work, for heartbeat and inspection snapshots.
func (s *OpenSim) SetTick(fn func(t uint64, s *OpenSim)) { s.onTick = fn }

// schedule pushes an event at time at.
func (s *OpenSim) schedule(at uint64, kind uint8, node int, r *openReq) {
	s.seq++
	s.events.Push(evq.Item[event]{At: at, Seq: s.seq, V: event{kind: kind, node: node, req: r}})
}

// newReq draws a request's class and shard (one Float64 + one Intn, in
// arrival order, independent of topology configuration).
func (s *OpenSim) newReq(sendAt uint64, client int) *openReq {
	u := s.rng.Float64()
	class := len(s.cum) - 1
	for i, c := range s.cum {
		if u < c {
			class = i
			break
		}
	}
	return &openReq{class: class, shard: s.rng.Intn(s.cfg.Shards), client: client, sendAt: sendAt}
}

// pushArrival schedules req's arrival at the load balancer: send time plus
// the client-side request transfer.
func (s *OpenSim) pushArrival(r *openReq) {
	wire := netsim.TransferCycles(s.cfg.Mix[r.class].ReqBytes)
	r.net += wire
	s.schedule(r.sendAt+wire, evArrival, -1, r)
}

// Run feeds arrivals until the horizon, then drains every request still in
// the system (no new work; queues and workers run dry). It returns the
// final clock.
func (s *OpenSim) Run(horizon uint64) uint64 {
	if s.cfg.ClosedClients > 0 {
		for i := 0; i < s.cfg.ClosedClients; i++ {
			at := uint64(s.rng.Exp(s.cfg.ThinkCycles))
			if at < horizon {
				s.pushArrival(s.newReq(at, i))
			}
		}
	} else {
		if at := s.arr.Next(); at < horizon {
			s.pushArrival(s.newReq(at, -1))
		}
	}
	if s.onTick != nil {
		s.schedule(tickCycles, evTick, -1, nil)
	}
	for s.events.Len() > 0 {
		it := s.events.Pop()
		at, e := it.At, it.V
		s.now = at
		switch e.kind {
		case evArrival:
			s.Stats.Offered++
			// Keep the open arrival process primed.
			if s.arr != nil {
				if next := s.arr.Next(); next < horizon {
					s.pushArrival(s.newReq(next, -1))
				}
			}
			s.admit(e.req, at)
		case evCall:
			s.stepCall(e.req, at)
		case evDone:
			n := s.nodes[e.node]
			n.busy--
			s.finalize(e.req, at, horizon)
			s.dispatch(n, at)
		case evTick:
			s.onTick(at, s)
			if s.events.Len() > 0 {
				s.schedule(at+tickCycles, evTick, -1, nil)
			}
		}
	}
	return s.now
}

// route picks a healthy node for an arrival at t, or nil when every node
// is down.
func (s *OpenSim) route(t uint64) *openNode {
	alive := make([]*openNode, 0, len(s.nodes))
	for _, n := range s.nodes {
		if down, _ := s.faults.PeerDown(n.peer, t); !down {
			alive = append(alive, n)
		}
	}
	if len(alive) == 0 {
		return nil
	}
	switch s.cfg.LB {
	case LeastInFlight:
		best := alive[0]
		for _, n := range alive[1:] {
			if n.depth()+n.busy < best.depth()+best.busy {
				best = n
			}
		}
		return best
	default: // RoundRobin
		n := alive[s.lbNext%len(alive)]
		s.lbNext++
		return n
	}
}

// shed resolves a request without service.
func (s *OpenSim) shed(r *openReq, t uint64, cause int) {
	s.Stats.Shed++
	s.Stats.ShedByCause[cause]++
	if s.coll != nil {
		sp := s.coll.BeginClass("shed", r.sendAt)
		sp.Add(reqtrace.PhaseNet, r.net)
		s.coll.End(sp, t)
	}
	s.closedNext(r, t)
}

// admit runs a request through the load balancer and node admission.
func (s *OpenSim) admit(r *openReq, t uint64) {
	n := s.route(t)
	if n == nil {
		s.shed(r, t, shedNoNode)
		return
	}
	if n.brown != nil && n.brown.DropClass(s.cfg.Mix[r.class].Priority) {
		s.shed(r, t, shedBrownout)
		return
	}
	if n.busy >= s.cfg.WorkersPerNode && n.depth() >= s.cfg.QueueCap {
		s.shed(r, t, shedQueue)
		return
	}
	r.nodeAt = t
	n.queue = append(n.queue, r)
	n.admitted++
	s.dispatch(n, t)
}

// dispatch starts queued work on free workers, applying the CoDel
// admission check and feeding the brown-out controller at each dequeue.
func (s *OpenSim) dispatch(n *openNode, t uint64) {
	for n.busy < s.cfg.WorkersPerNode && n.depth() > 0 {
		r := n.popFront()
		qdelay := t - r.nodeAt
		if n.brown != nil {
			n.brown.Observe(t, qdelay)
		}
		if n.codel != nil && n.codel.OnDequeue(t, qdelay) {
			s.shed(r, t, shedCoDel)
			continue
		}
		s.startService(n, r, t)
	}
}

// startService occupies a worker with the request's visit. The visit is a
// chain of events — app CPU, then each shard call attempt issued at its
// own simulated time — so shard arrivals happen in time order and the
// backends see honest queueing rather than batched future bookings.
func (s *OpenSim) startService(n *openNode, r *openReq, t uint64) {
	n.busy++
	r.node = n.id
	m := s.cfg.Mix[r.class]
	cpu := db.Jitter(m.CPUCycles, s.rng)
	// A recently crashed node serves its drain-down with cold caches.
	if f := s.faults.ServiceFactor(n.peer, t); f > 1 {
		cpu = uint64(float64(cpu) * f)
	}
	r.cpu += cpu
	r.callIdx, r.attempt = 0, 0
	r.ok = true
	if m.DBCalls == 0 {
		s.schedule(t+cpu, evDone, n.id, r)
		return
	}
	s.schedule(t+cpu, evCall, n.id, r)
}

// stepCall runs one shard call attempt at its issue time t and schedules
// the request's next step: the next attempt after backoff, the next call,
// or completion.
func (s *OpenSim) stepCall(r *openReq, t uint64) {
	n := s.nodes[r.node]
	m := s.cfg.Mix[r.class]
	br := s.breakers[n.id][r.shard]
	var lim *shardLimiter
	if s.limiters != nil {
		lim = s.limiters[r.shard]
	}
	var budget *fault.RetryBudget
	if s.budgets != nil {
		budget = s.budgets[n.id]
	}
	if r.attempt == 0 && budget != nil {
		budget.Earn()
	}
	r.attempt++
	s.Stats.Attempts++
	if r.attempt > 1 {
		s.Stats.Retries++
	}
	res := s.attempt(n, r, br, lim, ShardPeer(r.shard), m, t)
	if res.success {
		r.callIdx++
		r.attempt = 0
		if r.callIdx >= m.DBCalls {
			s.schedule(res.doneAt, evDone, n.id, r)
			return
		}
		s.schedule(res.doneAt, evCall, n.id, r)
		return
	}
	if r.attempt >= fault.MaxAttempts || (budget != nil && !budget.Allow()) {
		r.ok = false
		s.schedule(res.doneAt, evDone, n.id, r)
		return
	}
	back := uint64(fault.Backoff(r.attempt, s.rng))
	r.think += back
	s.schedule(res.doneAt+back, evCall, n.id, r)
}

// attemptResult is one shard attempt's outcome.
type attemptResult struct {
	success bool
	doneAt  uint64
}

// attempt issues a single shard call attempt at time t.
func (s *OpenSim) attempt(n *openNode, r *openReq, br *fault.Breaker, lim *shardLimiter, peer uint8, m WorkClass, t uint64) attemptResult {
	const (
		localRejectCycles = 2_000
		timeout           = fault.TimeoutCycles
	)

	// Client-side concurrency limit: refused attempts never leave the node.
	if lim != nil && !lim.tryAcquire(t) {
		s.Stats.LimiterHits++
		r.think += localRejectCycles
		return attemptResult{doneAt: t + localRejectCycles}
	}
	// Circuit breaker: while open, fail locally without touching the wire.
	if !br.Allow(t) {
		s.Stats.BreakerHits++
		r.think += localRejectCycles
		return attemptResult{doneAt: t + localRejectCycles}
	}
	lf := s.faults.LinkFactor(peer, t)
	scale := func(c uint64) uint64 {
		if lf > 1 {
			return uint64(float64(c) * lf)
		}
		return c
	}
	switch s.faults.CallOutcome(peer, t) {
	case fault.FastFail:
		// Connection refused by a crashed shard: one bare round trip.
		rtt := scale(2 * netsim.LinkLatencyCycles)
		r.net += rtt
		br.Record(t+rtt, false)
		if lim != nil {
			lim.hold(t + rtt)
			lim.aimd.Outcome(t+rtt, rtt, false)
		}
		s.Stats.FastFails++
		return attemptResult{doneAt: t + rtt}
	case fault.Lost:
		// Partition or packet loss: the caller burns its full timeout.
		r.think += timeout
		br.Record(t+timeout, false)
		if lim != nil {
			lim.hold(t + timeout)
			lim.aimd.Outcome(t+timeout, timeout, false)
		}
		s.Stats.LostCalls++
		return attemptResult{doneAt: t + timeout}
	}
	reqX := scale(netsim.TransferCycles(m.DBReqBytes))
	respX := scale(netsim.TransferCycles(dbRespBytes))
	done, q, svc := s.shards[r.shard].Respond(t+reqX, m.DBReqBytes, dbRespBytes)
	rtt := done + respX - t
	if rtt > timeout {
		// The caller abandons the attempt; the shard still does the work.
		// That divergence — servers burning cycles on answers nobody will
		// read — is the raw material of congestion collapse.
		r.think += timeout
		s.Stats.Timeouts++
		s.Stats.WastedDBCycles += svc
		br.Record(t+timeout, false)
		if lim != nil {
			lim.hold(t + timeout)
			lim.aimd.Outcome(t+timeout, rtt, false)
		}
		return attemptResult{doneAt: t + timeout}
	}
	r.net += reqX + respX
	r.dbq += q
	r.dbs += svc
	br.Record(done+respX, true)
	if lim != nil {
		lim.hold(done)
		lim.aimd.Outcome(done+respX, rtt, true)
	}
	return attemptResult{success: true, doneAt: done + respX}
}

// finalize resolves a served request at worker-free time done: the
// response crosses the wire, the client judges it against its deadline,
// and the span (if collected) is completed.
func (s *OpenSim) finalize(r *openReq, done uint64, horizon uint64) {
	m := s.cfg.Mix[r.class]
	class := m.Name
	respBytes := m.RespBytes
	if !r.ok {
		class = m.Name + ".fail"
		respBytes = s.errRespBytes
	}
	respX := netsim.TransferCycles(respBytes)
	r.net += respX
	end := done + respX

	if r.ok {
		s.Stats.Completed++
		if end-r.sendAt > s.cfg.DeadlineCycles {
			s.Stats.Late++
		}
	} else {
		s.Stats.Failed++
	}
	if s.coll != nil {
		sp := s.coll.BeginClass(class, r.sendAt)
		sp.Add(reqtrace.PhaseCPU, r.cpu)
		sp.Add(reqtrace.PhaseNet, r.net)
		sp.Add(reqtrace.PhaseDBQueue, r.dbq)
		sp.Add(reqtrace.PhaseDBService, r.dbs)
		sp.Add(reqtrace.PhaseThink, r.think)
		s.coll.End(sp, end)
	}
	s.closedNextAt(r, end, horizon)
}

// closedNext reschedules a closed-loop client after a request resolved
// without a horizon bound (sheds resolve inside Run's arrival window).
func (s *OpenSim) closedNext(r *openReq, t uint64) {
	s.closedNextAt(r, t, ^uint64(0))
}

// closedNextAt schedules the client's next request after thinking.
func (s *OpenSim) closedNextAt(r *openReq, t uint64, horizon uint64) {
	if r.client < 0 {
		return
	}
	at := t + uint64(s.rng.Exp(s.cfg.ThinkCycles))
	if at < horizon {
		s.pushArrival(s.newReq(at, r.client))
	}
}

// NodeSnap is one node's live state.
type NodeSnap struct {
	ID            int    `json:"id"`
	Queue         int    `json:"queue"`
	Busy          int    `json:"busy"`
	Admitted      uint64 `json:"admitted"`
	BrownLevel    int    `json:"brownout_level"`
	CoDelDropping bool   `json:"codel_dropping"`
	CoDelDrops    uint64 `json:"codel_drops"`
	Down          bool   `json:"down,omitempty"`
}

// ShardSnap is one shard's live state.
type ShardSnap struct {
	ID       int     `json:"id"`
	Limit    float64 `json:"aimd_limit"`
	InFlight int     `json:"in_flight"`
	Util     float64 `json:"utilization"`
	Served   uint64  `json:"served"`
	Down     bool    `json:"down,omitempty"`
}

// OpenSnapshot is the topology's live state at one instant, for heartbeat
// lines and the /overload inspection page.
type OpenSnapshot struct {
	Now    uint64      `json:"cycle"`
	Stats  OpenStats   `json:"stats"`
	Nodes  []NodeSnap  `json:"nodes"`
	Shards []ShardSnap `json:"shards"`
}

// Snapshot captures the live state at time t.
func (s *OpenSim) Snapshot(t uint64) OpenSnapshot {
	snap := OpenSnapshot{Now: t, Stats: s.Stats}
	for _, n := range s.nodes {
		ns := NodeSnap{ID: n.id, Queue: n.depth(), Busy: n.busy, Admitted: n.admitted}
		if n.brown != nil {
			ns.BrownLevel = n.brown.Level()
		}
		if n.codel != nil {
			ns.CoDelDropping = n.codel.Dropping()
			ns.CoDelDrops = n.codel.Stats.Drops
		}
		ns.Down, _ = s.faults.PeerDown(n.peer, t)
		snap.Nodes = append(snap.Nodes, ns)
	}
	for k, sh := range s.shards {
		ss := ShardSnap{ID: k, Util: sh.Utilization(), Served: sh.Served()}
		if s.limiters != nil {
			ss.Limit = s.limiters[k].aimd.Limit()
			ss.InFlight = s.limiters[k].rel.Len()
		}
		ss.Down, _ = s.faults.PeerDown(ShardPeer(k), t)
		snap.Shards = append(snap.Shards, ss)
	}
	return snap
}
