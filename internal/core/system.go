// Package core is the public face of the reproduction: it assembles full
// simulated machines (processors, caches, bus, OS, JVM, network, tiers),
// binds the SPECjbb and ECperf workload models to them, and provides one
// driver per figure of the paper's evaluation (Figures 4–16).
//
// Conventions:
//   - Time is in processor cycles at 250 MHz (the E6000's UltraSPARC IIs
//     ran at 248 MHz); CyclesPerSecond converts.
//   - The simulated machine always has 16 processors, like the measured
//     E6000; the workload is bound to a processor set of the requested
//     size, and OS daemons run on all 16 (psrset semantics).
//   - Every figure driver takes a seed list and reports mean ± stddev per
//     the Alameldeen-Wood variability methodology the paper follows.
package core

import (
	"fmt"

	"repro/internal/appserver"
	"repro/internal/coherence"
	"repro/internal/db"
	"repro/internal/fault"
	"repro/internal/ifetch"
	"repro/internal/jvm"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/netsim"
	"repro/internal/obs/flightrec"
	"repro/internal/osmodel"
	"repro/internal/simrand"
	"repro/internal/workload/ecperf"
	"repro/internal/workload/specjbb"
	"repro/internal/workload/volano"
)

// CyclesPerSecond converts simulated cycles to seconds.
const CyclesPerSecond = 250_000_000

// MachineCPUs is the E6000's processor count.
const MachineCPUs = 16

// Kind selects a workload.
type Kind int

const (
	// SPECjbb is the single-process, all-tiers-in-one-JVM benchmark.
	SPECjbb Kind = iota
	// ECperf is the 3-tier benchmark; the middle tier is measured.
	ECperf
	// VolanoMark is the §6 related-work chat benchmark: one server thread
	// per client connection, kernel-dominated.
	VolanoMark
)

// String names the workload.
func (k Kind) String() string {
	switch k {
	case SPECjbb:
		return "SPECjbb"
	case ECperf:
		return "ECperf"
	case VolanoMark:
		return "VolanoMark"
	default:
		return "Kind(?)"
	}
}

// SystemParams configure one simulated machine + workload instance.
type SystemParams struct {
	Kind Kind
	// Processors is the processor-set size the workload is bound to.
	Processors int
	// Scale is the benchmark scale factor: warehouses for SPECjbb, Orders
	// Injection Rate for ECperf. Zero picks the tuned value for the
	// processor count (warehouses = processors, like an official run at
	// its best-throughput point).
	Scale int
	// CPUsPerL2 selects private (1) or shared (2/4/8) L2 caches.
	CPUsPerL2 int
	// TotalCPUs overrides the machine size (defaults to MachineCPUs; the
	// Figure 16 CMP study uses an 8-CPU machine).
	TotalCPUs int
	Seed      uint64

	// MemModel selects the memory timing model: memsys.MemFixed (the
	// default, the unloaded E6000 scalars — bit-identical to the pre-model
	// simulator) or memsys.MemLoaded (the bandwidth–latency curve).
	MemModel memsys.MemModel
	// MemCurve overrides the loaded model's curve parameters; nil uses
	// memsys.DefaultLoadedConfig(). Ignored under MemFixed.
	MemCurve *memsys.LoadedConfig

	// HeapConfig overrides the JVM heap configuration (nil = the standard
	// scaled heap). An explicit parameter rather than a package hook so
	// experiment cells with different heaps can build concurrently. Not
	// serializable, so runs using it cannot be checkpointed (none do: the
	// only override is Figure 11's functional-only study).
	HeapConfig func() jvm.Config `json:"-"`

	// Ablation knobs (zero values reproduce the paper's configuration).

	// BasePages disables Solaris ISM: the data TLB runs 8 KB pages instead
	// of 4 MB ones (§6: ISM bought ECperf >10%).
	BasePages bool
	// Protocol overrides the bus protocol (default MOSI, the E6000's).
	Protocol coherence.Protocol
	// GCThreads parallelizes the collector (default 1, like HotSpot 1.3.1).
	GCThreads int
	// C2CLatency overrides the cache-to-cache transfer latency in cycles
	// (default 105 ≈ 1.4× memory, the E6000's; NUMA directory systems run
	// 2-3× memory, §4.3).
	C2CLatency uint64
	// CoSimDB marks the ECperf database as a co-simulated machine rather
	// than a queueing model: the peer is registered external and a cluster
	// coordinator must deliver its traffic (a co-simulated cell runs on the
	// coordinator's loop).
	CoSimDB bool

	// Robustness knobs (zero values: no faults, no watchdog).

	// FaultSchedule, when non-nil, arms deterministic fault injection: one
	// injector (seeded from Seed) is threaded through the network, the
	// remote tiers, and the engine, and the ECperf middle tier routes its
	// remote calls through a resilient caller (timeouts, retries, breaker,
	// load shedding).
	FaultSchedule *fault.Schedule
	// WatchdogCycles arms the engine's simulated-time watchdog: a run that
	// makes no forward progress for this many cycles (or is provably
	// deadlocked) aborts with a diagnostic dump instead of spinning.
	WatchdogCycles uint64
}

// System is an assembled machine ready to run.
type System struct {
	Params SystemParams
	Engine *osmodel.Engine
	Hier   *memsys.Hierarchy
	Heap   *jvm.Heap
	Layout *ifetch.CodeLayout
	Space  *mem.AddrSpace

	// The workload, by Params.Kind; a VolanoMark system keeps neither.
	JBB *specjbb.Workload
	EC  *ecperf.Workload

	// Remote tiers (ECperf only).
	DB       *db.Server
	Supplier *db.Server

	// Faults is the run's injector (nil without a FaultSchedule).
	Faults *fault.Injector

	// Flight is the run's flight recorder (nil when -flight off); the run
	// loops tick it at slice boundaries. Attach with AttachFlight.
	Flight *flightrec.Recorder
}

// codeProfile returns the standard hot/warm/cold tiering for a component.
func codeProfile() ifetch.Profile {
	return ifetch.Profile{
		Tiers: []ifetch.Tier{
			{CodeFrac: 0.015, FetchFrac: 0.55}, // inner loops: L1-resident
			{CodeFrac: 0.085, FetchFrac: 0.38},
			{CodeFrac: 0.30, FetchFrac: 0.06},
			{CodeFrac: 0.60, FetchFrac: 0.01},
		},
		RunBlocks: 6,
	}
}

// heapConfig returns the scaled JVM heap shared by all timing runs (the
// paper fixed 1424 MB heap / 400 MB new generation across every run; this
// is that shape at ~1/20 scale).
func heapConfig() jvm.Config {
	c := jvm.DefaultConfig()
	c.HeapBytes = 72 << 20
	c.NewGenBytes = 8 << 20
	// Age-3 promotion keeps short-lived transaction state (order rings) in
	// the survivor spaces, where the collector's copies stay cache-resident.
	c.PromoteAge = 3
	return c
}

// validate rejects parameters BuildSystem cannot build, so a bad flag or
// checkpoint ends a run with an error instead of a panic.
func (p SystemParams) validate() error {
	procs := p.Processors // before withDefaults, which builds one for zero
	p = p.withDefaults()
	switch {
	case p.Kind < SPECjbb || p.Kind > VolanoMark:
		return fmt.Errorf("unknown workload kind %d", p.Kind)
	case procs < 1 || procs > p.TotalCPUs:
		return fmt.Errorf("processor set %d outside 1..%d", procs, p.TotalCPUs)
	case p.Scale < 0:
		return fmt.Errorf("negative scale %d", p.Scale)
	case p.MemModel > memsys.MemLoaded:
		return fmt.Errorf("unknown memory model %s", p.MemModel)
	}
	return nil
}

func (p SystemParams) withDefaults() SystemParams {
	if p.HeapConfig == nil {
		p.HeapConfig = heapConfig
	}
	if p.TotalCPUs == 0 {
		p.TotalCPUs = MachineCPUs
	}
	if p.CPUsPerL2 == 0 {
		p.CPUsPerL2 = 1
	}
	if p.Processors <= 0 {
		p.Processors = 1
	}
	if p.Scale == 0 {
		if p.Kind == SPECjbb {
			p.Scale = p.Processors // threads = warehouses = processors
		} else {
			p.Scale = 10
		}
	}
	if p.Kind == VolanoMark {
		p.Scale = 1 // room shape is fixed by the volano package
	}
	return p
}

// memConfig is a cpus-processor machine's memory system under p's timing
// model.
func (p SystemParams) memConfig(cpus int) memsys.Config {
	cfg := memsys.DefaultConfig(cpus)
	if p.MemModel != memsys.MemFixed {
		cfg.Model = p.MemModel
		if p.MemCurve != nil {
			cfg.Loaded = *p.MemCurve
		}
	}
	return cfg
}

// BuildSystem assembles the machine for the given parameters.
func BuildSystem(p SystemParams) *System {
	p = p.withDefaults()
	rng := simrand.New(p.Seed)
	space := mem.NewAddrSpace()
	layout := ifetch.NewCodeLayout(space)

	mcfg := p.memConfig(p.TotalCPUs)
	mcfg.CPUsPerL2 = p.CPUsPerL2
	mcfg.DTLB = p.BasePages
	if p.C2CLatency != 0 {
		mcfg.Lat.C2C = p.C2CLatency
	}
	hier := memsys.New(mcfg)
	hier.Bus().Protocol = p.Protocol

	ecfg := osmodel.DefaultConfig(p.TotalCPUs)
	if p.GCThreads > 1 {
		ecfg.GCThreads = p.GCThreads
	}
	ecfg.PSet = make([]int, p.Processors)
	for i := range ecfg.PSet {
		ecfg.PSet[i] = i
	}

	sys := &System{Params: p, Hier: hier, Layout: layout, Space: space}
	if p.FaultSchedule != nil {
		if err := p.FaultSchedule.Validate(); err != nil {
			panic(fmt.Sprintf("core: fault schedule: %v", err))
		}
		// Stream 20 is reserved for the injector so arming faults never
		// perturbs the workload's or network's random sequences.
		sys.Faults = fault.NewInjector(p.FaultSchedule, rng.Derive(20))
	}

	switch p.Kind {
	case SPECjbb:
		comps := specjbb.Components{
			App: layout.Add("jbb-app", 192<<10, false, codeProfile()),
			JVM: layout.Add("jvm", 160<<10, false, codeProfile()),
		}
		gcComp := layout.Add("jvm-gc", 96<<10, false, codeProfile())
		kern := layout.Add("kernel", 256<<10, true, codeProfile())

		hcfg := p.HeapConfig()
		hcfg.GCComp = gcComp.ID
		heap := jvm.MustNewHeap(space, hcfg)

		eng := osmodel.NewEngine(ecfg, hier, layout, nil, rng.Derive(1))
		osmodel.AddOSDaemons(eng, space, kern, rng.Derive(2))

		w := specjbb.New(p.Scale, heap, comps, rng.Derive(3))
		for i := 0; i < p.Scale; i++ {
			eng.AddThread("jbb-worker", w.Source(i))
		}
		sys.Engine, sys.Heap, sys.JBB = eng, heap, w

	case ECperf:
		comps := ecperf.Components{
			Servlet: layout.Add("servlet", 192<<10, false, codeProfile()),
			EJB:     layout.Add("ejb", 256<<10, false, codeProfile()),
			Server:  layout.Add("appserver", 320<<10, false, codeProfile()),
			JVM:     layout.Add("jvm", 160<<10, false, codeProfile()),
		}
		gcComp := layout.Add("jvm-gc", 96<<10, false, codeProfile())
		kern := layout.Add("kernel-net", 320<<10, true, codeProfile())

		hcfg := p.HeapConfig()
		hcfg.GCComp = gcComp.ID
		heap := jvm.MustNewHeap(space, hcfg)

		net := netsim.NewNetwork()
		if p.CoSimDB {
			net.CoSimulateDatabase()
		} else {
			sys.DB = db.NewServer(databaseConfig(), rng.Derive(10))
			net.AddPeer(netsim.PeerDatabase, sys.DB)
		}
		sys.Supplier = db.NewServer(supplierConfig(), rng.Derive(11))
		net.AddPeer(netsim.PeerSupplier, sys.Supplier)
		// Reserved for the network stack, which draws nothing; the streams
		// derived after it keep their seeds.
		rng.Derive(12)
		ns := netsim.NewNetStack(space, kern)

		eng := osmodel.NewEngine(ecfg, hier, layout, net, rng.Derive(1))
		osmodel.AddOSDaemons(eng, space, kern, rng.Derive(2))

		wcfg := ecperf.DefaultConfig(p.Scale, p.Processors)
		w := ecperf.New(wcfg, heap, comps, ns, rng.Derive(3))
		if sys.Faults != nil {
			// Thread the injector through every layer the schedule can
			// touch, and put the resilient caller in front of remote calls.
			net.SetFaults(sys.Faults)
			if sys.DB != nil {
				sys.DB.SetFaults(sys.Faults, netsim.PeerDatabase)
			}
			sys.Supplier.SetFaults(sys.Faults, netsim.PeerSupplier)
			w.EnableResilience(appserver.NewCaller(sys.Faults, rng.Derive(21)))
		}
		for i := 0; i < wcfg.Workers; i++ {
			eng.AddThread("ec-worker", w.Source(i))
		}
		sys.Engine, sys.Heap, sys.EC = eng, heap, w

	case VolanoMark:
		comps := volano.Components{
			App: layout.Add("volano", 128<<10, false, codeProfile()),
		}
		gcComp := layout.Add("jvm-gc", 96<<10, false, codeProfile())
		kern := layout.Add("kernel-net", 256<<10, true, codeProfile())

		hcfg := p.HeapConfig()
		hcfg.GCComp = gcComp.ID
		heap := jvm.MustNewHeap(space, hcfg)

		// Clients are loopback; no remote peers are needed, but the kernel
		// stack is the whole point.
		net := netsim.NewNetwork()
		// Reserved for the network stack, which draws nothing; the streams
		// derived after it keep their seeds.
		rng.Derive(12)
		ns := netsim.NewNetStack(space, kern)

		eng := osmodel.NewEngine(ecfg, hier, layout, net, rng.Derive(1))
		osmodel.AddOSDaemons(eng, space, kern, rng.Derive(2))

		w := volano.New(heap, comps, ns, rng.Derive(3))
		for i := 0; i < w.Connections(); i++ {
			eng.AddThread("volano-conn", w.Source(i))
		}
		sys.Engine, sys.Heap = eng, heap
	}
	if sys.Faults != nil {
		// GC-pause storms act at playback time inside the engine.
		sys.Engine.SetFaults(sys.Faults)
	}
	if p.WatchdogCycles > 0 {
		sys.Engine.SetWatchdog(p.WatchdogCycles)
	}
	return sys
}

// databaseConfig sizes the remote database so it keeps up with a saturated
// 16-processor middle tier — "ECperf does not overly stress the database".
func databaseConfig() db.Config {
	return db.Config{Workers: 24, BaseServiceCycles: 40_000, PerByteCycles: 2}
}

func supplierConfig() db.Config {
	return db.Config{Workers: 6, BaseServiceCycles: 120_000, PerByteCycles: 4}
}
