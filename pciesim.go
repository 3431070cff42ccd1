// Package pciesim is a discrete-event simulator of the PCI-Express
// interconnect and the full-system substrate around it, reproducing
// "Simulating PCI-Express Interconnect for Future System Exploration"
// (Alian, Srinivasan, Kim — IISWC 2018).
//
// The package offers three levels of API:
//
//   - System: the assembled platform (CPU/OS model, MemBus, IOCache,
//     DRAM, PCI host, root complex, and whatever fabric a TopoSpec
//     describes). Build(CannedTopo("validation"), DefaultConfig())
//     assembles the paper's §VI-A platform; Boot it and drive
//     workloads. Platform variants are edits to the spec (link widths
//     via TopoSpec.Link) or to the Config, never a second builder.
//   - Experiments: one runner per table/figure of the paper's
//     evaluation (RunFig9a..RunFig9d, RunTableII, TableI), producing
//     structured results that the cmd/ddbench and cmd/mmiolat tools
//     print.
//   - Components: the building blocks live in internal/ packages and
//     are re-exported here where they are part of the public surface
//     (configuration types, link generations, results).
package pciesim

import (
	"io"

	"pciesim/internal/fault"
	"pciesim/internal/kernel"
	"pciesim/internal/pcie"
	"pciesim/internal/phys"
	"pciesim/internal/sim"
	"pciesim/internal/stats"
	"pciesim/internal/topo"
	"pciesim/internal/trace"
	"pciesim/internal/workload"
)

// Config is the topology-independent platform configuration: fabric
// latencies and buffers, substrate calibration, the OS model, and
// per-link fault plans (Faults, keyed by link name). Obtain a
// calibrated baseline from DefaultConfig and override individual
// fields.
type Config = topo.Config

// System is a simulated platform assembled by Build: the validation
// substrate under the fabric its TopoSpec described. Reach fabric
// components through its inventory — LinkByName("disklink").Link,
// Disks[0].Dev, NICs[0].Dev.
type System = topo.System

// DDResult reports one dd run.
type DDResult = kernel.DDResult

// LatencySummary condenses a per-request latency distribution into
// printable quantiles.
type LatencySummary = kernel.LatencySummary

// MMIOProbeResult reports an MMIO latency measurement.
type MMIOProbeResult = kernel.MMIOProbeResult

// Generation selects a PCI-Express generation for links.
type Generation = pcie.Generation

// LinkStats are the per-link-interface protocol counters (replays,
// timeouts, ACK traffic, flow-control stalls).
type LinkStats = pcie.LinkStats

// CreditConfig are per-class (Posted / Non-Posted / Completion) VC0
// flow-control credit pools. The zero value means infinite credits —
// the legacy refusal-only link. Assign one to Config.Credits (every
// link) or to a topology node's LinkSpec.Credits (one link).
type CreditConfig = pcie.CreditConfig

// UniformCredits builds a CreditConfig with n header credits per class
// and data credits for n 64-byte payloads.
func UniformCredits(n int) CreditConfig { return pcie.UniformCredits(n) }

// ParseCredits parses the CLI credit syntax: "" / "inf" for infinite,
// a bare integer for UniformCredits, or "ph=8,ch=2"-style k=v pairs.
func ParseCredits(s string) (CreditConfig, error) { return pcie.ParseCredits(s) }

// PCI-Express generations.
const (
	Gen1 = pcie.Gen1
	Gen2 = pcie.Gen2
	Gen3 = pcie.Gen3
)

// Tick is simulated time (picoseconds); Config durations such as
// CompletionTimeout and FaultWindow.At are expressed in it.
type Tick = sim.Tick

// Time units for building Tick values.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// PhysConfig describes the analytical physical-testbed reference model
// used for the "phys" series of Fig 9(a).
type PhysConfig = phys.Config

// FaultPlan is a deterministic per-link fault-injection schedule:
// stochastic TLP/DLLP corruption and drop rates per direction, scripted
// one-shot events, and surprise link-down windows. Attach one to a link
// through Config.Faults, keyed by link name ("disklink" on the
// validation platform).
type FaultPlan = fault.Plan

// FaultRates are per-packet injection probabilities.
type FaultRates = fault.Rates

// FaultProfile configures one direction of a faulted link.
type FaultProfile = fault.Profile

// FaultWindow is a surprise link-down interval; Duration 0 keeps the
// link down for good.
type FaultWindow = fault.Window

// FaultEvent is one scripted injection (the Nth matching packet).
type FaultEvent = fault.Event

// FaultHotplug is one surprise-removal episode: the card is yanked at
// RemoveAt and — unless ReinsertAfter is zero (permanent) — re-seated
// ReinsertAfter later. Assign to FaultPlan.Hotplugs.
type FaultHotplug = fault.Hotplug

// DegradeConfig arms adaptive link degradation: sustained error
// windows retrain the link at reduced width/generation, with
// exponential-backoff upgrade retrains back toward the configured
// level. Assign to Config.Degrade (every link) or a topology node's
// LinkSpec.Degrade (one link).
type DegradeConfig = pcie.DegradeConfig

// DefaultDegradeConfig returns the calibrated degradation policy.
func DefaultDegradeConfig() DegradeConfig { return pcie.DefaultDegradeConfig() }

// RecoveryConfig tunes the kernel's DPC/hot-plug recovery driver
// (Config.Recovery); zero-value fields take defaults.
type RecoveryConfig = kernel.RecoveryConfig

// RecoveryRecord is one completed recovery attempt in the kernel
// recovery driver's log (System.Recovery.Records()).
type RecoveryRecord = kernel.RecoveryRecord

// AERRecord is one entry of the kernel AER service handler's log.
type AERRecord = kernel.AERRecord

// LinkErrorSummary pairs a link's name with both directions' error
// counters and its recovery state.
type LinkErrorSummary = topo.LinkErrorSummary

// --- observability (DESIGN.md §8) ---

// StatsRegistry is the simulator-wide hierarchical metric registry;
// reach a platform's registry through System.Eng.Stats().
type StatsRegistry = stats.Registry

// StatsHistogram is a log2-bucketed latency/size distribution.
type StatsHistogram = stats.Histogram

// Tracer records tick-stamped per-packet lifecycle events; install one
// with System.Eng.SetTracer before running workloads.
type Tracer = trace.Tracer

// TraceCategory selects which event classes a Tracer records.
type TraceCategory = trace.Category

// TraceEvent is one recorded tracer event.
type TraceEvent = trace.Event

// Trace categories.
const (
	TraceTLP    = trace.CatTLP
	TraceDLLP   = trace.CatDLLP
	TraceDMA    = trace.CatDMA
	TraceIRQ    = trace.CatIRQ
	TraceFault  = trace.CatFault
	TraceConfig = trace.CatConfig
	TraceSpan   = trace.CatSpan
	TraceAll    = trace.CatAll
)

// NewTracer creates a tracer recording the given categories.
func NewTracer(mask TraceCategory) *Tracer { return trace.New(mask) }

// ParseTraceCategories parses a comma-separated category list
// ("tlp,fault") or "all".
func ParseTraceCategories(s string) (TraceCategory, error) { return trace.ParseCategories(s) }

// TraceCategoryNames lists the parseable category names.
func TraceCategoryNames() []string { return trace.CategoryNames() }

// Profiler is the engine self-profiler: per-event-name fire counts,
// same-tick re-schedule counts, and wall-clock attribution. Arm one
// with System.Eng.Profile() before the run; counts are deterministic,
// wall-clock is host-dependent.
type Profiler = sim.Profiler

// --- arbitrary topologies (DESIGN.md §10) ---

// TopoSpec is a declarative fabric description: root ports, cascaded
// switches, endpoints. Build one in Go, with ParseTopo, or take a
// canned scenario from CannedTopo.
type TopoSpec = topo.Spec

// TopoNode is one element of a TopoSpec tree.
type TopoNode = topo.Node

// ParseTopo parses the compact topology grammar ("switch:x4(disk*8)")
// or, when the input starts with "{", the JSON form of TopoSpec.
func ParseTopo(s string) (*TopoSpec, error) { return topo.Parse(s) }

// CannedTopo resolves a canned scenario name ("validation", "fanout8",
// "p2p") to its spec, or nil.
func CannedTopo(name string) *TopoSpec { return topo.Canned(name) }

// CannedTopoNames lists the canned scenario names.
func CannedTopoNames() []string { return topo.CannedNames() }

// LookupTopo resolves a -topo argument: a canned scenario name, else
// the grammar or JSON form ParseTopo accepts.
func LookupTopo(s string) (*TopoSpec, error) { return topo.Lookup(s) }

// --- workload engines (DESIGN.md §14) ---

// WorkloadTrace is a versioned, replayable operation schedule: either
// parsed from the text/JSON trace format or materialized by the
// synthetic generators. Executing the same trace on the same platform
// configuration reproduces the stats dump byte-for-byte.
type WorkloadTrace = workload.Trace

// WorkloadOp is one trace record (op, tick, endpoint, addr, len).
type WorkloadOp = workload.Op

// WorkloadFlowSpec describes one synthetic flow for SynthesizeWorkload.
type WorkloadFlowSpec = workload.FlowSpec

// WorkloadRunConfig tunes the workload executor.
type WorkloadRunConfig = workload.RunConfig

// WorkloadResult reports a workload run's per-flow goodput and latency.
type WorkloadResult = workload.Result

// WorkloadFlowResult is one flow of a WorkloadResult.
type WorkloadFlowResult = workload.FlowResult

// WorkloadEngine is a named generator preset (arrival process + op
// kind), the unit pciesim's -workload flag selects.
type WorkloadEngine = workload.Engine

// Workload arrival processes and op kinds.
const (
	WorkloadPoisson = workload.ArrivalPoisson
	WorkloadBursty  = workload.ArrivalBursty
	WorkloadOpRx    = workload.OpRx
	WorkloadOpTx    = workload.OpTx
	WorkloadOpRead  = workload.OpRead
	WorkloadOpWrite = workload.OpWrite
)

// ParseWorkloadTrace parses a trace in either wire form (text or JSON).
func ParseWorkloadTrace(r io.Reader) (*WorkloadTrace, error) { return workload.Parse(r) }

// SynthesizeWorkload materializes seeded synthetic flows into a trace;
// the result is deterministic in the specs alone.
func SynthesizeWorkload(flows []WorkloadFlowSpec) (*WorkloadTrace, error) {
	return workload.Synthesize(flows)
}

// RunWorkload executes a trace against a topology platform.
func RunWorkload(sys *System, tr *WorkloadTrace, cfg WorkloadRunConfig) (WorkloadResult, error) {
	return workload.Run(sys, tr, cfg)
}

// ParseWorkloadEngine resolves a "-workload" engine name
// ("poisson-rx", "bursty-read"); unknown names error with the full
// valid-name list.
func ParseWorkloadEngine(s string) (WorkloadEngine, error) { return workload.ParseEngine(s) }

// WorkloadEngineNames lists the valid engine names.
func WorkloadEngineNames() []string { return workload.EngineNames() }

// DefaultConfig returns the paper's validated baseline configuration.
func DefaultConfig() Config { return topo.DefaultConfig() }

// DefaultPhysConfig returns the §VI-A physical testbed parameters.
func DefaultPhysConfig() PhysConfig { return phys.DefaultConfig() }

// Build normalizes the spec, checks it and the configuration, and
// assembles the platform, ready to Boot. It is the one platform
// constructor: the paper's platform is Build(CannedTopo("validation"),
// DefaultConfig()).
func Build(spec *TopoSpec, cfg Config) (*System, error) { return topo.Build(spec, cfg) }
