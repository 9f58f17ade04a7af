package sim

import (
	"fmt"
	"os"
	"time"

	"astro/internal/core"
	"astro/internal/crypto"
	"astro/internal/metrics"
	"astro/internal/reconfig"
	"astro/internal/shard"
	"astro/internal/transport"
	"astro/internal/transport/memnet"
	"astro/internal/types"
	"astro/internal/workload"
)

// System identifies one of the three systems under evaluation.
type System string

// The three systems the paper compares.
const (
	SystemAstroI    System = "astro1"
	SystemAstroII   System = "astro2"
	SystemConsensus System = "consensus"
)

// AllSystems lists the systems in the paper's presentation order.
var AllSystems = []System{SystemAstroI, SystemAstroII, SystemConsensus}

// Label returns the paper's display name.
func (s System) Label() string {
	switch s {
	case SystemAstroI:
		return "Broadcast echo-based system (Astro I)"
	case SystemAstroII:
		return "Broadcast signature-based system (Astro II)"
	case SystemConsensus:
		return "Consensus-based system (BFT-SMaRt-like)"
	default:
		return string(s)
	}
}

// Measurement is one throughput/latency observation of one system.
type Measurement struct {
	System     System
	N          int
	Clients    int
	Throughput float64 // confirmed payments per second
	AvgLatency time.Duration
	P95Latency time.Duration
	P99Latency time.Duration
	Errors     uint64
}

// measureOpts parameterizes one measurement run.
type measureOpts struct {
	system     System
	n          int
	clients    int
	duration   time.Duration
	batchSize  int
	batchDelay time.Duration
	latency    memnet.LatencyModel
	realCrypto bool
	seed       uint64
}

// measure runs a uniform closed-loop workload against a fresh deployment
// of the requested system and returns the observation.
func measure(o measureOpts) (Measurement, error) {
	if o.batchSize == 0 {
		o.batchSize = 256
	}
	if o.batchDelay == 0 {
		o.batchDelay = 5 * time.Millisecond
	}
	if o.latency == nil {
		o.latency = memnet.EuropeWAN()
	}
	hist := &metrics.Histogram{}

	var clients []workload.PaymentClient
	var closeFn func()
	switch o.system {
	case SystemAstroI, SystemAstroII:
		version := core.AstroI
		if o.system == SystemAstroII {
			version = core.AstroII
		}
		cl, err := NewAstroCluster(AstroOpts{
			Version:    version,
			Topology:   shard.Topology{NumShards: 1, PerShard: o.n},
			Latency:    o.latency,
			BatchSize:  o.batchSize,
			BatchDelay: o.batchDelay,
			RealCrypto: o.realCrypto,
			Seed:       o.seed,
		})
		if err != nil {
			return Measurement{}, err
		}
		closeFn = cl.Close
		for i := 0; i < o.clients; i++ {
			clients = append(clients, cl.Client(types.ClientID(i+1)))
		}
	case SystemConsensus:
		cl, err := NewConsensusCluster(ConsensusOpts{
			N:          o.n,
			Latency:    o.latency,
			BatchSize:  o.batchSize,
			BatchDelay: o.batchDelay,
			Seed:       o.seed,
		})
		if err != nil {
			return Measurement{}, err
		}
		closeFn = cl.Close
		for i := 0; i < o.clients; i++ {
			clients = append(clients, cl.Client(types.ClientID(i+1)))
		}
	default:
		return Measurement{}, fmt.Errorf("sim: unknown system %q", o.system)
	}
	defer closeFn()

	pool := make([]types.ClientID, o.clients)
	for i := range pool {
		pool[i] = types.ClientID(i + 1)
	}
	res := workload.RunUniform(workload.UniformConfig{
		Clients:       clients,
		Beneficiaries: pool,
		Duration:      o.duration,
		MaxAmount:     100,
		Hist:          hist,
		Seed:          int64(o.seed) + 42,
	})
	return Measurement{
		System:     o.system,
		N:          o.n,
		Clients:    o.clients,
		Throughput: res.Throughput(),
		AvgLatency: hist.Mean(),
		P95Latency: hist.Quantile(0.95),
		P99Latency: hist.Quantile(0.99),
		Errors:     res.Errors,
	}, nil
}

// Fig3Config parameterizes the throughput-vs-system-size experiment
// (paper Figure 3).
type Fig3Config struct {
	// Sizes are the system sizes to sweep (paper: 4..100 step 6).
	Sizes []int
	// Systems to measure; defaults to all three.
	Systems []System
	// Duration per point.
	Duration time.Duration
	// Clients is the closed-loop client count used to approach peak
	// throughput.
	Clients int
	// BatchSize for all systems (paper: 256).
	BatchSize int
	// RealCrypto switches the harness to real ECDSA (see AstroOpts).
	RealCrypto bool
	// Seed for reproducibility.
	Seed uint64
}

// Fig3 measures peak throughput as a function of system size for each
// system (single shard).
func Fig3(cfg Fig3Config) ([]Measurement, error) {
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = []int{4, 10, 22, 46, 70, 100}
	}
	if len(cfg.Systems) == 0 {
		cfg.Systems = AllSystems
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	var out []Measurement
	for _, sys := range cfg.Systems {
		for _, n := range cfg.Sizes {
			clients := cfg.Clients
			if clients <= 0 {
				// Saturation needs substantial concurrency at every
				// size (the paper scales client threads per system and
				// size too). The ceiling keeps the closed-loop client
				// fleet itself from dominating the single-core substrate.
				clients = 16 * n
				if clients < 256 {
					clients = 256
				}
				if clients > 1024 {
					clients = 1024
				}
			}
			m, err := measure(measureOpts{
				system: sys, n: n, clients: clients,
				duration: cfg.Duration, batchSize: cfg.BatchSize,
				realCrypto: cfg.RealCrypto,
				seed:       cfg.Seed + uint64(n),
			})
			if err != nil {
				return out, fmt.Errorf("fig3 %s n=%d: %w", sys, n, err)
			}
			out = append(out, m)
		}
	}
	return out, nil
}

// Fig4Config parameterizes the latency/throughput experiment (Figure 4).
type Fig4Config struct {
	// N is the system size (paper: 100).
	N int
	// ClientCounts is the offered-load sweep; each count is one point.
	ClientCounts []int
	// Systems to measure; defaults to all three.
	Systems []System
	// Duration per point.
	Duration time.Duration
	// BatchSize for all systems.
	BatchSize int
	// RealCrypto switches the harness to real ECDSA (see AstroOpts).
	RealCrypto bool
	// Seed for reproducibility.
	Seed uint64
}

// Fig4 sweeps offered load at fixed system size, recording the
// latency/throughput curve of each system.
func Fig4(cfg Fig4Config) ([]Measurement, error) {
	if cfg.N <= 0 {
		cfg.N = 100
	}
	if len(cfg.ClientCounts) == 0 {
		cfg.ClientCounts = []int{4, 16, 64, 256}
	}
	if len(cfg.Systems) == 0 {
		cfg.Systems = AllSystems
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	var out []Measurement
	for _, sys := range cfg.Systems {
		for _, k := range cfg.ClientCounts {
			m, err := measure(measureOpts{
				system: sys, n: cfg.N, clients: k,
				duration: cfg.Duration, batchSize: cfg.BatchSize,
				realCrypto: cfg.RealCrypto,
				seed:       cfg.Seed + uint64(k),
			})
			if err != nil {
				return out, fmt.Errorf("fig4 %s clients=%d: %w", sys, k, err)
			}
			out = append(out, m)
		}
	}
	return out, nil
}

// FaultKind selects the robustness perturbation.
type FaultKind string

// The two perturbations of §VI-D, plus the durability extension (a
// kill -9 that later restarts the replica from its write-ahead log) and
// the actively malicious behaviors (internal/sim/byzantine.go) — each
// armable mid-run on any Astro replica.
const (
	FaultCrash   FaultKind = "crash"   // crash-stop
	FaultDelay   FaultKind = "delay"   // netem-style 100ms outbound delay
	FaultRestart FaultKind = "restart" // kill -9, then recover from the WAL

	FaultEquivocate      FaultKind = "equivocate"       // conflicting slot contents to different peers
	FaultWithholdCommits FaultKind = "withhold-commits" // sign acks, never emit commits
	FaultForgeRefs       FaultKind = "forge-refs"       // garbage CREDITCHAINDEF/CREDITREF digests
	FaultNackStorm       FaultKind = "nack-storm"       // CREDITNACK spam
	FaultStaleView       FaultKind = "stale-view"       // stale/forged reconfiguration messages
)

// Byzantine reports whether the kind is an actively malicious behavior
// (as opposed to a crash-style or timing fault).
func (k FaultKind) Byzantine() bool {
	switch k {
	case FaultEquivocate, FaultWithholdCommits, FaultForgeRefs, FaultNackStorm, FaultStaleView:
		return true
	}
	return false
}

// DelayRule injects extra delay on the directed link From → To —
// per-target and asymmetric, unlike the single node-wide FaultDelay.
// For richer perturbations (loss, duplication, corruption, schedules)
// use AstroOpts.Chaos; FaultDelay itself remains for the paper's 100 ms
// experiment.
type DelayRule struct {
	From, To types.ReplicaID
	Delay    time.Duration
}

// TargetKind selects which replica is perturbed.
type TargetKind string

// Perturbation targets.
const (
	TargetLeader TargetKind = "leader" // consensus leader (replica 0)
	TargetRandom TargetKind = "random" // a non-leader replica serving clients
)

// TimelineConfig parameterizes the robustness timelines (Figures 5–7).
type TimelineConfig struct {
	System System
	N      int
	// Clients is the number of single-threaded closed-loop clients
	// (paper: 10, below saturation).
	Clients int
	// Window is the observation window; the fault hits at FaultAt.
	Window  time.Duration
	FaultAt time.Duration
	Fault   FaultKind
	Target  TargetKind
	// Delay is the injected delay for FaultDelay (paper: 100ms).
	Delay time.Duration
	// LinkDelays are asymmetric per-link delays applied at FaultAt
	// alongside whatever Fault injects. On its link a link delay replaces
	// a FaultDelay node delay rather than adding to it (chaos precedence).
	LinkDelays []DelayRule
	// RestartAfter is the downtime before a FaultRestart target is
	// rebuilt from its write-ahead log (default 3s). Astro systems only:
	// the consensus baseline has no durable replica state.
	RestartAfter time.Duration
	// DataDir backs the replicas' write-ahead logs for FaultRestart;
	// empty uses a run-scoped temporary directory.
	DataDir string
	// BinWidth of the throughput timeline (paper: 1s).
	BinWidth time.Duration
	// RequestTimeout tunes the consensus suspicion timeout: loose yields
	// the paper's Consensus-Leader-A (degradation without view change),
	// tight yields Consensus-Leader-B (view change).
	RequestTimeout time.Duration
	// ViewChangeSyncCost models new-leader synchronization time.
	ViewChangeSyncCost time.Duration
	// Seed for reproducibility.
	Seed uint64
}

// TimelineResult is a labeled throughput-over-time curve.
type TimelineResult struct {
	Label    string
	BinWidth time.Duration
	// Rates are confirmed payments per second, one entry per bin.
	Rates []float64
	// ViewChanges counts completed view changes (consensus only).
	ViewChanges uint64
	// AuditSamples and AuditViolations report the always-on invariant
	// auditor, which samples conservation/FIFO/agreement throughout the
	// run (Astro systems only; the faulty target is excluded from the
	// correct-replica checks when the fault is Byzantine).
	AuditSamples    int
	AuditViolations []string
}

// Timeline runs one robustness execution and returns the throughput curve.
func Timeline(cfg TimelineConfig) (TimelineResult, error) {
	if cfg.N <= 0 {
		cfg.N = 49
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 10
	}
	if cfg.Window <= 0 {
		cfg.Window = 24 * time.Second
	}
	if cfg.FaultAt <= 0 {
		cfg.FaultAt = cfg.Window / 2
	}
	if cfg.Delay <= 0 {
		cfg.Delay = 100 * time.Millisecond
	}
	if cfg.BinWidth <= 0 {
		cfg.BinWidth = time.Second
	}
	if cfg.RestartAfter <= 0 {
		cfg.RestartAfter = 3 * time.Second
	}
	dataDir := cfg.DataDir
	if cfg.Fault == FaultRestart && dataDir == "" {
		tmp, err := os.MkdirTemp("", "astro-restart-*")
		if err != nil {
			return TimelineResult{}, fmt.Errorf("sim: %w", err)
		}
		defer os.RemoveAll(tmp)
		dataDir = tmp
	}

	bins := int(cfg.Window/cfg.BinWidth) + 1
	var tl *metrics.Timeline
	var clients []workload.PaymentClient
	var injectFault func()
	var faults linkFaults
	var viewChanges func() uint64
	var auditStop func() AuditReport
	label := fmt.Sprintf("%s-%s-%s", cfg.System, cfg.Target, cfg.Fault)

	switch cfg.System {
	case SystemAstroI, SystemAstroII:
		version := core.AstroI
		if cfg.System == SystemAstroII {
			version = core.AstroII
		}
		opts := AstroOpts{
			Version:  version,
			Topology: shard.Topology{NumShards: 1, PerShard: cfg.N},
			Genesis:  1 << 40,
			Seed:     cfg.Seed,
		}
		if cfg.Fault == FaultRestart {
			opts.DataDir = dataDir
		}
		cl, err := NewAstroCluster(opts)
		if err != nil {
			return TimelineResult{}, err
		}
		defer cl.Close()
		pool := make([]types.ClientID, cfg.Clients)
		for i := 0; i < cfg.Clients; i++ {
			clients = append(clients, cl.Client(types.ClientID(i+1)))
			pool[i] = types.ClientID(i + 1)
		}
		// "Random" target: the representative of one of the clients, so
		// the fault visibly removes that client's share of throughput
		// (fate sharing, paper §VI-D).
		target := cl.RepOf(1)
		var restartTimer *time.Timer
		defer func() {
			if restartTimer != nil {
				restartTimer.Stop()
			}
		}()
		injectFault = func() {
			switch cfg.Fault {
			case FaultRestart:
				cl.Kill(target)
				restartTimer = time.AfterFunc(cfg.RestartAfter, func() {
					// Timeline curves show the recovery dip; a restart
					// error surfaces as throughput that never returns.
					_ = cl.Restart(target)
				})
			case FaultCrash:
				cl.Crash(target)
			case FaultDelay:
				cl.Delay(target, cfg.Delay)
			default:
				// Byzantine behaviors arm on the target's endpoint; an
				// unknown kind is a no-op rather than a crash mid-run.
				_ = cl.ArmFault(target, cfg.Fault)
			}
		}
		faults = cl.linkFaults
		faulty := map[types.ReplicaID]bool{}
		if cfg.Fault.Byzantine() {
			faulty[target] = true
		}
		aud := cl.NewAuditor(AuditorConfig{
			Clients:  pool,
			Genesis:  opts.Genesis,
			Faulty:   faulty,
			Interval: 200 * time.Millisecond,
		})
		aud.Start()
		auditStop = aud.Stop
		viewChanges = func() uint64 { return 0 }
	case SystemConsensus:
		if cfg.Fault == FaultRestart {
			return TimelineResult{}, fmt.Errorf("sim: %s has no durable replica state to restart from", cfg.System)
		}
		if cfg.Fault.Byzantine() {
			return TimelineResult{}, fmt.Errorf("sim: Byzantine fault kinds target Astro replicas, not %s", cfg.System)
		}
		cl, err := NewConsensusCluster(ConsensusOpts{
			N:                  cfg.N,
			RequestTimeout:     cfg.RequestTimeout,
			ViewChangeSyncCost: cfg.ViewChangeSyncCost,
			// Coalesce below-saturation requests into shared batches
			// (BFT-SMaRt's batch timeout); otherwise each request pays
			// the full O(N²) agreement cost alone and the single-core
			// substrate saturates on message handling at larger N.
			BatchDelay: 25 * time.Millisecond,
			Seed:       cfg.Seed,
		})
		if err != nil {
			return TimelineResult{}, err
		}
		defer cl.Close()
		for i := 0; i < cfg.Clients; i++ {
			clients = append(clients, cl.Client(types.ClientID(i+1)))
		}
		target := cl.Leader()
		if cfg.Target == TargetRandom {
			target = cl.IDs[len(cl.IDs)-1] // a non-leader replica
		}
		injectFault = func() {
			if cfg.Fault == FaultCrash {
				cl.Crash(target)
			} else {
				cl.Delay(target, cfg.Delay)
			}
		}
		faults = cl.linkFaults
		viewChanges = func() uint64 {
			var max uint64
			for _, r := range cl.Replicas {
				if v := r.ViewChanges(); v > max {
					max = v
				}
			}
			return max
		}
	default:
		return TimelineResult{}, fmt.Errorf("sim: unknown system %q", cfg.System)
	}

	tl = metrics.NewTimeline(bins, cfg.BinWidth)
	timer := time.AfterFunc(cfg.FaultAt, func() {
		injectFault()
		for _, r := range cfg.LinkDelays {
			faults.LinkDelay(r.From, r.To, r.Delay)
		}
	})
	defer timer.Stop()

	pool := make([]types.ClientID, cfg.Clients)
	for i := range pool {
		pool[i] = types.ClientID(i + 1)
	}
	workload.RunUniform(workload.UniformConfig{
		Clients:       clients,
		Beneficiaries: pool,
		Duration:      cfg.Window,
		MaxAmount:     100,
		Timeline:      tl,
		OpTimeout:     cfg.Window, // ops may stall across a view change
		Seed:          int64(cfg.Seed) + 17,
	})

	counts := tl.Bins()
	rates := make([]float64, len(counts))
	for i, n := range counts {
		rates[i] = tl.Rate(n)
	}
	res := TimelineResult{
		Label:       label,
		BinWidth:    cfg.BinWidth,
		Rates:       rates,
		ViewChanges: viewChanges(),
	}
	if auditStop != nil {
		rep := auditStop()
		res.AuditSamples = rep.Samples
		for _, v := range rep.Violations {
			res.AuditViolations = append(res.AuditViolations, v.String())
		}
	}
	return res, nil
}

// Table1Config parameterizes the sharded Smallbank benchmark (Table I).
type Table1Config struct {
	// ShardCounts sweeps the number of shards (paper: 2, 3, 4).
	ShardCounts []int
	// PerShard is the shard size (paper: 52).
	PerShard int
	// ExtraDelays are the injected inter-replica delays (paper: 0, 20ms).
	ExtraDelays []time.Duration
	// OwnersPerShard is the number of Smallbank account owners per shard.
	OwnersPerShard int
	// Duration per cell.
	Duration time.Duration
	// BatchSize for Astro II.
	BatchSize int
	// IncludeBaseline also measures the consensus upper bound
	// (single-shard, scaled by shard count, as the paper does).
	IncludeBaseline bool
	// RealCrypto switches the harness to real ECDSA (see AstroOpts).
	RealCrypto bool
	// Seed for reproducibility.
	Seed uint64
}

// Table1Row is one line of Table I.
type Table1Row struct {
	System        System
	Shards        int
	ExtraDelay    time.Duration
	PerShardTput  float64
	TotalTput     float64
	AvgLatency    time.Duration
	P95Latency    time.Duration
	CrossFraction float64
	Errors        uint64
}

// Table1 runs the sharded Smallbank benchmark.
func Table1(cfg Table1Config) ([]Table1Row, error) {
	if len(cfg.ShardCounts) == 0 {
		cfg.ShardCounts = []int{2, 3, 4}
	}
	if cfg.PerShard <= 0 {
		cfg.PerShard = 52
	}
	if len(cfg.ExtraDelays) == 0 {
		cfg.ExtraDelays = []time.Duration{0, 20 * time.Millisecond}
	}
	if cfg.OwnersPerShard <= 0 {
		cfg.OwnersPerShard = 32
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	var rows []Table1Row
	for _, shards := range cfg.ShardCounts {
		for _, delay := range cfg.ExtraDelays {
			row, err := table1Cell(cfg, shards, delay)
			if err != nil {
				return rows, err
			}
			rows = append(rows, row)
		}
	}
	if cfg.IncludeBaseline {
		for _, delay := range cfg.ExtraDelays {
			row, err := table1Baseline(cfg, delay)
			if err != nil {
				return rows, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func table1Cell(cfg Table1Config, shards int, delay time.Duration) (Table1Row, error) {
	top := shard.Topology{NumShards: shards, PerShard: cfg.PerShard}
	shardOf, repOf := workload.Maps(top)
	cl, err := NewAstroCluster(AstroOpts{
		Version:    core.AstroII,
		Topology:   top,
		BatchSize:  cfg.BatchSize,
		ShardOf:    shardOf,
		RepOf:      repOf,
		RealCrypto: cfg.RealCrypto,
		Seed:       cfg.Seed + uint64(shards),
	})
	if err != nil {
		return Table1Row{}, fmt.Errorf("table1 shards=%d: %w", shards, err)
	}
	defer cl.Close()
	if delay > 0 {
		for _, r := range top.AllReplicas() {
			cl.Delay(r, delay)
		}
	}

	totalOwners := shards * cfg.OwnersPerShard
	owners := make([]workload.OwnerHandles, 0, totalOwners)
	for o := 0; o < totalOwners; o++ {
		owners = append(owners, workload.OwnerHandles{
			Owner:    o,
			Checking: cl.Client(workload.CheckingOf(o)),
			Savings:  cl.Client(workload.SavingsOf(o)),
		})
	}
	hist := &metrics.Histogram{}
	res := workload.RunSmallbank(workload.SmallbankConfig{
		Owners:   owners,
		Topology: top,
		Duration: cfg.Duration,
		Hist:     hist,
		Seed:     int64(cfg.Seed) + int64(shards)*31,
	})
	total := res.Throughput()
	return Table1Row{
		System:        SystemAstroII,
		Shards:        shards,
		ExtraDelay:    delay,
		PerShardTput:  total / float64(shards),
		TotalTput:     total,
		AvgLatency:    hist.Mean(),
		P95Latency:    hist.Quantile(0.95),
		CrossFraction: res.CrossShardFraction(),
		Errors:        res.Errors,
	}, nil
}

// table1Baseline measures the consensus system on a single shard running
// Smallbank and reports it as the paper does: an optimistic upper bound
// with total = per-shard × max shard count (no cross-shard coordination
// charged).
func table1Baseline(cfg Table1Config, delay time.Duration) (Table1Row, error) {
	cl, err := NewConsensusCluster(ConsensusOpts{
		N:         cfg.PerShard,
		BatchSize: cfg.BatchSize,
		Seed:      cfg.Seed + 99,
	})
	if err != nil {
		return Table1Row{}, fmt.Errorf("table1 baseline: %w", err)
	}
	defer cl.Close()
	if delay > 0 {
		for _, r := range cl.IDs {
			cl.Delay(r, delay)
		}
	}
	top := shard.Topology{NumShards: 1, PerShard: cfg.PerShard}
	owners := make([]workload.OwnerHandles, 0, cfg.OwnersPerShard)
	for o := 0; o < cfg.OwnersPerShard; o++ {
		owners = append(owners, workload.OwnerHandles{
			Owner:    o,
			Checking: cl.Client(workload.CheckingOf(o)),
			Savings:  cl.Client(workload.SavingsOf(o)),
		})
	}
	hist := &metrics.Histogram{}
	res := workload.RunSmallbank(workload.SmallbankConfig{
		Owners:   owners,
		Topology: top,
		Duration: cfg.Duration,
		Hist:     hist,
		Seed:     int64(cfg.Seed) + 131,
	})
	maxShards := 1
	for _, s := range cfg.ShardCounts {
		if s > maxShards {
			maxShards = s
		}
	}
	perShard := res.Throughput()
	return Table1Row{
		System:       SystemConsensus,
		Shards:       1,
		ExtraDelay:   delay,
		PerShardTput: perShard,
		TotalTput:    perShard * float64(maxShards),
		AvgLatency:   hist.Mean(),
		P95Latency:   hist.Quantile(0.95),
		Errors:       res.Errors,
	}, nil
}

// Fig8Config parameterizes the reconfiguration experiment (Figure 8).
type Fig8Config struct {
	// StartN is the initial view size (paper: 4).
	StartN int
	// EndN is the final view size (paper: 80).
	EndN int
	// StateClients and StatePayments size the transferred snapshot.
	StateClients  int
	StatePayments int
	// Systems to measure: SystemAstroII and/or SystemConsensus.
	Systems []System
	// Seed for reproducibility.
	Seed uint64
}

// Fig8Point is one join observation.
type Fig8Point struct {
	System System
	// N is the system size including the joining replica.
	N       int
	Latency time.Duration
}

// Fig8 grows a quiescent system one replica at a time, measuring join
// latency under the consensusless protocol and the consensus-style
// baseline.
func Fig8(cfg Fig8Config) ([]Fig8Point, error) {
	if cfg.StartN <= 0 {
		cfg.StartN = 4
	}
	if cfg.EndN <= cfg.StartN {
		cfg.EndN = 80
	}
	if len(cfg.Systems) == 0 {
		cfg.Systems = []System{SystemAstroII, SystemConsensus}
	}
	if cfg.StateClients < 0 {
		cfg.StateClients = 0
	}

	// Build the transferred snapshot once.
	snap := make(reconfig.StaticState, cfg.StateClients)
	for c := 0; c < cfg.StateClients; c++ {
		log := make([]types.Payment, cfg.StatePayments)
		for i := range log {
			log[i] = types.Payment{
				Spender: types.ClientID(c), Seq: types.Seq(i + 1),
				Beneficiary: types.ClientID((c + 1) % (cfg.StateClients + 1)), Amount: 1,
			}
		}
		snap[types.ClientID(c)] = log
	}

	var out []Fig8Point
	for _, sys := range cfg.Systems {
		points, err := fig8Run(cfg, sys, snap)
		if err != nil {
			return out, err
		}
		out = append(out, points...)
	}
	return out, nil
}

func fig8Run(cfg Fig8Config, sys System, snap reconfig.StaticState) ([]Fig8Point, error) {
	net := memnet.New(memnet.WithLatency(memnet.EuropeWAN()), memnet.WithSeed(cfg.Seed+7))
	defer net.Close()
	// Muxes now own per-channel dispatch goroutines; close them when the
	// run ends or a long bench sweep accumulates leaked goroutines.
	var muxes []*transport.Mux
	newMux := func(id types.ReplicaID) *transport.Mux {
		m := transport.NewMux(net.Node(transport.ReplicaNode(id)))
		muxes = append(muxes, m)
		return m
	}
	defer func() {
		for _, m := range muxes {
			m.Close()
		}
	}()
	registry := crypto.NewRegistry()
	keys := make(map[types.ReplicaID]*crypto.KeyPair)

	members := make([]types.ReplicaID, cfg.StartN)
	for i := range members {
		members[i] = types.ReplicaID(i)
		keys[members[i]] = crypto.MustGenerateKeyPair()
		registry.Add(members[i], keys[members[i]].Public())
	}
	view := reconfig.View{Num: 1, Members: members}

	for _, id := range members {
		mux := newMux(id)
		reconfig.NewManager(reconfig.Config{
			Self: id, Mux: mux, Keys: keys[id], Registry: registry,
			InitialView: view, State: snap,
		})
	}

	var out []Fig8Point
	for n := cfg.StartN; n < cfg.EndN; n++ {
		joiner := types.ReplicaID(1000 + n)
		keys[joiner] = crypto.MustGenerateKeyPair()
		mux := newMux(joiner)
		jc := reconfig.JoinConfig{
			Self: joiner, Mux: mux, Keys: keys[joiner], Registry: registry,
			CurrentView: view, Timeout: 60 * time.Second,
		}
		var res *reconfig.JoinResult
		var err error
		if sys == SystemConsensus {
			res, err = reconfig.ConsensusJoin(jc)
		} else {
			res, err = reconfig.Join(jc)
		}
		if err != nil {
			return out, fmt.Errorf("fig8 %s n=%d: %w", sys, n+1, err)
		}
		out = append(out, Fig8Point{System: sys, N: n + 1, Latency: res.Latency})
		view = res.View
		// The joiner becomes a member serving future joins.
		registry.Add(joiner, keys[joiner].Public())
		// The manager mux takes over the joiner's endpoint handler slot;
		// the join-time mux is done, so release its dispatchers now
		// (Close is idempotent — the deferred sweep may hit it again).
		mux.Close()
		mgrMux := newMux(joiner)
		reconfig.NewManager(reconfig.Config{
			Self: joiner, Mux: mgrMux, Keys: keys[joiner], Registry: registry,
			InitialView: view, State: snap,
		})
	}
	return out, nil
}
