package main

import (
	"fmt"
	"math"
	"time"

	"astro/internal/types"
)

// deployKind says how a workload's deployment is built for an untraced
// run. Traced runs always rebuild the deployment inside the benchmark
// process (see inproc.go), whatever the kind.
type deployKind int

const (
	kindTCP4  deployKind = iota // four astro-node processes on loopback tcpnet
	kindEmbed                   // astro.New over memnet, 2 shards x 4 replicas
)

// workload fixes everything about a run except its seed and length: the
// name alone determines the deployment's flags, the population and the
// open-phase rate.
type workload struct {
	name string
	kind deployKind
	// durable adds -data-dir (file WAL); stateCache > 0 adds -state-cache.
	// A durable workload's run must see every replica compact its WAL
	// (run.go, crossedSnapshot).
	durable    bool
	stateCache int
	// spenders are the client identities the generator drives, one per
	// representative replica. They pay each other: under Astro II a
	// beneficiary's funds are dependency certificates held by its
	// representative until its own next payment attaches them, so
	// beneficiaries that never spend grow every replica image without
	// bound (README, "Why spenders pay spenders").
	spenders []types.ClientID
	// crossShard restricts a spender's beneficiaries to the spenders of
	// the other shard; otherwise it pays any other spender.
	crossShard bool
	// openRate is the fixed total arrival rate of the open phase, in
	// payments per second: the same on every workload, so that their
	// latencies compare, and a sixth to a ninth of the sat phase's goodput
	// on a 2-core host (README, "Two rates").
	openRate float64
}

// Generator constants shared by every workload (ISSUE 11).
const (
	satOutstanding = 1024 // closed-loop window, total across clients
	perClientCap   = 2048 // below core's maxSeqWindow and the client's 4096-deep confirmation buffer
	pagedCache     = 4096
	// deploymentPayments is what one tcp4 deployment is asked to settle
	// at most. A replica's image grows by 96 bytes per settled payment
	// (32 in the spender's log, 48 of endorsement memory, 16 of used
	// dependency; none ever pruned). The full image must fit tcpnet's
	// 16 MiB frame for the out-of-process audit to fetch it, which gives
	// way at 174 000 payments, and a paged replica's snapshot manifest
	// must fit the KV store's 16 MiB value limit or its WAL fails.
	deploymentPayments = 140_000
)

var tcpSpenders = []types.ClientID{1, 2, 3, 4} // representatives 1, 2, 3, 0

// embedSpenders are one client per replica of a 2x4 topology: client c
// lives on shard c%2 and is represented by replica (c%2)*4 + (c/2)%4.
var embedSpenders = []types.ClientID{8, 9, 10, 11, 12, 13, 14, 15}

var workloads = []workload{
	{name: "tcp4-mem", kind: kindTCP4, spenders: tcpSpenders, openRate: 5000},
	{name: "tcp4-wal", kind: kindTCP4, durable: true, spenders: tcpSpenders, openRate: 5000},
	{name: "tcp4-paged", kind: kindTCP4, durable: true, stateCache: pagedCache, spenders: tcpSpenders, openRate: 5000},
	{name: "embed2x4-cross", kind: kindEmbed, spenders: embedSpenders, crossShard: true, openRate: 5000},
}

// room is how many more payments a deployment that has been sent sent of
// them may take: what deploymentPayments leaves. Only a tcp4 deployment
// has the limits behind it.
func (w workload) room(sent uint64) uint64 {
	if w.kind != kindTCP4 {
		return math.MaxUint64
	}
	return deploymentPayments - min(sent, deploymentPayments)
}

// fits refuses a light phase, and a warm-up and open phase of openLoop
// together, that would leave their deployment less than a quarter of its
// payments for the sat phase.
func (w workload) fits(light, openLoop time.Duration) error {
	sent := uint64(lightRate*light.Seconds() + w.openRate*openLoop.Seconds())
	if w.room(sent) < deploymentPayments/4 {
		return fmt.Errorf("%v of open loop at %.0f pps leaves one deployment of %d payments no room for a sat phase: use fewer --seconds",
			openLoop, w.openRate, deploymentPayments)
	}
	return nil
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
