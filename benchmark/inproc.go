package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"astro/internal/core"
	"astro/internal/crypto"
	"astro/internal/crypto/verifier"
	"astro/internal/kv"
	"astro/internal/reconfig"
	"astro/internal/sched"
	"astro/internal/sim"
	"astro/internal/transport"
	"astro/internal/transport/memnet"
	"astro/internal/transport/tcpnet"
	"astro/internal/types"
	"astro/internal/wal"
)

// inprocDeployment is a workload's deployment rebuilt inside the
// benchmark process for a traced run, with the Endpoint and Backend
// decorators installed: the tcp4 workloads as four replicas configured
// the way cmd/astro-node configures one, each on its own listening tcpnet
// endpoint and WAL directory; embed2x4-cross as sim.NewAstroCluster
// assembles what astro.New deploys. Replica handles are in reach here,
// so the audit is the full invariant battery.
type inprocDeployment struct {
	w    workload
	tr   *tracer
	dir  string
	net  *memnet.Network // embedded workload only
	reps []*core.Replica
	// stores are the replicas' embedded KV stores, nil unless paged.
	// verifiers are one per replica, as in astro-node, or the one shared
	// process-wide verifier of an embedded deployment, which is not
	// this deployment's to close.
	stores         []*kv.Store
	verifiers      []*verifier.Verifier
	sharedVerifier bool
	muxes          []*transport.Mux
	eps            []transport.Endpoint
	cl             []*core.Client
	clEps          []*traceEndpoint
}

// nodeSecret is astro-node's default -secret, from which it derives the
// demo keys.
const nodeSecret = "astro-demo"

func deployInProcess(env environment, w workload, tr *tracer) (_ *inprocDeployment, err error) {
	d := &inprocDeployment{w: w, tr: tr}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if w.kind == kindEmbed {
		return d, d.buildEmbedded(tr)
	}
	if err := os.MkdirAll(env.scratch(), 0o755); err != nil {
		return nil, err
	}
	if d.dir, err = os.MkdirTemp(env.scratch(), w.name+"-trace-"); err != nil {
		return nil, err
	}
	return d, d.buildTCP4(tr)
}

func (d *inprocDeployment) buildTCP4(tr *tracer) error {
	const n = tcpReplicas
	peers, err := reservePorts(n)
	if err != nil {
		return err
	}
	ids := make([]types.ReplicaID, n)
	for i := range ids {
		ids[i] = types.ReplicaID(i)
	}
	registry := crypto.NewRegistry()
	keys := make([]*crypto.KeyPair, n)
	for i, id := range ids {
		kp, err := crypto.DeriveKeyPair([]byte(fmt.Sprintf("%s/%d", nodeSecret, id)))
		if err != nil {
			return err
		}
		keys[i] = kp
		registry.Add(id, kp.Public())
	}
	for i, id := range ids {
		tcp, err := tcpnet.New(tcpnet.Config{Self: transport.NodeID(id), Listen: peers[transport.NodeID(id)], Peers: peers})
		if err != nil {
			return err
		}
		ep := &traceEndpoint{Endpoint: tcp, tr: tr, node: int32(i)}
		d.eps = append(d.eps, ep)
		mux := transport.NewMux(ep)
		d.muxes = append(d.muxes, mux)
		var be wal.Backend
		var store *kv.Store
		if d.w.durable {
			raw, err := wal.OpenAuto(filepath.Join(d.dir, fmt.Sprintf("r%d", i)), d.w.stateCache > 0)
			if err != nil {
				return err
			}
			if as, ok := raw.(interface{ AccountStore() *kv.Store }); ok {
				store = as.AccountStore()
			}
			be = decorateBackend(raw, tr, int32(i))
		}
		ver := verifier.New(0)
		rep, err := core.NewReplica(core.Config{
			Version:            core.AstroII,
			Self:               id,
			Replicas:           ids,
			F:                  types.MaxFaults(n),
			Mux:                mux,
			Genesis:            func(types.ClientID) types.Amount { return genesis },
			BatchSize:          256,
			BatchDelay:         5 * time.Millisecond,
			Auth:               crypto.NewLinkAuthenticator(id, []byte(nodeSecret)),
			Keys:               keys[i],
			Registry:           registry,
			Verifier:           ver,
			WAL:                be,
			StateCacheAccounts: d.w.stateCache,
		})
		if err != nil {
			return err
		}
		if d.w.durable {
			reconfig.NewManager(reconfig.Config{
				Self: id, Mux: mux, Keys: keys[i], Registry: registry,
				InitialView: reconfig.View{Num: 1, Members: ids}, Full: rep,
			})
		}
		d.reps = append(d.reps, rep)
		d.stores = append(d.stores, store)
		d.verifiers = append(d.verifiers, ver)
	}
	repOf := func(c types.ClientID) types.ReplicaID { return ids[uint64(c)%n] }
	for i, id := range d.w.spenders {
		tcp, err := tcpnet.New(tcpnet.Config{Self: transport.ClientNode(id), Peers: peers})
		if err != nil {
			return err
		}
		d.addClient(i, id, tcp, repOf, tr)
	}
	return nil
}

func (d *inprocDeployment) buildEmbedded(tr *tracer) error {
	top := embedTopology
	d.net = memnet.New(memnet.WithLatency(memnet.Fixed(0)))
	rt, ver := sched.Default(), verifier.Default()
	d.verifiers, d.sharedVerifier = []*verifier.Verifier{ver}, true
	master := []byte("astro-sim-master")
	registry := crypto.NewRegistry()
	keys := make(map[types.ReplicaID]*crypto.KeyPair)
	for _, id := range top.AllReplicas() {
		kp, err := crypto.GenerateKeyPair()
		if err != nil {
			return err
		}
		keys[id] = kp
		registry.Add(id, kp.Public())
	}
	shards := make([]types.ShardID, top.NumShards)
	for s := range shards {
		shards[s] = types.ShardID(s)
	}
	for _, id := range top.AllReplicas() {
		ep := &traceEndpoint{Endpoint: d.net.Node(transport.ReplicaNode(id)), tr: tr, node: int32(id)}
		d.eps = append(d.eps, ep)
		mux := transport.NewMux(ep, transport.WithRuntime(rt))
		d.muxes = append(d.muxes, mux)
		rep, err := core.NewReplica(core.Config{
			Version:      core.AstroII,
			Self:         id,
			Replicas:     top.Replicas(top.ReplicaShard(id)),
			F:            top.F(),
			Mux:          mux,
			RepOf:        top.RepOf,
			ShardOf:      top.ShardOf,
			ReplicaShard: top.ReplicaShard,
			ShardMembers: top.Directory(),
			Shards:       shards,
			Genesis:      func(types.ClientID) types.Amount { return genesis },
			Sched:        rt,
			Auth:         crypto.NewLinkAuthenticator(id, master),
			Keys:         keys[id],
			Registry:     registry,
			Verifier:     ver,
		})
		if err != nil {
			return err
		}
		d.reps = append(d.reps, rep)
		d.stores = append(d.stores, nil)
	}
	for i, id := range d.w.spenders {
		d.addClient(i, id, d.net.Node(transport.ClientNode(id)), top.RepOf, tr)
	}
	return nil
}

func (d *inprocDeployment) addClient(i int, id types.ClientID, inner transport.Endpoint, repOf func(types.ClientID) types.ReplicaID, tr *tracer) {
	ep := &traceEndpoint{Endpoint: inner, tr: tr, node: int32(clientNode + i)}
	d.eps = append(d.eps, ep)
	d.clEps = append(d.clEps, ep)
	mux := transport.NewMux(ep)
	d.muxes = append(d.muxes, mux)
	d.cl = append(d.cl, core.NewClient(id, repOf, mux))
}

func (d *inprocDeployment) clients() []*core.Client { return d.cl }

func (d *inprocDeployment) cpuSeconds() (float64, error) { return selfCPUSeconds() }

// snapshots is how many replicas' decorated backends were asked to write
// a snapshot.
func (d *inprocDeployment) snapshots() (int, error) {
	n := 0
	for i := range d.tr.snapshotsBy {
		if d.tr.snapshotsBy[i].Load() > 0 {
			n++
		}
	}
	return n, nil
}

// audit reconciles the spenders' balances and runs the invariant battery
// of internal/sim over every replica's account export: conservation,
// per-client FIFO, no duplicate settlement, agreement. All shards go in
// one set, because a cross-shard credit names a payment the other shard
// settled.
func (d *inprocDeployment) audit(g *generator) ([]string, error) {
	out := reconcileBalances(g)
	exports := make(map[types.ReplicaID][]core.AccountExport)
	for _, rep := range d.reps {
		exports[rep.ID()] = rep.AuditExport()
		if err := rep.WALErr(); err != nil {
			out = append(out, fmt.Sprintf("replica %d: wal: %v", rep.ID(), err))
		}
		if err := rep.PagerErr(); err != nil {
			out = append(out, fmt.Sprintf("replica %d: pager: %v", rep.ID(), err))
		}
	}
	for _, v := range sim.AuditExports(core.AstroII, genesis, exports) {
		out = append(out, v.String())
	}
	return out, nil
}

// close stops traffic first (endpoints, then muxes) and then abandons the
// replicas, the in-process kill -9: their directories are deleted next,
// so a final snapshot would be written for nothing.
func (d *inprocDeployment) close() {
	if d.net != nil {
		d.net.Close()
	}
	for _, ep := range d.eps {
		ep.Close()
	}
	for _, m := range d.muxes {
		m.Close()
	}
	for _, r := range d.reps {
		r.Abandon()
	}
	if !d.sharedVerifier {
		for _, v := range d.verifiers {
			v.Close()
		}
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}
