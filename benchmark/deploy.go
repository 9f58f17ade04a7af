package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"astro"
	"astro/internal/core"
	"astro/internal/reconfig"
	"astro/internal/shard"
	"astro/internal/sim"
	"astro/internal/transport"
	"astro/internal/transport/tcpnet"
	"astro/internal/types"
)

// genesis is every client's initial balance: astro-node's default
// -genesis, which the embedded deployments are given too.
const genesis types.Amount = 1_000_000

// deployment is a running system under test plus the handles the
// generator and the audit need.
type deployment interface {
	clients() []*core.Client
	// cpuSeconds is the CPU time, user plus system, the deployment's
	// processes have used so far.
	cpuSeconds() (float64, error)
	// snapshots is how many of the deployment's replicas have compacted
	// their WAL, writing a snapshot, since they were launched.
	snapshots() (int, error)
	// audit checks the money once the run has drained and returns one
	// line per violation.
	audit(g *generator) ([]string, error)
	close()
}

// environment locates the checkout and the binaries run.sh built.
type environment struct {
	root    string // checkout root; every file the benchmark writes is below it
	nodeBin string // astro-node, for the tcp4 workloads
}

func (e environment) scratch() string { return filepath.Join(e.root, ".bench_build", "run") }

// deploy launches w's deployment for an untraced run.
func deploy(env environment, w workload) (deployment, error) {
	if w.kind == kindEmbed {
		return deployEmbedded(w)
	}
	return deployProcs(env, w)
}

// ---- tcp4: four astro-node processes -------------------------------------

// tcpReplicas is the size of a tcp4 deployment.
const tcpReplicas = 4

type procDeployment struct {
	w      workload
	dir    string
	served time.Time // when the last node said it was serving
	procs  []*exec.Cmd
	logs   []*os.File
	peers  map[transport.NodeID]string
	ids    []types.ReplicaID
	eps    []*tcpnet.Endpoint
	cl     []*core.Client
}

func deployProcs(env environment, w workload) (_ deployment, err error) {
	if env.nodeBin == "" {
		return nil, fmt.Errorf("workload %s needs -node-bin (benchmark/run.sh builds it)", w.name)
	}
	if err := os.MkdirAll(env.scratch(), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(env.scratch(), w.name+"-")
	if err != nil {
		return nil, err
	}
	d := &procDeployment{w: w, dir: dir}
	defer func() {
		if err != nil {
			d.close()
		}
	}()

	const n = tcpReplicas
	if d.peers, err = reservePorts(n); err != nil {
		return nil, err
	}
	var peerArg []string
	for i := 0; i < n; i++ {
		d.ids = append(d.ids, types.ReplicaID(i))
		peerArg = append(peerArg, fmt.Sprintf("%d=%s", i, d.peers[transport.NodeID(i)]))
	}
	for i := 0; i < n; i++ {
		args := []string{"-id", strconv.Itoa(i), "-listen", d.peers[transport.NodeID(i)], "-peers", strings.Join(peerArg, ",")}
		if w.durable {
			args = append(args, "-data-dir", filepath.Join(dir, fmt.Sprintf("r%d", i)))
		}
		if w.stateCache > 0 {
			args = append(args, "-state-cache", strconv.Itoa(w.stateCache))
		}
		logf, lerr := os.Create(filepath.Join(dir, fmt.Sprintf("r%d.log", i)))
		if lerr != nil {
			return nil, lerr
		}
		d.logs = append(d.logs, logf)
		cmd := exec.Command(env.nodeBin, args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		if serr := cmd.Start(); serr != nil {
			return nil, fmt.Errorf("start replica %d: %w", i, serr)
		}
		d.procs = append(d.procs, cmd)
	}
	if err := d.waitServing(10 * time.Second); err != nil {
		return nil, err
	}
	d.served = time.Now()
	for _, id := range w.spenders {
		mux, merr := d.dial(id)
		if merr != nil {
			return nil, merr
		}
		d.cl = append(d.cl, core.NewClient(id, d.repOf, mux))
	}
	return d, nil
}

// reservePorts picks a free loopback port for each of n replicas. Every
// port is reserved before any is released, which keeps the window in
// which another process could take one as short as it can be.
func reservePorts(n int) (map[transport.NodeID]string, error) {
	peers := make(map[transport.NodeID]string, n)
	var listeners []net.Listener
	defer func() {
		for _, ln := range listeners {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, ln)
		peers[transport.NodeID(i)] = ln.Addr().String()
	}
	return peers, nil
}

func (d *procDeployment) repOf(c types.ClientID) types.ReplicaID {
	return d.ids[uint64(c)%uint64(len(d.ids))]
}

// waitServing waits until every node has printed that it is serving. A
// listening socket is not enough: a node listens before its replica has
// registered its channels on the Mux, and the Mux discards frames for a
// channel nobody registered, so a payment sent into that window is lost.
func (d *procDeployment) waitServing(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i := range d.procs {
		path := filepath.Join(d.dir, fmt.Sprintf("r%d.log", i))
		for {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if bytes.Contains(b, []byte(" serving ")) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("replica %d not serving after %v: %s", i, timeout, bytes.TrimSpace(b))
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// dial opens a dial-only tcpnet endpoint for one client identity: tcpnet
// knows a client by its node id, so each identity has its own connection.
func (d *procDeployment) dial(id types.ClientID) (*transport.Mux, error) {
	ep, err := tcpnet.New(tcpnet.Config{Self: transport.ClientNode(id), Peers: d.peers})
	if err != nil {
		return nil, err
	}
	d.eps = append(d.eps, ep)
	return transport.NewMux(ep), nil
}

func (d *procDeployment) clients() []*core.Client { return d.cl }

func (d *procDeployment) cpuSeconds() (float64, error) {
	var total float64
	for _, p := range d.procs {
		s, err := procCPUSeconds(p.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// snapshots reads the replicas' data directories. A file-backed WAL
// (internal/wal.FileBackend) renames its first snapshot into place as
// "snapshot". A KV-backed one (wal.KVBackend, with -state-cache) commits a
// snapshot by publishing the KV store, which replaces "kv.index"; the
// store also publishes once when it is opened, before the node serves.
func (d *procDeployment) snapshots() (int, error) {
	if !d.w.durable {
		return 0, nil
	}
	name := "snapshot"
	if d.w.stateCache > 0 {
		name = "kv.index"
	}
	n := 0
	for i := range d.procs {
		st, err := os.Stat(filepath.Join(d.dir, fmt.Sprintf("r%d", i), name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return 0, err
		}
		if st.ModTime().After(d.served) {
			n++
		}
	}
	return n, nil
}

// auditClient is the client identity the out-of-process audit dials in
// with; it never pays.
const auditClient types.ClientID = 90

// audit reconciles every spender's balance and checks that confirmations
// arrived once each in sequence order. When the nodes run with -data-dir,
// and therefore serve state transfer, it also runs the out-of-process
// audit internal/e2e uses: one snapshot per replica fetched over the
// reconfig channel, then the invariant battery over the set.
func (d *procDeployment) audit(g *generator) ([]string, error) {
	out := reconcileBalances(g)
	if !d.w.durable {
		return out, nil
	}
	mux, err := d.dial(auditClient)
	if err != nil {
		return out, err
	}
	exports := make(map[types.ReplicaID][]core.AccountExport)
	for _, rid := range d.ids {
		snap, err := reconfig.FetchState(reconfig.FetchConfig{
			Mux: mux, Peers: []types.ReplicaID{rid}, Timeout: 10 * time.Second,
		})
		if err != nil {
			return out, fmt.Errorf("replica %d snapshot: %w", rid, err)
		}
		accs, err := core.DecodeAuditAccounts(snap)
		if err != nil {
			return out, fmt.Errorf("replica %d snapshot: %w", rid, err)
		}
		exports[rid] = accs
	}
	for _, v := range sim.AuditExports(core.AstroII, genesis, exports) {
		out = append(out, v.String())
	}
	return out, nil
}

func (d *procDeployment) close() {
	for _, ep := range d.eps {
		ep.Close()
	}
	for _, p := range d.procs {
		_ = p.Process.Signal(syscall.SIGKILL)
	}
	for _, p := range d.procs {
		_ = p.Wait()
	}
	for _, f := range d.logs {
		f.Close()
	}
	os.RemoveAll(d.dir)
}

// reconcileBalances asks each spender's representative for its balance
// and compares it with genesis, minus what the spender was confirmed to
// have spent, plus what the other spenders paid it. It also reports
// confirmations that did not arrive once each in sequence order. A credit
// reaches its beneficiary's representative a moment after the payment was
// confirmed to the spender, so a mismatch counts only if it persists.
func reconcileBalances(g *generator) []string {
	var out []string
	if g.disorder > 0 {
		out = append(out, fmt.Sprintf("%d confirmations arrived duplicated or out of sequence order", g.disorder))
	}
	deadline := time.Now().Add(3 * time.Second)
	for _, s := range g.sp {
		want := genesis - types.Amount(s.confirmed.Load()) + types.Amount(g.paidTo[s.id])
		for {
			bal, err := s.c.QueryBalance(5 * time.Second)
			if err == nil && bal == want {
				break
			}
			if time.Now().Before(deadline) {
				time.Sleep(20 * time.Millisecond)
				continue
			}
			if err != nil {
				out = append(out, fmt.Sprintf("client %d: balance query: %v", s.id, err))
			} else {
				out = append(out, fmt.Sprintf("client %d: balance %d, expected %d (genesis %d, %d confirmed spent, %d received)",
					s.id, bal, want, genesis, s.confirmed.Load(), g.paidTo[s.id]))
			}
			break
		}
	}
	return out
}

// ---- embed2x4-cross: astro.New over memnet --------------------------------

var embedTopology = shard.Topology{NumShards: 2, PerShard: 4}

type embedDeployment struct {
	sys *astro.System
	cl  []*core.Client
}

func deployEmbedded(w workload) (deployment, error) {
	sys, err := astro.New(astro.Options{Shards: embedTopology, Genesis: genesis})
	if err != nil {
		return nil, err
	}
	d := &embedDeployment{sys: sys}
	for _, id := range w.spenders {
		d.cl = append(d.cl, sys.Client(id))
	}
	return d, nil
}

func (d *embedDeployment) clients() []*core.Client { return d.cl }

func (d *embedDeployment) cpuSeconds() (float64, error) { return selfCPUSeconds() }

func (d *embedDeployment) snapshots() (int, error) { return 0, nil } // memory-only

// audit runs System.Audit for every spender on every replica of its
// shard, checks that those replicas agree on its settled log, and
// reconciles the balances.
func (d *embedDeployment) audit(g *generator) ([]string, error) {
	out := reconcileBalances(g)
	top := d.sys.Topology()
	for _, s := range g.sp {
		var first []types.Payment
		for i, rid := range top.Replicas(top.ShardOf(s.id)) {
			log, ok := d.sys.Audit(rid, s.id)
			// A confirmation needs a quorum to have settled the payment;
			// the replicas beyond it may still be settling after the drain.
			for deadline := time.Now().Add(3 * time.Second); uint64(len(log)) < s.confirmed.Load() && time.Now().Before(deadline); {
				time.Sleep(20 * time.Millisecond)
				log, ok = d.sys.Audit(rid, s.id)
			}
			if !ok {
				out = append(out, fmt.Sprintf("replica %d: client %d's log is not in sequence order", rid, s.id))
			}
			if uint64(len(log)) != s.confirmed.Load() {
				out = append(out, fmt.Sprintf("replica %d: client %d has %d settled payments, %d confirmed", rid, s.id, len(log), s.confirmed.Load()))
			}
			if i == 0 {
				first = log
			} else if !samePayments(first, log) {
				out = append(out, fmt.Sprintf("replica %d disagrees with replica %d on client %d's log", rid, top.Replicas(top.ShardOf(s.id))[0], s.id))
			}
		}
	}
	return out, nil
}

func samePayments(a, b []types.Payment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (d *embedDeployment) close() { d.sys.Close() }
