package bcrdb

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bcrdb/internal/core"
	"bcrdb/internal/identity"
	"bcrdb/internal/ordering"
	"bcrdb/internal/ordering/bft"
	"bcrdb/internal/ordering/kafka"
	"bcrdb/internal/simnet"
	"bcrdb/internal/storage"
	"bcrdb/internal/transport"
)

// ErrClosed is returned by operations attempted after Network.Close.
// Client.Invoke wraps it in an UnresolvedError; errors.Is unwraps.
var ErrClosed = errors.New("bcrdb: network closed")

// OrderingKind selects the consensus implementation (§4.4).
type OrderingKind uint8

// Ordering services.
const (
	// OrderingKafka is the crash-fault-tolerant service built on a
	// totally ordered topic.
	OrderingKafka OrderingKind = iota
	// OrderingBFT is the byzantine-fault-tolerant PBFT service
	// (requires at least 4 orderer nodes).
	OrderingBFT
)

// NetProfile selects the deployment model of §5.
type NetProfile uint8

// Network profiles.
const (
	// ProfileLAN models all organizations in one datacenter.
	ProfileLAN NetProfile = iota
	// ProfileWAN models the multi-cloud deployment: organizations in
	// different datacenters with high inter-org latency and constrained
	// bandwidth.
	ProfileWAN
)

// Org describes one participating organization: it runs one database
// node, one orderer node, one admin (named "admin@<org>") and the listed
// client users.
type Org struct {
	Name  string
	Users []string
}

// Genesis is the identical initial state of every node (§3.7).
type Genesis struct {
	// SQL statements (DDL and seed data) applied at block 0.
	SQL []string
	// Contracts deployed at block 0 (CREATE FUNCTION sources). Later
	// changes go through the create/approve/submit deployment workflow.
	Contracts []string
}

// Options configures a network.
type Options struct {
	Orgs []Org
	Flow Flow
	// SerialExecution switches the block processor to one-transaction-
	// at-a-time execution (the Ethereum-style baseline of §5.1).
	SerialExecution bool

	// Ordering selects the ordering service; BFT runs at least 4
	// orderer nodes, more than one per org when there are fewer orgs.
	Ordering OrderingKind
	// BlockSize and BlockTimeout cut blocks (default 100 transactions
	// and 100 ms).
	BlockSize    int
	BlockTimeout time.Duration

	Profile NetProfile
	// DataDir, when set, persists each node's block store and WAL under
	// DataDir/<node>, enabling crash recovery.
	DataDir string
	// Backend selects each node's storage backend: "memory" (default)
	// rebuilds state by re-executing the chain on restart; "disk"
	// append-ahead-logs committed row versions and restores them by WAL
	// replay. "disk" requires DataDir.
	Backend string
	// CheckpointEvery emits write-set checkpoints every N blocks
	// (default 1).
	CheckpointEvery uint64

	// Retry configures client-side resubmission with backoff and target
	// failover (see RetryPolicy). Zero value = one attempt, no retry.
	Retry RetryPolicy
	// FailoverTimeout is how long a node tolerates silence from its
	// delivering orderer before re-subscribing to the next one
	// (default 2s).
	FailoverTimeout time.Duration
	// AntiEntropyEvery is the nodes' self-healing tick: tip gossip,
	// catch-up with backoff, orderer liveness (default 250ms).
	AntiEntropyEvery time.Duration

	// IdentitySecret, when non-empty, derives every identity (admins,
	// users, peers, orderers) deterministically from this shared secret
	// instead of generating random keys. All processes of a
	// multi-process cluster — and any dialed client — must agree on it,
	// so genesis certificates and signatures verify across process
	// boundaries. Required when Cluster is set.
	IdentitySecret string

	// Cluster, when non-nil, makes this process run only one org's
	// slice of the network (its database node and orderers) and reach
	// the rest over the wire. All processes must be started with
	// identical Options apart from Cluster.LocalOrg/Listen.
	Cluster *ClusterConfig

	Genesis Genesis
}

// ClusterConfig describes one process of a multi-process deployment.
type ClusterConfig struct {
	// LocalOrg names the organization (from Options.Orgs) whose
	// components this process hosts.
	LocalOrg string
	// Listen is the wire-protocol address this process serves
	// ("127.0.0.1:7061"). Other processes relay fabric messages here.
	Listen string
	// Peers maps every other org name to the base URL of the process
	// serving it ("http://host:port").
	Peers map[string]string
}

// Network is a running blockchain database network — the whole fabric
// in-process, or (cluster mode) one org's slice of it.
type Network struct {
	opts  Options
	net   *simnet.Network
	topic *kafka.Topic

	kafkaOrds []*kafka.Orderer
	bftOrds   []*bft.Orderer
	nodes     []*core.Node

	signers  map[string]*identity.Signer // clients and admins
	peers    []string                    // database-node endpoint names, every org's
	orderers []string                    // orderer endpoint names

	// Cluster-mode wiring (nil otherwise).
	topicHost    *kafka.TopicHost
	topicClients []*kafka.TopicClient
	relay        *transport.RelayPool
	server       *transport.Server

	clientMu sync.Mutex
	clients  map[string]*Client

	// closed fences use-after-Close: set before anything stops, read by
	// Client under clientMu, so no handle is made on a stopping fabric.
	closed    atomic.Bool
	closeOnce sync.Once
}

// NewNetwork bootstraps and starts a network.
func NewNetwork(opts Options) (*Network, error) {
	if len(opts.Orgs) == 0 {
		return nil, errors.New("bcrdb: at least one organization required")
	}

	nOrderers := len(opts.Orgs)
	if opts.Ordering == OrderingBFT && nOrderers < 4 {
		nOrderers = 4
	}

	// Cluster mode: this process hosts org localOrgIdx's node and the
	// orderers assigned to it; everything else is reached via the relay
	// gateway. The topology (names, orderer count, genesis) is computed
	// identically in every process from the same Options.
	cluster := opts.Cluster
	localOrgIdx := -1
	if cluster != nil {
		if opts.IdentitySecret == "" {
			return nil, errors.New("bcrdb: cluster mode requires Options.IdentitySecret")
		}
		for i, org := range opts.Orgs {
			if org.Name == cluster.LocalOrg {
				localOrgIdx = i
			}
		}
		if localOrgIdx < 0 {
			return nil, fmt.Errorf("bcrdb: Cluster.LocalOrg %q is not in Options.Orgs", cluster.LocalOrg)
		}
	}
	localNode := func(i int) bool { return cluster == nil || i == localOrgIdx }
	localOrderer := func(i int) bool { return cluster == nil || i%len(opts.Orgs) == localOrgIdx }

	nw := &Network{
		opts:    opts,
		signers: make(map[string]*identity.Signer),
		clients: make(map[string]*Client),
	}
	newSigner := func(name, org string, role identity.Role) (*identity.Signer, error) {
		if opts.IdentitySecret != "" {
			return identity.Deterministic(name, org, role, opts.IdentitySecret)
		}
		return identity.NewSigner(name, org, role, nil)
	}

	// Simulated fabric: LAN, or WAN between different orgs' nodes.
	nw.net = simnet.New(simnet.LAN())
	if opts.Profile == ProfileWAN {
		lan, wan := simnet.LAN(), simnet.WAN()
		orgOf := make(map[string]string)
		for _, org := range opts.Orgs {
			orgOf["db."+org.Name] = org.Name
		}
		for i := 0; i < nOrderers; i++ {
			orgOf[ordererName(i)] = opts.Orgs[i%len(opts.Orgs)].Name
		}
		nw.net.SetProfileFn(func(from, to string) simnet.Profile {
			if from == to {
				return simnet.Loopback()
			}
			if orgOf[from] != "" && orgOf[from] == orgOf[to] {
				return lan
			}
			return wan
		})
	}

	// Cross-process relay: fabric messages for endpoints hosted by
	// another process leave through the gateway and re-enter the remote
	// fabric via its /v1/relay. Installed before any component starts
	// so no early message can hit an unroutable destination.
	if cluster != nil {
		pool := transport.NewRelayPool()
		for orgName, url := range cluster.Peers {
			if orgName == cluster.LocalOrg || url == "" {
				continue
			}
			j := -1
			for k, org := range opts.Orgs {
				if org.Name == orgName {
					j = k
				}
			}
			if j < 0 {
				return nil, fmt.Errorf("bcrdb: Cluster.Peers org %q is not in Options.Orgs", orgName)
			}
			owns := []string{"db." + orgName}
			for i := 0; i < nOrderers; i++ {
				if i%len(opts.Orgs) == j {
					owns = append(owns, ordererName(i))
				}
			}
			if j == 0 {
				owns = append(owns, kafka.TopicEndpoint)
			}
			pool.AddRoute(url, owns...)
		}
		nw.relay = pool
		nw.net.SetGateway(pool.Gateway())
	}

	// Identities. With IdentitySecret set these are pure functions of
	// the secret, so every process derives byte-identical certificates
	// and the genesis blocks (which embed them) match.
	netReg := identity.NewRegistry()
	var certs []core.CertEntry
	for _, org := range opts.Orgs {
		admin := "admin@" + org.Name
		s, err := newSigner(admin, org.Name, identity.RoleAdmin)
		if err != nil {
			return nil, err
		}
		nw.signers[admin] = s
		certs = append(certs, core.CertEntry{Name: admin, Org: org.Name, Role: "admin", PubKey: s.PubKey})
		for _, u := range org.Users {
			us, err := newSigner(u, org.Name, identity.RoleClient)
			if err != nil {
				return nil, err
			}
			nw.signers[u] = us
			certs = append(certs, core.CertEntry{Name: u, Org: org.Name, Role: "client", PubKey: us.PubKey})
		}
	}

	var peerSigners []*identity.Signer
	for _, org := range opts.Orgs {
		name := "db." + org.Name
		s, err := newSigner(name, org.Name, identity.RolePeer)
		if err != nil {
			return nil, err
		}
		nw.peers = append(nw.peers, name)
		peerSigners = append(peerSigners, s)
		if err := netReg.Register(s.Public()); err != nil {
			return nil, err
		}
	}
	var ordSigners []*identity.Signer
	for i := 0; i < nOrderers; i++ {
		org := opts.Orgs[i%len(opts.Orgs)].Name
		s, err := newSigner(ordererName(i), org, identity.RoleOrderer)
		if err != nil {
			return nil, err
		}
		ordSigners = append(ordSigners, s)
		nw.orderers = append(nw.orderers, s.Name)
		if err := netReg.Register(s.Public()); err != nil {
			return nil, err
		}
	}

	genesis := core.Genesis{Certs: certs, SQL: opts.Genesis.SQL, Contracts: opts.Genesis.Contracts}

	backend, err := storage.ParseKind(opts.Backend)
	if err != nil {
		nw.Close()
		return nil, err
	}
	if backend == storage.KindDisk && opts.DataDir == "" {
		nw.Close()
		return nil, errors.New("bcrdb: the disk storage backend requires Options.DataDir")
	}

	// Database nodes.
	for i, org := range opts.Orgs {
		if !localNode(i) {
			continue
		}
		cfg := core.Config{
			Name:             nw.peers[i],
			Org:              org.Name,
			Flow:             opts.Flow,
			SerialExecution:  opts.SerialExecution,
			Orderers:         nw.orderers,
			DeliverFrom:      nw.orderers[i%len(nw.orderers)],
			Peers:            nw.peers,
			FailoverTimeout:  opts.FailoverTimeout,
			AntiEntropyEvery: opts.AntiEntropyEvery,
			CheckpointEvery:  opts.CheckpointEvery,
			Backend:          backend,
		}
		if opts.DataDir != "" {
			cfg.DataDir = filepath.Join(opts.DataDir, org.Name)
		}
		node, err := core.NewNode(cfg, peerSigners[i], netReg.Clone(), nw.net)
		if err != nil {
			nw.Close()
			return nil, err
		}
		if err := node.Bootstrap(genesis); err != nil {
			nw.Close()
			return nil, err
		}
		if err := node.Start(); err != nil {
			nw.Close()
			return nil, err
		}
		nw.nodes = append(nw.nodes, node)
	}

	// Ordering service.
	cfg := ordering.Config{BlockSize: opts.BlockSize, BlockTimeout: opts.BlockTimeout}
	switch opts.Ordering {
	case OrderingKafka:
		// One trusted sequencer for the whole deployment: in cluster
		// mode org 0's process hosts it and everyone else attaches a
		// topic client, mirroring the paper's external Kafka cluster.
		if cluster == nil || localOrgIdx == 0 {
			nw.topic = kafka.NewTopic()
			if cluster != nil {
				h, err := kafka.ServeTopic(nw.topic, nw.net)
				if err != nil {
					nw.Close()
					return nil, err
				}
				nw.topicHost = h
			}
		}
		for i := 0; i < nOrderers; i++ {
			if !localOrderer(i) {
				continue
			}
			var topicRef kafka.TopicRef = nw.topic
			if nw.topic == nil {
				tc, err := kafka.DialTopic(nw.net, nw.orderers[i])
				if err != nil {
					nw.Close()
					return nil, err
				}
				nw.topicClients = append(nw.topicClients, tc)
				topicRef = tc
			}
			peers := deliveryPeers(nw.peers, i, nOrderers)
			o, err := kafka.NewOrderer(nw.orderers[i], ordSigners[i], topicRef, nw.net, peers, cfg)
			if err != nil {
				nw.Close()
				return nil, err
			}
			nw.kafkaOrds = append(nw.kafkaOrds, o)
		}
	case OrderingBFT:
		for i := 0; i < nOrderers; i++ {
			if !localOrderer(i) {
				continue
			}
			peers := deliveryPeers(nw.peers, i, nOrderers)
			o, err := bft.New(i, nw.orderers, ordSigners[i], netReg, nw.net, peers, cfg)
			if err != nil {
				nw.Close()
				return nil, err
			}
			nw.bftOrds = append(nw.bftOrds, o)
		}
	default:
		nw.Close()
		return nil, fmt.Errorf("bcrdb: unknown ordering kind %d", opts.Ordering)
	}

	// Cluster mode serves the wire protocol for the local node.
	if cluster != nil {
		srv, err := nw.Serve(0, cluster.Listen)
		if err != nil {
			nw.Close()
			return nil, err
		}
		nw.server = srv
	}
	return nw, nil
}

// route is the submission route (transport.Route) of a client connected
// to node: the one place the flow, the node ring and the orderer ring are
// put together, for in-process clients and wire servers alike.
func (nw *Network) route(node *core.Node) transport.Route {
	return transport.Route{
		Flow:     nw.opts.Flow,
		Nodes:    nw.peers,
		Home:     slices.Index(nw.peers, node.Name()),
		Orderers: nw.orderers,
	}
}

func ordererName(i int) string { return fmt.Sprintf("orderer%d", i) }

// deliveryPeers assigns database peers to orderer i: peer j listens to
// orderer j%nOrderers, so every peer has exactly one delivering orderer.
func deliveryPeers(peerNames []string, i, nOrderers int) []string {
	var out []string
	for j, p := range peerNames {
		if j%nOrderers == i {
			out = append(out, p)
		}
	}
	return out
}

// Close stops every component. It is idempotent and fences concurrent
// use: the closed flag flips and every client closes before any component
// stops, so an Invoke racing with Close observes ErrClosed instead of
// hanging on a dead fabric or panicking into stopped components.
func (nw *Network) Close() {
	nw.closeOnce.Do(func() {
		nw.closed.Store(true)
		nw.clientMu.Lock()
		clients := make([]*Client, 0, len(nw.clients))
		for _, c := range nw.clients {
			clients = append(clients, c)
		}
		nw.clientMu.Unlock()
		for _, c := range clients {
			_ = c.Close() // a Direct transport's Close cannot fail
		}
		if nw.server != nil {
			_ = nw.server.Close()
		}
		for _, o := range nw.kafkaOrds {
			o.Stop()
		}
		for _, o := range nw.bftOrds {
			o.Stop()
		}
		for _, tc := range nw.topicClients {
			tc.Close()
		}
		if nw.topicHost != nil {
			nw.topicHost.Stop()
		}
		for _, n := range nw.nodes {
			n.Stop()
		}
		if nw.relay != nil {
			nw.relay.Close()
		}
		if nw.net != nil {
			nw.net.Close()
		}
	})
}

// Closed reports whether Close has been called.
func (nw *Network) Closed() bool { return nw.closed.Load() }

// Server returns the cluster-mode wire server (nil outside cluster
// mode or before it is started).
func (nw *Network) Server() *transport.Server { return nw.server }

// Serve starts a wire-protocol server for node i on the given listen
// address ("127.0.0.1:0" for an ephemeral port). The caller owns the
// returned server; closing the network does not close it.
func (nw *Network) Serve(i int, listen string) (*transport.Server, error) {
	if nw.closed.Load() {
		return nil, ErrClosed
	}
	return transport.NewServer(transport.ServerConfig{
		Node:   nw.nodes[i],
		Route:  nw.route(nw.nodes[i]),
		Net:    nw.net,
		Listen: listen,
	})
}

// Nodes returns the database nodes (one per org, in Options order).
func (nw *Network) Nodes() []*core.Node { return nw.nodes }

// Node returns org i's database node.
func (nw *Network) Node(i int) *core.Node { return nw.nodes[i] }

// Orderers returns the orderer endpoint names.
func (nw *Network) Orderers() []string { return append([]string(nil), nw.orderers...) }

// Net exposes the simulated network fabric (fault injection, chaos
// scheduling, partitions).
func (nw *Network) Net() *simnet.Network { return nw.net }

// StopOrderer crashes orderer i (endpoint and consensus participation).
func (nw *Network) StopOrderer(i int) {
	if len(nw.kafkaOrds) > 0 {
		nw.kafkaOrds[i].Stop()
	}
	if len(nw.bftOrds) > 0 {
		nw.bftOrds[i].Stop()
	}
}

// Height returns the maximum committed height across nodes.
func (nw *Network) Height() int64 {
	var h int64
	for _, n := range nw.nodes {
		if nh := n.Height(); nh > h {
			h = nh
		}
	}
	return h
}

// WaitHeight blocks until every node has committed and sealed block h
// (or the timeout expires). Waiting for the seal means sys_ledger rows
// and checkpoint state for h are visible on return, even with the
// pipelined block processor.
func (nw *Network) WaitHeight(h int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ok := true
		for _, n := range nw.nodes {
			if n.Height() < h || n.SealedHeight() < h {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("bcrdb: timeout waiting for height %d", h)
}

// VerifyConsistency compares all replicas' state hashes at the minimum
// common height and returns an error naming the first divergent node.
func (nw *Network) VerifyConsistency() error {
	minH := nw.nodes[0].Height()
	for _, n := range nw.nodes[1:] {
		if h := n.Height(); h < minH {
			minH = h
		}
	}
	ref := nw.nodes[0].StateHash(minH)
	for i, n := range nw.nodes[1:] {
		if n.StateHash(minH) != ref {
			return fmt.Errorf("bcrdb: node %s diverges from %s at height %d",
				nw.nodes[i+1].Name(), nw.nodes[0].Name(), minH)
		}
	}
	return nil
}

// DeployContract pushes a CREATE [OR REPLACE] FUNCTION (or DROP FUNCTION)
// through the full §3.7 governance flow: proposed by the first org's
// admin, approved by every org's admin, then submitted.
func (nw *Network) DeployContract(src string) error {
	id, err := nw.proposeDeployment(src)
	if err != nil {
		return err
	}
	admin0 := nw.Client("admin@" + nw.opts.Orgs[0].Name)
	return nw.deployStep(admin0, "submit_deploytx", id)
}

// proposeDeployment runs create_deploytx and every org's
// approve_deploytx, returning the id submit_deploytx takes.
func (nw *Network) proposeDeployment(src string) (Value, error) {
	admin0 := nw.Client("admin@" + nw.opts.Orgs[0].Name)
	if err := nw.deployStep(admin0, "create_deploytx", Text(src)); err != nil {
		return Value{}, err
	}
	// The id is deterministic: read it back.
	row, err := admin0.Query(`SELECT MAX(id) FROM sys_deployments`)
	if err != nil || len(row.Rows) == 0 || row.Rows[0][0].IsNull() {
		return Value{}, fmt.Errorf("bcrdb: cannot determine deployment id: %v", err)
	}
	id := row.Rows[0][0]
	for _, org := range nw.opts.Orgs {
		if err := nw.deployStep(nw.Client("admin@"+org.Name), "approve_deploytx", id); err != nil {
			return Value{}, err
		}
	}
	return id, nil
}

// deployStep invokes one governance call and waits until every node
// holds the block that committed it: under execute-order the next
// admin's transaction takes its snapshot from its own org's node, and a
// node still behind would hand it a superseded sys_deployments row
// (ww-conflict abort).
func (nw *Network) deployStep(c *Client, fn string, arg Value) error {
	res, err := c.Invoke(fn, arg)
	if err != nil {
		return err
	}
	if !res.Committed {
		return fmt.Errorf("bcrdb: %s by %s aborted: %s", fn, c.Username(), res.Reason)
	}
	return nw.WaitHeight(int64(res.Block), 10*time.Second)
}

// SubmitRaw signs and submits a transaction for the given user without
// waiting, returning the transaction id. Used by load generators: nothing
// is awaited, so the user's client opens no commit stream.
func (nw *Network) SubmitRaw(user, contract string, args []Value) (string, error) {
	c := nw.Client(user)
	id, payload, err := c.buildTx(contract, args)
	if err != nil {
		return "", err
	}
	return id, c.tr.SubmitAttempt(c.ctx, payload, 0)
}
