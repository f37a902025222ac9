package bcrdb

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// clusterOptions is a 2-org execute-order network as cmd/bcrdb-server
// runs it: BFT ordering and identities derived from a shared secret.
func clusterOptions() Options {
	opts := demoOptions(ExecuteOrder)
	opts.Orgs = opts.Orgs[:2]
	opts.Ordering = OrderingBFT
	opts.IdentitySecret = "cluster-test-secret"
	opts.Retry = RetryPolicy{Attempts: 6, Timeout: 5 * time.Second, Backoff: 100 * time.Millisecond}
	return opts
}

// reserveAddrs returns n loopback addresses whose ports were free a
// moment ago: each process of a cluster must know every other's address
// before any of them starts.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// TestClusterModeTwoProcesses runs both processes of a 2-org cluster in
// one test. Each Network hosts one org's node and two of the four BFT
// orderers, so every block needs a quorum spanning both, reached over
// the HTTP relay. A transfer commits and both nodes answer one query
// identically.
func TestClusterModeTwoProcesses(t *testing.T) {
	opts := clusterOptions()
	addrs := reserveAddrs(t, len(opts.Orgs))
	nws := make([]*Network, len(opts.Orgs))
	for i, org := range opts.Orgs {
		peers := make(map[string]string)
		for j, other := range opts.Orgs {
			if j != i {
				peers[other.Name] = "http://" + addrs[j]
			}
		}
		o := opts
		o.Cluster = &ClusterConfig{LocalOrg: org.Name, Listen: addrs[i], Peers: peers}
		nw, err := NewNetwork(o)
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		nws[i] = nw
	}

	res, err := nws[1].Client("bob").Invoke("transfer", Int(1), Int(2), Float(25))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("transfer aborted: %s", res.Reason)
	}
	var answers []string
	for i, user := range []string{"alice", "bob"} {
		if err := nws[i].WaitHeight(int64(res.Block), 10*time.Second); err != nil {
			t.Fatal(err)
		}
		q, err := nws[i].Client(user).Query(`SELECT id, balance FROM accounts ORDER BY id`)
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, fmt.Sprint(q.Rows))
	}
	if want := "[(1,75) (2,75)]"; answers[0] != want || answers[1] != want {
		t.Fatalf("org1 answers %s, org2 answers %s; want %s on both", answers[0], answers[1], want)
	}
}

// Kafka orders through one sequencer every orderer trusts. The orgs of
// a cluster trust no common party, so none of their processes may host
// it: cluster mode refuses Kafka and says why.
func TestClusterModeRefusesKafka(t *testing.T) {
	opts := clusterOptions()
	opts.Ordering = OrderingKafka
	opts.Cluster = &ClusterConfig{LocalOrg: "org1", Listen: "127.0.0.1:0"}
	nw, err := NewNetwork(opts)
	if err == nil {
		nw.Close()
		t.Fatal("cluster mode started with Kafka ordering")
	}
	for _, w := range []string{"OrderingBFT", "trusted sequencer", "no org's process may host it"} {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("%v does not say %q", err, w)
		}
	}
}
