// bcrdb-server runs one process of a bcrdb deployment and serves the
// wire protocol (internal/transport): transaction submission, queries
// and the streamed commit notifications remote clients wait on.
//
// A cluster is described by one JSON config file shared by every
// process; each process is started with the org it hosts:
//
//	bcrdb-server -write-config cluster.json   # emit a 2-org sample
//	bcrdb-server -config cluster.json -org org1
//	bcrdb-server -config cluster.json -org org2
//
// With -org omitted the whole network runs in this one process and
// every org's listen address is served — the single-machine quick
// start, wire-identical to the multi-process deployment.
//
// Client operations against a running server:
//
//	bcrdb-server -config cluster.json -call transfer -args 1,2,10 -user alice
//	bcrdb-server -config cluster.json -query "SELECT * FROM accounts" -user alice
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bcrdb"
	"bcrdb/internal/transport"
)

var (
	configPath = flag.String("config", "", "cluster config file (JSON)")
	orgFlag    = flag.String("org", "", "org this process hosts; empty runs the whole network in-process")
	writeCfg   = flag.String("write-config", "", "write a sample 2-org config to this path and exit")

	callFlag  = flag.String("call", "", "invoke this contract against a running server and exit")
	argsFlag  = flag.String("args", "", "comma-separated contract arguments for -call (integers, floats, or text)")
	queryFlag = flag.String("query", "", "run this read-only SQL against a running server and exit")
	userFlag  = flag.String("user", "", "acting user for -call/-query")
	urlFlag   = flag.String("url", "", "server URL for -call/-query (default: the first org's listen address)")
	waitFlag  = flag.Duration("wait", 15*time.Second, "how long -call/-query retries while the server boots")
)

// clusterFile is the JSON schema of -config.
type clusterFile struct {
	Orgs []struct {
		Name  string   `json:"name"`
		Users []string `json:"users"`
	} `json:"orgs"`
	Flow           string            `json:"flow"` // "execute-order" (default) or "order-execute"
	BlockSize      int               `json:"block_size,omitempty"`
	BlockTimeoutMs int               `json:"block_timeout_ms,omitempty"`
	IdentitySecret string            `json:"identity_secret"`
	Listen         map[string]string `json:"listen"` // org → host:port
	Retry          struct {
		Attempts  int `json:"attempts,omitempty"`
		TimeoutMs int `json:"timeout_ms,omitempty"`
		BackoffMs int `json:"backoff_ms,omitempty"`
	} `json:"retry"`
	Genesis struct {
		SQL       []string `json:"sql"`
		Contracts []string `json:"contracts"`
	} `json:"genesis"`
}

const sampleConfig = `{
  "orgs": [
    {"name": "org1", "users": ["alice"]},
    {"name": "org2", "users": ["bob"]}
  ],
  "flow": "execute-order",
  "identity_secret": "change-me-shared-cluster-secret",
  "listen": {
    "org1": "127.0.0.1:7061",
    "org2": "127.0.0.1:7062"
  },
  "retry": {"attempts": 6, "timeout_ms": 5000, "backoff_ms": 100},
  "genesis": {
    "sql": [
      "CREATE TABLE accounts (id BIGINT PRIMARY KEY, balance DOUBLE)",
      "INSERT INTO accounts (id, balance) VALUES (1, 100), (2, 100)"
    ],
    "contracts": [
      "CREATE FUNCTION transfer(src BIGINT, dst BIGINT, amt DOUBLE) RETURNS VOID AS $$\nDECLARE sbal DOUBLE;\nBEGIN\n  SELECT balance INTO sbal FROM accounts WHERE id = src;\n  IF sbal < amt THEN\n    RAISE EXCEPTION 'insufficient funds';\n  END IF;\n  UPDATE accounts SET balance = balance - amt WHERE id = src;\n  UPDATE accounts SET balance = balance + amt WHERE id = dst;\nEND;\n$$ LANGUAGE plpgsql"
    ]
  }
}
`

func main() {
	flag.Parse()
	if *writeCfg != "" {
		if err := os.WriteFile(*writeCfg, []byte(sampleConfig), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote sample config to %s\n", *writeCfg)
		return
	}
	if *configPath == "" {
		fatal(fmt.Errorf("-config is required (use -write-config to generate one)"))
	}
	raw, err := os.ReadFile(*configPath)
	if err != nil {
		fatal(err)
	}
	var cf clusterFile
	if err := json.Unmarshal(raw, &cf); err != nil {
		fatal(fmt.Errorf("parse %s: %w", *configPath, err))
	}
	if len(cf.Orgs) == 0 {
		fatal(fmt.Errorf("%s declares no orgs", *configPath))
	}

	if *callFlag != "" || *queryFlag != "" {
		clientMode(cf)
		return
	}
	serveMode(cf)
}

func options(cf clusterFile) bcrdb.Options {
	opts := bcrdb.Options{
		Flow:           bcrdb.ExecuteOrder,
		BlockSize:      cf.BlockSize,
		BlockTimeout:   time.Duration(cf.BlockTimeoutMs) * time.Millisecond,
		IdentitySecret: cf.IdentitySecret,
		Retry: bcrdb.RetryPolicy{
			Attempts: cf.Retry.Attempts,
			Timeout:  time.Duration(cf.Retry.TimeoutMs) * time.Millisecond,
			Backoff:  time.Duration(cf.Retry.BackoffMs) * time.Millisecond,
		},
		Genesis: bcrdb.Genesis{SQL: cf.Genesis.SQL, Contracts: cf.Genesis.Contracts},
	}
	if cf.Flow == "order-execute" {
		opts.Flow = bcrdb.OrderThenExecute
	}
	for _, org := range cf.Orgs {
		opts.Orgs = append(opts.Orgs, bcrdb.Org{Name: org.Name, Users: org.Users})
	}
	return opts
}

func serveMode(cf clusterFile) {
	opts := options(cf)
	var servers []*transport.Server
	if *orgFlag != "" {
		listen, ok := cf.Listen[*orgFlag]
		if !ok {
			fatal(fmt.Errorf("no listen address for org %q in config", *orgFlag))
		}
		peers := make(map[string]string)
		for org, addr := range cf.Listen {
			if org != *orgFlag {
				peers[org] = "http://" + addr
			}
		}
		opts.Cluster = &bcrdb.ClusterConfig{LocalOrg: *orgFlag, Listen: listen, Peers: peers}
	}
	nw, err := bcrdb.NewNetwork(opts)
	if err != nil {
		fatal(err)
	}
	defer nw.Close()

	if *orgFlag != "" {
		fmt.Printf("bcrdb-server: org %s serving at %s\n", *orgFlag, nw.Server().URL())
	} else {
		// Whole network in one process: serve every org's address.
		for i, org := range opts.Orgs {
			listen, ok := cf.Listen[org.Name]
			if !ok {
				continue
			}
			srv, err := nw.Serve(i, listen)
			if err != nil {
				fatal(err)
			}
			servers = append(servers, srv)
			fmt.Printf("bcrdb-server: org %s serving at %s\n", org.Name, srv.URL())
		}
		if len(servers) == 0 {
			fatal(fmt.Errorf("no org in config has a listen address"))
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("bcrdb-server: %v, shutting down\n", s)
	for _, srv := range servers {
		_ = srv.Close()
	}
	// nw.Close (deferred) fences clients, stops orderers and nodes.
}

func clientMode(cf clusterFile) {
	if *userFlag == "" {
		fatal(fmt.Errorf("-call/-query need -user"))
	}
	url := *urlFlag
	if url == "" {
		url = "http://" + cf.Listen[cf.Orgs[0].Name]
	}
	var (
		rc  *bcrdb.Client
		err error
	)
	// The server may still be booting (CI starts both concurrently):
	// retry the dial until -wait expires.
	deadline := time.Now().Add(*waitFlag)
	for {
		rc, err = bcrdb.DialRemote(bcrdb.RemoteConfig{
			URL:            url,
			Username:       *userFlag,
			IdentitySecret: cf.IdentitySecret,
			Retry: bcrdb.RetryPolicy{
				Attempts: max(cf.Retry.Attempts, 3),
				Timeout:  10 * time.Second,
				Backoff:  100 * time.Millisecond,
			},
		})
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if err != nil {
		fatal(err)
	}
	defer rc.Close()

	if *queryFlag != "" {
		res, err := rc.Query(*queryFlag)
		if err != nil {
			fatal(err)
		}
		out, _ := json.Marshal(struct {
			Cols []string    `json:"cols"`
			Rows []bcrdb.Row `json:"-"`
			N    int         `json:"rows"`
		}{Cols: res.Cols, N: len(res.Rows)})
		fmt.Println(string(out))
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Println(strings.Join(cells, "\t"))
		}
		return
	}

	args := parseArgs(*argsFlag)
	res, err := rc.Invoke(*callFlag, args...)
	if err != nil {
		fatal(err)
	}
	out, _ := json.Marshal(struct {
		ID        string `json:"id"`
		Block     uint64 `json:"block"`
		Committed bool   `json:"committed"`
		Reason    string `json:"reason,omitempty"`
	}{res.ID, res.Block, res.Committed, res.Reason})
	fmt.Println(string(out))
	if !res.Committed {
		os.Exit(1)
	}
}

// parseArgs types each comma-separated argument: integer, then float,
// then text.
func parseArgs(s string) []bcrdb.Value {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]bcrdb.Value, len(parts))
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if n, err := strconv.ParseInt(p, 10, 64); err == nil {
			out[i] = bcrdb.Int(n)
		} else if f, err := strconv.ParseFloat(p, 64); err == nil {
			out[i] = bcrdb.Float(f)
		} else {
			out[i] = bcrdb.Text(p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bcrdb-server: %v\n", err)
	os.Exit(1)
}
