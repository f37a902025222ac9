package bcrdb

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bcrdb/internal/identity"
	"bcrdb/internal/transport"
	"bcrdb/internal/types"
)

// RemoteConfig configures a client that reaches the network over a
// Transport instead of living inside the fabric process.
type RemoteConfig struct {
	// URL is the base URL of a bcrdb-server ("http://host:port").
	URL string
	// Username must be declared in the server network's Options.Orgs
	// (or be an "admin@<org>" administrator): its row in the replicated
	// sys_certs table names the user's org and role.
	Username string
	// IdentitySecret must equal the server network's IdentitySecret —
	// the client derives its signing key from it, and the server-side
	// nodes verify signatures against the genesis certificates.
	IdentitySecret string
	// Retry follows the same semantics as Options.Retry.
	Retry RetryPolicy
}

// DialRemote connects to a bcrdb-server and derives the user's identity
// from the shared secret and the user's sys_certs row (§3.7), read
// through the node behind URL: a user of any org may dial any org's
// node. The returned client is the same type Network.Client hands out,
// over the wire transport; Close it when done.
func DialRemote(cfg RemoteConfig) (*Client, error) {
	if cfg.URL == "" || cfg.Username == "" {
		return nil, errors.New("bcrdb: RemoteConfig needs URL and Username")
	}
	if cfg.IdentitySecret == "" {
		return nil, errors.New("bcrdb: RemoteConfig needs the cluster's IdentitySecret")
	}
	tr := transport.Dial(cfg.URL)
	fail := func(err error) (*Client, error) {
		_ = tr.Close()
		return nil, fmt.Errorf("bcrdb: dial %s: %w", cfg.URL, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	info, err := tr.Info(ctx)
	if err != nil {
		return fail(err)
	}
	cert, err := tr.Query(ctx, -1, `SELECT org, role FROM sys_certs WHERE name = $1`, []types.Value{types.NewString(cfg.Username)})
	if err != nil {
		return fail(err)
	}
	if len(cert.Rows) == 0 {
		return fail(fmt.Errorf("no user %q in sys_certs", cfg.Username))
	}
	org, role := cert.Rows[0][0].Str(), identity.Role(cert.Rows[0][1].Str())
	signer, err := identity.Deterministic(cfg.Username, org, role, cfg.IdentitySecret)
	if err != nil {
		return fail(err)
	}
	flow := ExecuteOrder
	if info.Flow == "order-execute" {
		flow = OrderThenExecute
	}
	return newClient(tr, signer, flow, cfg.Retry), nil
}
