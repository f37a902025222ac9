package bcrdb

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"bcrdb/internal/identity"
	"bcrdb/internal/transport"
)

// RemoteConfig configures a client that reaches the network over a
// Transport instead of living inside the fabric process.
type RemoteConfig struct {
	// URL is the base URL of a bcrdb-server ("http://host:port").
	URL string
	// Username must be declared in the server network's Options.Orgs
	// (or be an "admin@<org>" administrator).
	Username string
	// Org is the user's organization. Empty defaults to the org of the
	// node behind URL.
	Org string
	// IdentitySecret must equal the server network's IdentitySecret —
	// the client derives its signing key from it, and the server-side
	// nodes verify signatures against the genesis certificates.
	IdentitySecret string
	// Retry follows the same semantics as Options.Retry.
	Retry RetryPolicy
}

// DialRemote connects to a bcrdb-server and derives the user's identity
// from the shared secret. The returned client is the same type
// Network.Client hands out, over the wire transport; Close it when done.
func DialRemote(cfg RemoteConfig) (*Client, error) {
	if cfg.URL == "" || cfg.Username == "" {
		return nil, errors.New("bcrdb: RemoteConfig needs URL and Username")
	}
	if cfg.IdentitySecret == "" {
		return nil, errors.New("bcrdb: RemoteConfig needs the cluster's IdentitySecret")
	}
	tr := transport.Dial(cfg.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	info, err := tr.Info(ctx)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("bcrdb: dial %s: %w", cfg.URL, err)
	}
	org := cfg.Org
	if org == "" {
		org = info.Org
	}
	role := identity.RoleClient
	if strings.HasPrefix(cfg.Username, "admin@") {
		role = identity.RoleAdmin
	}
	signer, err := identity.Deterministic(cfg.Username, org, role, cfg.IdentitySecret)
	if err != nil {
		return nil, err
	}
	flow := ExecuteOrder
	if info.Flow == "order-execute" {
		flow = OrderThenExecute
	}
	return newClient(tr, signer, flow, cfg.Retry), nil
}
