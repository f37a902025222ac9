package proc

import (
	"errors"
	"fmt"
	"strings"

	"bcrdb/internal/engine"
	"bcrdb/internal/types"
)

// Builtin is a system smart contract implemented in Go. Builtins run
// inside the invoking transaction, so all their reads and writes are
// tracked and ordered like any contract (§3.7: system contract
// invocations are blockchain transactions).
type Builtin func(in *Interp, ctx *engine.ExecCtx, args []types.Value) (types.Value, error)

// builtins maps the §3.7 system smart contracts to implementations. Call
// dispatches them before it looks at sys_contracts, so their names are
// reserved: ParseCreateFunction refuses to define one. (Filled in init:
// the deployment contracts parse what they deploy, which reads this map.)
var builtins map[string]Builtin

func init() {
	builtins = map[string]Builtin{
		"create_deploytx":  biCreateDeployTx,
		"approve_deploytx": biApproveDeployTx,
		"reject_deploytx":  biRejectDeployTx,
		"comment_deploytx": biCommentDeployTx,
		"submit_deploytx":  biSubmitDeployTx,
		"create_user":      biCreateUser,
		"update_user":      biUpdateUser,
		"delete_user":      biDeleteUser,
	}
}

// q executes a parameterized statement inside the transaction. System
// contracts are trusted code shipped with the node, so their statements
// may write system tables (sys_deployments, sys_contracts, sys_certs).
func (in *Interp) q(ctx *engine.ExecCtx, sql string, params ...types.Value) (*engine.Result, error) {
	sub := *ctx
	sub.Params = params
	sub.AllowSystemWrites = true
	return in.eng.ExecSQL(&sub, sql)
}

// requireAdmin verifies the invoking user is a registered org admin and
// returns their organization.
func (in *Interp) requireAdmin(ctx *engine.ExecCtx) (string, error) {
	res, err := in.q(ctx, `SELECT org, role FROM sys_certs WHERE name = $1`, types.NewString(ctx.User))
	if err != nil {
		return "", err
	}
	if len(res.Rows) == 0 || res.Rows[0][1].Str() != "admin" {
		return "", fmt.Errorf("%w: user %q", ErrNotAdmin, ctx.User)
	}
	return res.Rows[0][0].Str(), nil
}

func argCheck(name string, args []types.Value, kinds ...types.Kind) error {
	if len(args) != len(kinds) {
		return fmt.Errorf("%w: %s expects %d, got %d", ErrArgCount, name, len(kinds), len(args))
	}
	for i, k := range kinds {
		if args[i].IsNull() {
			return fmt.Errorf("proc: %s: argument %d must not be NULL", name, i+1)
		}
		if _, err := types.CoerceToKind(args[i], k); err != nil {
			return fmt.Errorf("proc: %s: argument %d: %v", name, i+1, err)
		}
	}
	return nil
}

// biCreateDeployTx validates a CREATE [OR REPLACE] FUNCTION or DROP
// FUNCTION statement and records a pending deployment. It returns the new
// deployment id.
func biCreateDeployTx(in *Interp, ctx *engine.ExecCtx, args []types.Value) (types.Value, error) {
	if err := argCheck("create_deploytx", args, types.KindString); err != nil {
		return types.Null(), err
	}
	if _, err := in.requireAdmin(ctx); err != nil {
		return types.Null(), err
	}
	src := args[0].Str()
	if _, err := ParseCreateFunction(src); err != nil {
		if errors.Is(err, ErrNotCreateFunction) {
			if _, err2 := ParseDropFunction(src); err2 != nil {
				return types.Null(), fmt.Errorf("proc: create_deploytx: statement is neither CREATE FUNCTION nor DROP FUNCTION: %v", err2)
			}
		} else {
			return types.Null(), err
		}
	}
	// The id range keeps the read on the primary key: execute-order
	// rejects an unpredicated scan (§4.3).
	res, err := in.q(ctx, `SELECT COALESCE(MAX(id), 0) FROM sys_deployments WHERE id > 0`)
	if err != nil {
		return types.Null(), err
	}
	id := res.Rows[0][0].Int() + 1
	_, err = in.q(ctx, `INSERT INTO sys_deployments (id, proposer, sqltext, status, approvals, rejections, comments)
		VALUES ($1, $2, $3, 'pending', '', '', '')`,
		types.NewInt(id), types.NewString(ctx.User), types.NewString(src))
	if err != nil {
		return types.Null(), err
	}
	return types.NewInt(id), nil
}

func loadDeployment(in *Interp, ctx *engine.ExecCtx, id int64) (status, approvals string, err error) {
	res, err := in.q(ctx, `SELECT status, approvals FROM sys_deployments WHERE id = $1`, types.NewInt(id))
	if err != nil {
		return "", "", err
	}
	if len(res.Rows) == 0 {
		return "", "", fmt.Errorf("proc: no deployment %d", id)
	}
	return res.Rows[0][0].Str(), res.Rows[0][1].Str(), nil
}

// biApproveDeployTx records the invoking admin's organization approval.
func biApproveDeployTx(in *Interp, ctx *engine.ExecCtx, args []types.Value) (types.Value, error) {
	if err := argCheck("approve_deploytx", args, types.KindInt); err != nil {
		return types.Null(), err
	}
	org, err := in.requireAdmin(ctx)
	if err != nil {
		return types.Null(), err
	}
	id := args[0].Int()
	status, approvals, err := loadDeployment(in, ctx, id)
	if err != nil {
		return types.Null(), err
	}
	if status != "pending" {
		return types.Null(), fmt.Errorf("proc: deployment %d is %s, not pending", id, status)
	}
	set := splitCSV(approvals)
	for _, o := range set {
		if o == org {
			return types.NewBool(true), nil // idempotent
		}
	}
	set = append(set, org)
	_, err = in.q(ctx, `UPDATE sys_deployments SET approvals = $1 WHERE id = $2`,
		types.NewString(strings.Join(set, ",")), types.NewInt(id))
	if err != nil {
		return types.Null(), err
	}
	return types.NewBool(true), nil
}

// biRejectDeployTx records a rejection with a reason and closes the
// deployment.
func biRejectDeployTx(in *Interp, ctx *engine.ExecCtx, args []types.Value) (types.Value, error) {
	if err := argCheck("reject_deploytx", args, types.KindInt, types.KindString); err != nil {
		return types.Null(), err
	}
	org, err := in.requireAdmin(ctx)
	if err != nil {
		return types.Null(), err
	}
	id := args[0].Int()
	status, _, err := loadDeployment(in, ctx, id)
	if err != nil {
		return types.Null(), err
	}
	if status != "pending" {
		return types.Null(), fmt.Errorf("proc: deployment %d is %s, not pending", id, status)
	}
	reason := fmt.Sprintf("%s(%s): %s", ctx.User, org, args[1].Str())
	_, err = in.q(ctx, `UPDATE sys_deployments SET status = 'rejected', rejections = rejections || $1 WHERE id = $2`,
		types.NewString(reason+";"), types.NewInt(id))
	if err != nil {
		return types.Null(), err
	}
	return types.NewBool(true), nil
}

// biCommentDeployTx appends a review comment (§3.7: suggesting changes).
func biCommentDeployTx(in *Interp, ctx *engine.ExecCtx, args []types.Value) (types.Value, error) {
	if err := argCheck("comment_deploytx", args, types.KindInt, types.KindString); err != nil {
		return types.Null(), err
	}
	if _, err := in.requireAdmin(ctx); err != nil {
		return types.Null(), err
	}
	id := args[0].Int()
	if _, _, err := loadDeployment(in, ctx, id); err != nil {
		return types.Null(), err
	}
	comment := fmt.Sprintf("%s: %s", ctx.User, args[1].Str())
	_, err := in.q(ctx, `UPDATE sys_deployments SET comments = comments || $1 WHERE id = $2`,
		types.NewString(comment+";"), types.NewInt(id))
	if err != nil {
		return types.Null(), err
	}
	return types.NewBool(true), nil
}

// biSubmitDeployTx applies a fully-approved deployment: every
// organization with an admin must have approved (§3.7).
func biSubmitDeployTx(in *Interp, ctx *engine.ExecCtx, args []types.Value) (types.Value, error) {
	if err := argCheck("submit_deploytx", args, types.KindInt); err != nil {
		return types.Null(), err
	}
	if _, err := in.requireAdmin(ctx); err != nil {
		return types.Null(), err
	}
	id := args[0].Int()
	res, err := in.q(ctx, `SELECT status, approvals, sqltext FROM sys_deployments WHERE id = $1`, types.NewInt(id))
	if err != nil {
		return types.Null(), err
	}
	if len(res.Rows) == 0 {
		return types.Null(), fmt.Errorf("proc: no deployment %d", id)
	}
	status, approvals, src := res.Rows[0][0].Str(), res.Rows[0][1].Str(), res.Rows[0][2].Str()
	if status != "pending" {
		return types.Null(), fmt.Errorf("proc: deployment %d is %s, not pending", id, status)
	}

	orgsRes, err := in.q(ctx, `SELECT DISTINCT org FROM sys_certs WHERE role = 'admin' ORDER BY org`)
	if err != nil {
		return types.Null(), err
	}
	approved := make(map[string]bool)
	for _, o := range splitCSV(approvals) {
		approved[o] = true
	}
	for _, r := range orgsRes.Rows {
		if !approved[r[0].Str()] {
			return types.Null(), fmt.Errorf("proc: deployment %d not approved by organization %q", id, r[0].Str())
		}
	}

	// Apply: CREATE [OR REPLACE] FUNCTION or DROP FUNCTION.
	if proc, perr := ParseCreateFunction(src); perr == nil {
		exists, err := in.q(ctx, `SELECT name FROM sys_contracts WHERE name = $1`, types.NewString(proc.Name))
		if err != nil {
			return types.Null(), err
		}
		if len(exists.Rows) > 0 {
			if !proc.Replace {
				return types.Null(), fmt.Errorf("proc: contract %q already exists (use CREATE OR REPLACE)", proc.Name)
			}
			if _, err := in.q(ctx, `UPDATE sys_contracts SET src = $1 WHERE name = $2`,
				types.NewString(src), types.NewString(proc.Name)); err != nil {
				return types.Null(), err
			}
		} else {
			if _, err := in.q(ctx, `INSERT INTO sys_contracts (name, src) VALUES ($1, $2)`,
				types.NewString(proc.Name), types.NewString(src)); err != nil {
				return types.Null(), err
			}
		}
	} else {
		name, derr := ParseDropFunction(src)
		if derr != nil {
			return types.Null(), fmt.Errorf("proc: deployment %d holds invalid SQL: %v / %v", id, perr, derr)
		}
		if _, err := in.q(ctx, `DELETE FROM sys_contracts WHERE name = $1`, types.NewString(name)); err != nil {
			return types.Null(), err
		}
	}
	if _, err := in.q(ctx, `UPDATE sys_deployments SET status = 'applied' WHERE id = $1`, types.NewInt(id)); err != nil {
		return types.Null(), err
	}
	return types.NewBool(true), nil
}

// biCreateUser registers a client identity in sys_certs (pgCerts).
func biCreateUser(in *Interp, ctx *engine.ExecCtx, args []types.Value) (types.Value, error) {
	if err := argCheck("create_user", args, types.KindString, types.KindString, types.KindString, types.KindString); err != nil {
		return types.Null(), err
	}
	if _, err := in.requireAdmin(ctx); err != nil {
		return types.Null(), err
	}
	role := args[2].Str()
	if role != "admin" && role != "client" {
		return types.Null(), fmt.Errorf("proc: create_user: role must be admin or client")
	}
	_, err := in.q(ctx, `INSERT INTO sys_certs (name, org, role, pubkey) VALUES ($1, $2, $3, $4)`,
		args[0], args[1], args[2], args[3])
	if err != nil {
		return types.Null(), err
	}
	return types.NewBool(true), nil
}

// biUpdateUser replaces a user's public key (certificate rotation).
func biUpdateUser(in *Interp, ctx *engine.ExecCtx, args []types.Value) (types.Value, error) {
	if err := argCheck("update_user", args, types.KindString, types.KindString); err != nil {
		return types.Null(), err
	}
	if _, err := in.requireAdmin(ctx); err != nil {
		return types.Null(), err
	}
	res, err := in.q(ctx, `UPDATE sys_certs SET pubkey = $2 WHERE name = $1`, args[0], args[1])
	if err != nil {
		return types.Null(), err
	}
	if res.Affected == 0 {
		return types.Null(), fmt.Errorf("proc: update_user: no such user %q", args[0].Str())
	}
	return types.NewBool(true), nil
}

// biDeleteUser removes a user.
func biDeleteUser(in *Interp, ctx *engine.ExecCtx, args []types.Value) (types.Value, error) {
	if err := argCheck("delete_user", args, types.KindString); err != nil {
		return types.Null(), err
	}
	if _, err := in.requireAdmin(ctx); err != nil {
		return types.Null(), err
	}
	res, err := in.q(ctx, `DELETE FROM sys_certs WHERE name = $1`, args[0])
	if err != nil {
		return types.Null(), err
	}
	if res.Affected == 0 {
		return types.Null(), fmt.Errorf("proc: delete_user: no such user %q", args[0].Str())
	}
	return types.NewBool(true), nil
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}
