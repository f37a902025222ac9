package proc

import (
	"reflect"
	"testing"
)

// Fuzz targets for the procedural-language parser. Contract sources
// arrive from clients through the deployment workflow, so the parser
// must never panic, and — because parsed procedures and compiled
// closures are cached by source text — parsing must be deterministic.

func FuzzParseCreateFunction(f *testing.F) {
	for _, s := range []string{
		`CREATE FUNCTION f() RETURNS VOID AS $$ BEGIN END; $$ LANGUAGE plpgsql;`,
		`CREATE FUNCTION simple_insert(p_id BIGINT, p_k TEXT, p_v TEXT) RETURNS VOID AS $$
BEGIN
	INSERT INTO kv VALUES (p_id, p_k, p_v);
END;
$$ LANGUAGE plpgsql;`,
		`CREATE FUNCTION agg(p BIGINT) RETURNS VOID AS $$
DECLARE
	v_total DOUBLE;
	v_cnt BIGINT := 0;
BEGIN
	SELECT SUM(x), COUNT(*) INTO v_total, v_cnt FROM t WHERE g = p;
	IF v_cnt > 0 THEN
		INSERT INTO out VALUES (p, v_total);
	ELSE
		RAISE EXCEPTION 'empty group';
	END IF;
END;
$$ LANGUAGE plpgsql;`,
		`CREATE FUNCTION loop_it() RETURNS VOID AS $$
DECLARE
	i BIGINT := 0;
BEGIN
	WHILE i < 10 LOOP
		i := i + 1;
		IF i = 5 THEN
			CONTINUE;
		END IF;
	END LOOP;
	RETURN;
END;
$$ LANGUAGE plpgsql;`,
		// INTO stands anywhere at the top level of a SELECT (ADR-0003).
		`CREATE FUNCTION into_anywhere() RETURNS VOID AS $$
DECLARE
	a BIGINT;
	b TEXT;
BEGIN
	SELECT INTO a 0;
	SELECT 0 INTO a a0;
	SELECT id, v FROM t WHERE id = 1 ORDER BY id INTO a, b;
END;
$$`,
		// A CASE expression is a condition like any other.
		`CREATE FUNCTION case_conditions(x BIGINT) RETURNS BIGINT AS $$
BEGIN
	IF CASE WHEN x > 0 THEN 1 ELSE 0 END = 1 THEN
		RETURN 1;
	ELSIF CASE WHEN x < 0 THEN TRUE END THEN
		RETURN -1;
	END IF;
	WHILE CASE WHEN x > 10 THEN FALSE ELSE TRUE END LOOP
		x := x + 1;
	END LOOP;
	RETURN 0;
END;
$$`,
		`CREATE FUNCTION broken( RETURNS VOID`,
		`CREATE FUNCTION f() RETURNS VOID AS $$ BEGIN`,
		`CREATE FUNCTION f() RETURNS VOID AS $$ BEGIN SELECT; END; $$`,
		``,
		`$$`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p1, err1 := ParseCreateFunction(src)
		p2, err2 := ParseCreateFunction(src)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic outcome for %q: %v vs %v", src, err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("nondeterministic error for %q: %q vs %q", src, err1, err2)
			}
			return
		}
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("nondeterministic parse for %q", src)
		}
	})
}

func FuzzParseDropFunction(f *testing.F) {
	for _, s := range []string{
		`DROP FUNCTION f;`,
		`DROP FUNCTION "quoted"`,
		`DROP FUNCTION`,
		`DROP TABLE t`,
		``,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n1, err1 := ParseDropFunction(src)
		n2, err2 := ParseDropFunction(src)
		if (err1 == nil) != (err2 == nil) || n1 != n2 {
			t.Fatalf("nondeterministic outcome for %q", src)
		}
	})
}
