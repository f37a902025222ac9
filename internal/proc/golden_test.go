package proc

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The parse golden pins the contract language across a change of parser.
// testdata/parse_golden.json was recorded with the parser of PR 24 — a
// second token cursor that cut the source into text fragments and re-lexed
// each — before PR 25 moved contract parsing onto sqlparser's own cursor.
// It holds every contract source the repository carries (string literals
// naming a FUNCTION in any Go file, the contracts of JSON configs such as
// bcrdb-server's sample, the fuzz seed corpora) with what
// ParseCreateFunction and ParseDropFunction made of it: the tree with
// source positions left out, or "refused". Error texts are not pinned:
// since PR 25 they name a position in the whole source.
//
// Re-record only for a deliberate language change, and say so:
// go test ./internal/proc -run TestParseGoldenCorpus -update-golden
var updateGolden = flag.Bool("update-golden", false, "re-record testdata/parse_golden.json from the repository's contract sources")

const parseGoldenFile = "testdata/parse_golden.json"

// parseDeltas are the recorded sources the language deliberately changed
// on since the recording, by function name, with the outcome they have
// now. Nothing else may differ.
var parseDeltas = map[string]string{
	// A CASE expression is a condition like any other: the old parser
	// cut the condition at CASE's own THEN.
	"case_if": "accepted", "case_elsif": "accepted", "case_conditions": "accepted",
	// A contract's types are CREATE TABLE's: the old parser took any
	// token as a VARCHAR length.
	"vc_param": "refused", "vc_returns": "refused", "vc_declare": "refused",
}

type parseGolden struct {
	Src    string `json:"src"`
	Create string `json:"create"` // the tree without positions, or "refused"
	Drop   string `json:"drop"`   // the dropped name, or "refused"
}

func parseOutcomes(src string) parseGolden {
	g := parseGolden{Src: src, Create: "refused", Drop: "refused"}
	if p, err := ParseCreateFunction(src); err == nil {
		var b strings.Builder
		dumpTree(&b, reflect.ValueOf(p))
		g.Create = b.String()
	}
	if name, err := ParseDropFunction(src); err == nil {
		g.Drop = name
	}
	return g
}

func TestParseGoldenCorpus(t *testing.T) {
	if *updateGolden {
		var out []parseGolden
		for _, src := range contractSources(t) {
			out = append(out, parseOutcomes(src))
		}
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parseGoldenFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d sources", len(out))
		return
	}
	buf, err := os.ReadFile(parseGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []parseGolden
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	accepted, deltas := 0, 0
	for _, w := range want {
		got := parseOutcomes(w.Src)
		if got.Create != "refused" {
			accepted++
		}
		if outcome, ok := parseDeltas[functionName(w.Src)]; ok {
			deltas++
			was, now := w.Create != "refused", got.Create != "refused"
			if now != (outcome == "accepted") || was == now {
				t.Errorf("delta %s: recorded %.40q, now %.40q; want now %s", functionName(w.Src), w.Create, got.Create, outcome)
			}
			continue
		}
		if got != w {
			t.Errorf("source %q\n recorded: %+v\n now:      %+v", w.Src, w, got)
		}
	}
	if deltas != len(parseDeltas) {
		t.Errorf("%d of %d deltas found in the corpus", deltas, len(parseDeltas))
	}
	t.Logf("%d sources, %d accepted, %d deliberate deltas", len(want), accepted, deltas)
}

// functionName is the word after the first FUNCTION in src, if any.
func functionName(src string) string {
	_, rest, ok := strings.Cut(src, "FUNCTION ")
	if !ok {
		return ""
	}
	end := strings.IndexFunc(rest, func(r rune) bool { return r != '_' && !('a' <= r && r <= 'z') })
	if end < 0 {
		return rest
	}
	return rest[:end]
}

// dumpTree renders v with the dynamic type of every node and without the
// fields that only locate it in the source (Pos, Src, Source), so two
// parses compare equal exactly when their trees do.
func dumpTree(b *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		dumpTree(b, v.Elem())
	case reflect.Slice:
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			dumpTree(b, v.Index(i))
		}
		b.WriteByte(']')
	case reflect.Struct:
		t := v.Type()
		if t.NumField() > 0 && !t.Field(0).IsExported() { // a value type (types.Value)
			fmt.Fprintf(b, "%#v", v.Interface())
			return
		}
		b.WriteString(t.Name() + "{")
		for i := 0; i < t.NumField(); i++ {
			switch f := t.Field(i); f.Name {
			case "Pos", "Src", "Source":
			default:
				b.WriteString(f.Name + ":")
				dumpTree(b, v.Field(i))
				b.WriteByte(' ')
			}
		}
		b.WriteByte('}')
	default:
		fmt.Fprintf(b, "%#v", v.Interface())
	}
}

// contractSources collects, sorted and without repeats, every string
// literal naming a FUNCTION in the repository's Go files (and every
// literal of this package's fuzz targets), the FUNCTION strings inside
// literals that are JSON documents, and the fuzz seed corpora.
func contractSources(t *testing.T) []string {
	seen := map[string]bool{}
	add := func(s string) { seen[s] = true }
	fset := token.NewFileSet()
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		all := strings.HasSuffix(path, filepath.Join("proc", "fuzz_test.go"))
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil || !all && !strings.Contains(strings.ToUpper(s), "FUNCTION") {
				return true
			}
			var doc any
			if json.Unmarshal([]byte(s), &doc) == nil {
				jsonFunctions(doc, add)
				return true
			}
			add(s)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"FuzzParseCreateFunction", "FuzzParseDropFunction"} {
		files, err := filepath.Glob(filepath.Join("testdata", "fuzz", dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			buf, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			_, arg, _ := strings.Cut(strings.TrimSpace(string(buf)), "\nstring(")
			s, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			add(s)
		}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func jsonFunctions(doc any, add func(string)) {
	switch x := doc.(type) {
	case string:
		if strings.Contains(strings.ToUpper(x), "FUNCTION") {
			add(x)
		}
	case []any:
		for _, y := range x {
			jsonFunctions(y, add)
		}
	case map[string]any:
		for _, y := range x {
			jsonFunctions(y, add)
		}
	}
}
