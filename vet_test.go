package xdmodfed

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestGoVet keeps `go vet ./...` in the default test flow, so static
// findings fail CI the same way a broken test does.
func TestGoVet(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command(goBin, "vet", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go vet: %v\n%s", err, out)
	}
}

// TestGofmt keeps every Go file of this module gofmt-clean. bench/ is a
// module of its own (and no PR may touch it); dot-directories hold
// build output and tool state.
func TestGofmt(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		want, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", path, err)
		} else if !bytes.Equal(src, want) {
			t.Errorf("%s is not gofmt-formatted; run gofmt -w %s", path, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGobOnlyOnTheReplicationEnvelope: the warehouse's events, WAL
// records and snapshots have one byte format, the binary event codec.
// The one gob left is the replication handshake and frame envelope in
// internal/replicate; no other program file may import encoding/gob.
// bench/ is a module of its own and is not checked.
func TestGobOnlyOnTheReplicationEnvelope(t *testing.T) {
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == filepath.Join("internal", "replicate") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				if imp.Path.Value == `"encoding/gob"` {
					t.Errorf("%s imports encoding/gob; outside internal/replicate's envelope use the binary event codec", path)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestChangesComeFromTheWarehouse: what a write changed — the
// warehouse.Change a Refresh follows — is recorded by the write
// transaction that makes it (warehouse.DB.Write), not reassembled by
// its caller. No program file outside internal/warehouse builds a
// Change by hand: no Change composite literal with elements, and no
// assignment or append to an Inserted or Replaced field. bench/ is a
// module of its own and is not checked.
func TestChangesComeFromTheWarehouse(t *testing.T) {
	recorded := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && (sel.Sel.Name == "Inserted" || sel.Sel.Name == "Replaced")
	}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == filepath.Join("internal", "warehouse") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				var bad bool
				switch n := n.(type) {
				case *ast.CompositeLit:
					name := ""
					switch typ := n.Type.(type) {
					case *ast.Ident:
						name = typ.Name
					case *ast.SelectorExpr:
						name = typ.Sel.Name
					}
					bad = name == "Change" && len(n.Elts) > 0
				case *ast.AssignStmt:
					bad = slices.ContainsFunc(n.Lhs, recorded)
				case *ast.CallExpr:
					fn, ok := n.Fun.(*ast.Ident)
					bad = ok && fn.Name == "append" && len(n.Args) > 0 && recorded(n.Args[0])
				}
				if bad {
					t.Errorf("%s: builds a Change by hand; take it from the write's warehouse.Record", fset.Position(n.Pos()))
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestAggregateStateStaysInTheEngine: how a committed write reaches a
// realm's aggregates, and when the realm must be rebuilt, is decided in
// internal/aggregate (Engine.Write and the engine's per-realm stale
// flag), with one rule for a satellite and a hub. No program file
// outside it takes a realm's mutex or refreshes a realm itself — no
// call of Lock or Refresh on an Engine field — or keeps a flag of its
// own for a realm to rebuild: no field or variable named for dirt or
// staleness that is an atomic.Bool or a map to bools. The check is
// syntactic. bench/ is a module of its own and is not checked.
func TestAggregateStateStaysInTheEngine(t *testing.T) {
	onEngine := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Engine"
	}
	flagType := func(e ast.Expr) bool {
		if m, ok := e.(*ast.MapType); ok {
			if id, ok := m.Value.(*ast.Ident); ok && id.Name == "bool" {
				return true
			}
			e = m.Value
		}
		if st, ok := e.(*ast.StarExpr); ok {
			e = st.X
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Bool" {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == "atomic"
	}
	flagName := func(names []*ast.Ident) bool {
		for _, n := range names {
			if l := strings.ToLower(n.Name); strings.Contains(l, "dirty") || strings.Contains(l, "stale") {
				return true
			}
		}
		return false
	}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == filepath.Join("internal", "aggregate") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Lock" || sel.Sel.Name == "Refresh") && onEngine(sel.X) {
						t.Errorf("%s: calls Engine.%s; write through aggregate.Engine.Write", fset.Position(n.Pos()), sel.Sel.Name)
					}
				case *ast.Field:
					if flagName(n.Names) && flagType(n.Type) {
						t.Errorf("%s: declares a realm rebuild flag; the engine keeps a realm's stale flag", fset.Position(n.Pos()))
					}
				case *ast.ValueSpec:
					if flagName(n.Names) && n.Type != nil && flagType(n.Type) {
						t.Errorf("%s: declares a realm rebuild flag; the engine keeps a realm's stale flag", fset.Position(n.Pos()))
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRealmsAreListedOnce: a realm is declared once, in its package's
// RealmInfo, and every instance is built from one list of the realms,
// in internal/core. No program file under internal/ outside
// internal/realm/... calls a realm package's RealmInfo, except as an
// element of that list, the one composite literal in internal/core
// that holds such calls; everything else reads a realm as the instance
// set it up (Registry.Get, aggregate.Engine.Realm). The check is
// syntactic. bench/ is a module of its own and is not checked.
func TestRealmsAreListedOnce(t *testing.T) {
	fset := token.NewFileSet()
	var lists []string // the composite literals in internal/core holding RealmInfo calls
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join("internal", "realm") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		realmPkgs := map[string]bool{} // the file's names for realm packages
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(ip, "xdmodfed/internal/realm/") {
				continue
			}
			name := ip[strings.LastIndex(ip, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			realmPkgs[name] = true
		}
		realmInfo := func(e ast.Expr) bool {
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return false
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "RealmInfo" {
				return false
			}
			pkg, ok := sel.X.(*ast.Ident)
			return ok && realmPkgs[pkg.Name]
		}
		inCore := filepath.Dir(path) == filepath.Join("internal", "core")
		listed := map[ast.Expr]bool{}
		ast.Inspect(f, func(n ast.Node) bool { // a literal is visited before its elements
			switch n := n.(type) {
			case *ast.CompositeLit:
				if inCore && slices.ContainsFunc(n.Elts, realmInfo) {
					lists = append(lists, fset.Position(n.Pos()).String())
					for _, e := range n.Elts {
						listed[e] = true
					}
				}
			case *ast.CallExpr:
				if realmInfo(n) && !listed[n] {
					t.Errorf("%s: calls a realm package's RealmInfo; read the realm the instance set up (Registry.Get, Engine.Realm)", fset.Position(n.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lists) > 1 {
		t.Errorf("internal/core lists realms %d times (%s); keep the one list", len(lists), strings.Join(lists, ", "))
	}
}

// handFlags is every flag a cmd/ main registers on the command line,
// by command, sorted. No flag sets a configuration key: a daemon knob
// lives in the instance file, whose keys TestConfigSurface counts.
// Like that list, this one is written out by hand so a new flag —
// above all a second way to set a config key, such as a daemon flag
// that overrides one — shows up in review.
var handFlags = map[string][]string{
	"xdmod-hub":       {"admin-pass", "admin-user", "config", "listen", "log-json", "loose", "members", "replication"},
	"xdmod-ingestor":  {"config", "db", "log-json", "metrics-listen", "pbs", "resource", "slurm", "staging", "storage-json"},
	"xdmod-report":    {"experiment", "list", "markdown", "scale", "seed", "svg"},
	"xdmod-satellite": {"admin-pass", "admin-user", "config", "db", "listen", "log-json", "wal"},
	"xdmod-setup":     {"exclude-resources", "hierarchy-out", "hub", "mode", "name", "out", "realms", "resource", "wall-levels"},
	"xdmod-shredder":  {"format", "input", "json", "resource"},
}

// flagNameArg is the index of the flag-name argument of each flag
// package registration function.
var flagNameArg = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Func": 0, "BoolFunc": 0, "Int": 0, "Int64": 0,
	"String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1, "StringVar": 1,
	"TextVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1,
}

// TestCmdFlagsByHand: the flags each cmd/ main registers through the
// flag package (flag.X or flag.CommandLine.X) are exactly handFlags,
// and no main hands flag.CommandLine to a call, where a helper could
// register flags this check does not see.
func TestCmdFlagsByHand(t *testing.T) {
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		files, err := filepath.Glob(filepath.Join("cmd", d.Name(), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, arg := range call.Args {
					if sel, ok := arg.(*ast.SelectorExpr); ok && isFlagCommandLine(sel) {
						t.Errorf("%s: flag.CommandLine passed to a call; register flags in main so handFlags sees them", fset.Position(arg.Pos()))
					}
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !isFlagCommandLine(sel.X) {
					return true
				}
				i, ok := flagNameArg[sel.Sel.Name]
				if !ok || i >= len(call.Args) {
					return true
				}
				lit, ok := call.Args[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Errorf("%s: flag.%s name is not a string literal", fset.Position(call.Pos()), sel.Sel.Name)
					return true
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, name)
				return true
			})
		}
		sort.Strings(got)
		if want := handFlags[d.Name()]; strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("cmd/%s registers flags %q, handFlags lists %q; update handFlags in the same change",
				d.Name(), got, want)
		}
	}
}

// isFlagCommandLine reports whether x is the flag package itself or
// flag.CommandLine.
func isFlagCommandLine(x ast.Expr) bool {
	if id, ok := x.(*ast.Ident); ok {
		return id.Name == "flag"
	}
	sel, ok := x.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "CommandLine" && isFlagCommandLine(sel.X)
}
