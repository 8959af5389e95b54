package xdmodfed

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Allowlist classes: the only reasons a function of internal/ may be
// linked into no binary.
const (
	reachPaperFeature = "a: paper feature awaiting daemon wiring"
	reachHarness      = "b: test harness used by several packages"
	reachInterface    = "c: required by an interface from outside the module"
)

type reachExemption struct {
	class  string
	reason string
}

// reachAllowlist names the functions of internal/ that may be linked
// into no binary under cmd/, examples/ or bench/cmd. A key is a package
// path relative to internal/, optionally followed by ".Func",
// ".Type" or ".Type.Method"; it covers every function and method it is
// a dot-separated prefix of. An entry that covers no unlinked function
// fails TestReachability, so the list shrinks as code gets wired or
// deleted.
var reachAllowlist = map[string]reachExemption{
	// (a) Loose federation (paper §II-C2): the hub loads dumps, but no
	// daemon ships them yet. ROADMAP: "what the paper describes runs
	// from a daemon, and nothing else ships".
	"core.Satellite.RunLooseFederation": {reachPaperFeature, `loose shipping loop; ROADMAP "what the paper describes runs from a daemon, and nothing else ships"`},
	"core.Satellite.DumpForRoute":       {reachPaperFeature, `one loose route's dump; ROADMAP "what the paper describes runs from a daemon, and nothing else ships"`},
	"rest.Client":                       {reachPaperFeature, `the loose shipper's transport to POST /api/federation/loose/{instance}; ROADMAP "what the paper describes runs from a daemon, and nothing else ships"`},
	"rest.NewClient":                    {reachPaperFeature, `builds the loose shipper's transport; ROADMAP "what the paper describes runs from a daemon, and nothing else ships"`},
	// (a) Binlog trim: unsafe until the hub keeps positions across a
	// restart. ROADMAP: "A hub that survives its own death; resync; a
	// trimmed binlog", step (c).
	"core.Satellite.TrimReplicatedLog": {reachPaperFeature, `trims what every sender delivered; ROADMAP "A hub that survives its own death; resync; a trimmed binlog"`},
	"warehouse.Binlog.Trim":            {reachPaperFeature, `drops delivered events; ROADMAP "A hub that survives its own death; resync; a trimmed binlog"`},

	// (b) Test harnesses and fixtures shared by the tests of several
	// packages.
	"faults":                       {reachHarness, "failpoint registry that the warehouse, replicate, core and root chaos tests arm; daemons only consult it"},
	"warehouse.Open":               {reachHarness, "logging in-memory DB for tests; daemons open through OpenOptions"},
	"warehouse.DB.Insert":          {reachHarness, "map-form row insert that tests of most packages seed tables with"},
	"warehouse.Table.Insert":       {reachHarness, "map-form row insert inside a transaction, for the same fixtures"},
	"warehouse.DB.Schemas":         {reachHarness, "lists a DB's schemas for the warehouse, replicate and core tests"},
	"warehouse.Schema.Tables":      {reachHarness, "lists a schema's tables for the warehouse, realm/perf and core tests"},
	"warehouse.Table.Columns":      {reachHarness, "a table's column names, by which the aggregate, core and warehouse tests render its rows"},
	"warehouse.Table.Def":          {reachHarness, "a table's definition, whose Derived flag and indexes the warehouse and core tests check"},
	"realm/jobs.FactFromRecord":    {reachHarness, "map-form job fact row for the replicate, core, aggregate, rest and warehouse tests"},
	"realm/jobs.FactRowFromRecord": {reachHarness, "positional job fact row, the boxed form of what ingest appends as typed columns (jobs.Batch), for the aggregate, core, replicate and warehouse tests that write facts a row at a time"},
	"obs.SetEnabled":               {reachHarness, "instrumentation off switch that TestDisabled and TestSpanDisabledNil in obs, and BenchmarkObsOverhead and BenchmarkTelemetryOverhead in rest, flip"},
	"workload.SUConverter2017":     {reachHarness, "Figure 1 SU factors as a converter, for the warehouse, aggregate and workload tests"},

	// (c) Methods an interface from outside the module requires.
	"obs.dynHandler.WithGroup": {reachInterface, "slog.Handler"},
}

// mains is the one build of every main package a test run makes;
// TestMain removes it when the run ends.
var mains struct {
	once sync.Once
	dir  string
	err  error
}

// buildMains builds every main package under cmd/ and examples/ into
// <dir>/main and every one under bench/cmd into <dir>/bench, once per
// test run, and returns dir. The linker keeps what is reachable from
// main; -l stops the compiler from folding small functions into their
// callers, so TestReachability sees a symbol for each, and -w skips the
// DWARF that nm does not read, so linking is faster. Neither changes
// what a binary does, so the end-to-end tests run the same builds.
// bench/ is a module of its own, so it builds in a second invocation.
func buildMains() (string, error) {
	mains.once.Do(func() {
		if mains.dir, mains.err = os.MkdirTemp("", "xdmodfed-mains-"); mains.err != nil {
			return
		}
		builds := []struct {
			chdir, out string
			pkgs       []string
		}{
			{".", "main", []string{"./cmd/...", "./examples/..."}},
			{"bench", "bench", []string{"./cmd/..."}},
		}
		errs := make([]error, len(builds))
		var wg sync.WaitGroup
		for i, b := range builds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := filepath.Join(mains.dir, b.out) + string(filepath.Separator)
				args := append([]string{"build", "-C", b.chdir, "-gcflags=xdmodfed/...=-l", "-ldflags=-w", "-o", out}, b.pkgs...)
				if msg, err := exec.Command("go", args...).CombinedOutput(); err != nil {
					errs[i] = fmt.Errorf("go build in %s: %v\n%s", b.chdir, err, msg)
				}
			}()
		}
		wg.Wait()
		mains.err = errors.Join(errs...)
	})
	return mains.dir, mains.err
}

func TestMain(m *testing.M) {
	code := m.Run()
	if mains.dir != "" {
		os.RemoveAll(mains.dir)
	}
	os.Exit(code)
}

// TestReachability keeps internal/ to what an entry point runs. It
// builds every main package under cmd/, examples/ and bench/cmd with
// inlining off in this module (so a function called only from an
// inlined call site still has a symbol of its own), reads the linked
// xdmodfed/internal/... text symbols with `go tool nm`, and fails on
// every function or method declared in a non-test internal/ file that
// no binary links and reachAllowlist does not excuse, and on every
// allowlist entry that excuses nothing.
func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary of the module")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	decls, err := reachDecls("internal")
	if err != nil {
		t.Fatal(err)
	}

	dir, err := buildMains()
	if err != nil {
		t.Fatal(err)
	}
	bins, err := filepath.Glob(filepath.Join(dir, "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) == 0 {
		t.Fatal("no binaries built")
	}
	linked := map[string]bool{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, len(bins))
	for i, bin := range bins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := exec.Command(goBin, "tool", "nm", bin).Output()
			if err != nil {
				errs[i] = err
				return
			}
			mu.Lock()
			defer mu.Unlock()
			sc := bufio.NewScanner(bytes.NewReader(out))
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				if key, ok := reachSymbolKey(sc.Text()); ok {
					linked[key] = true
				}
			}
			errs[i] = sc.Err()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bins[i], err)
		}
	}

	unlinked, stale := reachReport(decls, linked, reachAllowlist)
	for _, key := range unlinked {
		t.Errorf("%s: %s is linked into no binary under cmd/, examples/ or bench/cmd: delete it, or wire it and add a reachAllowlist entry naming why", decls[key], key)
	}
	for _, key := range stale {
		t.Errorf("reachAllowlist entry %q excuses nothing (every function it names is linked, or none exists): remove it", key)
	}
	keys := make([]string, 0, len(reachAllowlist))
	for k := range reachAllowlist {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := reachAllowlist[k]
		t.Logf("allowed %-40s (%s) %s", k, e.class, e.reason)
	}
}

// reachDecls returns every function and method declared in the non-test
// Go files under root that build on this platform, keyed as in
// reachAllowlist, with the position of the declaration. init functions
// run whenever their package is linked and are not listed.
func reachDecls(root string) (map[string]token.Position, error) {
	fset := token.NewFileSet()
	decls := map[string]token.Position{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		dir, name := filepath.Split(path)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(strings.TrimPrefix(filepath.Dir(path), root+string(filepath.Separator)))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			key := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				key = pkg + "." + reachRecvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls[key] = fset.Position(fn.Pos())
		}
		return nil
	})
	return decls, err
}

// reachRecvName is the type name of a receiver: T for T, *T, T[P] and
// *T[P, Q].
func reachRecvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// reachClosure matches the name part the compiler appends to the
// function a closure, deferred call or go statement was written in.
var reachClosure = regexp.MustCompile(`^(func|deferwrap|gowrap)[0-9]+$`)

const reachModule = "xdmodfed/internal/"

// reachSymbolKey maps one line of `go tool nm` output to the
// reachAllowlist key of the declared function it belongs to. Only text
// symbols of xdmodfed/internal/... count. Generic instantiations carry
// their shape in brackets, which may hold spaces, dots and other
// package paths; closures, defer/go wrappers and method values (-fm)
// belong to the function they appear in; (*T).M and T.M are one method.
func reachSymbolKey(line string) (string, bool) {
	// address, kind, name: the name is the rest of the line.
	f := strings.SplitN(strings.TrimSpace(line), " ", 3)
	if len(f) < 3 || (f[1] != "T" && f[1] != "t") || !strings.HasPrefix(f[2], reachModule) {
		return "", false
	}
	sym := f[2][len(reachModule):]

	// Drop every bracketed instantiation, so no dot, slash or space
	// of a shape type is read as part of the name.
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	sym = b.String()

	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		return "", false
	}
	pkg, name := sym[:slash+1+dot], sym[slash+2+dot:]
	var parts []string
	if rest, ok := strings.CutPrefix(name, "(*"); ok {
		recv, after, ok := strings.Cut(rest, ").")
		if !ok {
			return "", false
		}
		parts = append([]string{recv}, strings.Split(after, ".")...)
	} else {
		parts = strings.Split(name, ".")
	}
	for i := range parts {
		parts[i] = strings.TrimSuffix(parts[i], "-fm")
	}
	if len(parts) >= 2 && !reachClosure.MatchString(parts[1]) {
		return pkg + "." + parts[0] + "." + parts[1], true
	}
	return pkg + "." + parts[0], true
}

// reachReport lists the declared functions that are neither linked nor
// excused, and the allowlist entries that excuse nothing, both sorted.
func reachReport(decls map[string]token.Position, linked map[string]bool, allow map[string]reachExemption) (unlinked, stale []string) {
	used := map[string]bool{}
	for key := range decls {
		if linked[key] {
			continue
		}
		excused := false
		for entry := range allow {
			if key == entry || strings.HasPrefix(key, entry+".") {
				used[entry], excused = true, true
			}
		}
		if !excused {
			unlinked = append(unlinked, key)
		}
	}
	for entry := range allow {
		if !used[entry] {
			stale = append(stale, entry)
		}
	}
	sort.Strings(unlinked)
	sort.Strings(stale)
	return unlinked, stale
}

// TestReachSymbolKey pins the symbol normaliser on the name shapes
// `go tool nm` prints. Splitting a line on whitespace would cut the
// qcache.Cache methods at the first space of their shape type and report
// all seven as unlinked, though every chart request runs them.
func TestReachSymbolKey(t *testing.T) {
	shape := "[go.shape.struct { Series []xdmodfed/internal/aggregate.Series; RowsScanned int }]"
	for _, tc := range []struct{ line, want string }{
		{"  767600 T xdmodfed/internal/qcache.(*Cache" + shape + ").GetOrCompute", "qcache.Cache.GetOrCompute"},
		{"  7675a0 T xdmodfed/internal/qcache.(*Cache" + shape + ").PeekStale.deferwrap1", "qcache.Cache.PeekStale"},
		{"  767c80 T xdmodfed/internal/qcache.New" + shape, "qcache.New"},
		{"  7683a0 T xdmodfed/internal/qcache.New" + shape + ".func1", "qcache.New"},
		{"  4a0000 T xdmodfed/internal/core.(*Hub).ApplyBatchCtx.func2.1", "core.Hub.ApplyBatchCtx"},
		{"  4a0000 T xdmodfed/internal/core.(*Hub).EnsureAggregated.gowrap1", "core.Hub.EnsureAggregated"},
		{"  4a0000 T xdmodfed/internal/aggregate.Series.Total", "aggregate.Series.Total"},
		{"  4a0000 T xdmodfed/internal/aggregate.(*Series).Total", "aggregate.Series.Total"},
		{"  4a0000 T xdmodfed/internal/rest.(*Server).handleChart-fm", "rest.Server.handleChart"},
		{"  4a0000 T xdmodfed/internal/realm/cloud.SyncSessions.func3", "realm/cloud.SyncSessions"},
		{"  4a0000 t xdmodfed/internal/warehouse/store.timeOf", "warehouse/store.timeOf"},
	} {
		got, ok := reachSymbolKey(tc.line)
		if !ok || got != tc.want {
			t.Errorf("reachSymbolKey(%q) = %q, %v; want %q", tc.line, got, ok, tc.want)
		}
	}
	for _, line := range []string{
		"  9465c0 R xdmodfed/internal/qcache..dict.Cache[xdmodfed/internal/rest.chartResult]",
		"  bf6330 D xdmodfed/internal/qcache.mBytesVec",
		"  4a0000 T type:.eq.xdmodfed/internal/aggregate.Series",
		"  4a0000 T main.main",
	} {
		if key, ok := reachSymbolKey(line); ok {
			t.Errorf("reachSymbolKey(%q) = %q; want no key", line, key)
		}
	}
}

// TestReachReportFlagsStaleEntries shows the allowlist cannot rot: an
// entry whose function got linked, or was deleted, fails as loudly as
// an unlinked function without an entry.
func TestReachReportFlagsStaleEntries(t *testing.T) {
	decls := map[string]token.Position{
		"core.Satellite.RunLooseFederation": {},
		"rest.Client.Login":                 {},
		"rest.Client.Chart":                 {},
		"chart.SVGBar":                      {},
	}
	linked := map[string]bool{"rest.Client.Chart": true, "core.Hub.ApplyBatch": true}
	allow := map[string]reachExemption{
		"core.Satellite.RunLooseFederation": {reachPaperFeature, "loose shipping"},
		"rest.Client":                       {reachPaperFeature, "loose shipping"},
		"core.Hub.ApplyBatch":               {reachPaperFeature, "now linked"},
		"warehouse.DB.Gone":                 {reachHarness, "deleted"},
	}
	unlinked, stale := reachReport(decls, linked, allow)
	if want := []string{"chart.SVGBar"}; !equalStrings(unlinked, want) {
		t.Errorf("unlinked = %v, want %v", unlinked, want)
	}
	if want := []string{"core.Hub.ApplyBatch", "warehouse.DB.Gone"}; !equalStrings(stale, want) {
		t.Errorf("stale = %v, want %v", stale, want)
	}
}

func equalStrings(a, b []string) bool {
	return strings.Join(a, "\n") == strings.Join(b, "\n")
}
