package xdmodfed

import (
	"bytes"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
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
