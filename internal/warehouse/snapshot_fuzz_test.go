package warehouse

import (
	"bytes"
	"encoding/gob"
	"testing"
	"time"
)

// FuzzRestoreSnapshot feeds arbitrary bytes to Restore: it returns an
// error or succeeds, and never panics. The seeds are a real snapshot of
// the current version and a hand-rolled row-format v1 stream.
func FuzzRestoreSnapshot(f *testing.F) {
	src := Open("src")
	def := allTypesDef()
	def.Indexes = [][]string{{"s"}}
	if _, err := src.EnsureSchema("modw").EnsureTable(def); err != nil {
		f.Fatal(err)
	}
	ts := time.Date(2017, 3, 1, 12, 0, 0, 5, time.UTC)
	for i, s := range []any{"alpha", nil, ""} {
		row := map[string]any{"id": int64(i), "f": 1.5 * float64(i), "s": s, "b": i%2 == 0, "ts": ts, "n": nil}
		if err := src.Insert("modw", "t", row); err != nil {
			f.Fatal(err)
		}
	}
	var v2 bytes.Buffer
	if err := src.Snapshot(&v2); err != nil {
		f.Fatal(err)
	}
	var v1 bytes.Buffer
	legacy := legacySnapshot{Name: "old", LastLSN: 41, Schemas: []legacySchemaSnapshot{{Name: "modw",
		Tables: []legacyTableSnapshot{{Def: allTypesDef(), Rows: [][]any{{int64(1), 1.5, "alpha", true, time.Unix(0, 0).UTC(), int64(7)}}}}}}}
	if err := gob.NewEncoder(&v1).Encode(legacy); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(v1.Bytes())
	f.Add(v2.Bytes()[:v2.Len()/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		Open("fuzz").Restore(bytes.NewReader(data))
	})
}
