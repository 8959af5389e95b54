package core

import (
	"sort"
	"strings"
	"testing"
)

// secondaryIndexes is every secondary index of every table NewInstance
// creates, as "schema.table(col,...)", sorted, each with the ScanIndex
// reader it serves. Every insert renders and hashes a key for each
// index on both the satellite and the hub, so an index stays only
// where something reads it. The list is written out by hand on
// purpose: a change that adds an index must edit it in the same diff,
// so the index and its reader are visible in review.
var secondaryIndexes = []string{
	"modw_cloud.event(vm_id)",           // cloud/sessions.go: one VM's events
	"modw_cloud.session_records(vm_id)", // cloud/sessions.go: one VM's sessions
}

// TestSecondaryIndexesAreRead: the secondary indexes an instance
// declares are exactly secondaryIndexes.
func TestSecondaryIndexesAreRead(t *testing.T) {
	in, err := NewInstance(satCfg("s", []string{"r"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, schema := range in.DB.Schemas() {
		s := in.DB.Schema(schema)
		for _, table := range s.Tables() {
			for _, ix := range s.Table(table).Def().Indexes {
				got = append(got, schema+"."+table+"("+strings.Join(ix, ",")+")")
			}
		}
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(secondaryIndexes, "\n") {
		t.Errorf("secondary indexes changed; update secondaryIndexes in the same change, naming each one's reader.\n got  %q\n want %q",
			got, secondaryIndexes)
	}
}
