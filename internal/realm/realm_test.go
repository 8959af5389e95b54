package realm

import (
	"testing"

	"xdmodfed/internal/warehouse"
)

func sample() Info {
	return Info{
		Name: "Test", Schema: "s", FactTable: "f", TimeColumn: "t",
		Tables: []warehouse.TableDef{{Name: "f"}},
		Metrics: []Metric{
			{ID: "m1", Name: "Metric 1", Func: warehouse.AggSum, Column: "c"},
			{ID: "m2", Name: "Metric 2", Func: warehouse.AggCount},
		},
		Dimensions: []Dimension{
			{ID: "d1", Name: "Dim 1", Column: "c"},
		},
	}
}

func TestInfoValidate(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatalf("valid info rejected: %v", err)
	}
	bad := []func(*Info){
		func(i *Info) { i.Name = "" },
		func(i *Info) { i.Schema = "" },
		func(i *Info) { i.FactTable = "" },
		func(i *Info) { i.TimeColumn = "" },
		func(i *Info) { i.Tables = nil },                                   // fact table not declared
		func(i *Info) { i.Tables = []warehouse.TableDef{{Name: "other"}} }, // nor here
		func(i *Info) { i.Metrics[0].ID = "" },
		func(i *Info) { i.Metrics[0].Column = "" }, // sum without column
		func(i *Info) { i.Metrics[1].ID = "m1" },   // duplicate
		func(i *Info) { i.Dimensions[0].Column = "" },
		func(i *Info) { i.Dimensions = append(i.Dimensions, Dimension{ID: "d1", Name: "x", Column: "c"}) },
	}
	for n, mutate := range bad {
		i := sample()
		mutate(&i)
		if err := i.Validate(); err == nil {
			t.Errorf("case %d: expected error", n)
		}
	}
}

func TestMetricDimensionLookup(t *testing.T) {
	i := sample()
	if m, ok := i.Metric("m1"); !ok || m.Name != "Metric 1" {
		t.Errorf("Metric lookup failed: %v %v", m, ok)
	}
	if _, ok := i.Metric("zz"); ok {
		t.Error("unknown metric should miss")
	}
	if n, ok := i.DimensionIndex("d1"); !ok || i.Dimensions[n].Name != "Dim 1" {
		t.Errorf("DimensionIndex lookup failed: %v %v", n, ok)
	}
	if _, ok := i.DimensionIndex("zz"); ok {
		t.Error("unknown dimension should miss")
	}
}

func TestScaleOr1(t *testing.T) {
	if got := (Metric{}).ScaleOr1(); got != 1 {
		t.Errorf("default scale = %g, want 1", got)
	}
	if got := (Metric{Scale: 0.5}).ScaleOr1(); got != 0.5 {
		t.Errorf("scale = %g, want 0.5", got)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(sample()); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(sample()); err == nil {
		t.Error("duplicate registration should fail")
	}
	if err := r.Register(Info{}); err == nil {
		t.Error("invalid info should be rejected")
	}
	got, ok := r.Get("Test")
	if !ok || got.Schema != "s" {
		t.Errorf("Get failed: %+v %v", got, ok)
	}
	two := sample()
	two.Name = "Another"
	r.Register(two)
	names := r.Names()
	if len(names) != 2 || names[0] != "Another" || names[1] != "Test" {
		t.Errorf("Names = %v", names)
	}
}
