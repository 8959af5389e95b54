package su

import "testing"

func TestRegisterAndConvert(t *testing.T) {
	c := NewConverter()
	if err := c.Register("comet", 0.8); err != nil {
		t.Fatal(err)
	}
	got, err := c.ToXDSU("comet", 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 80 {
		t.Errorf("ToXDSU = %g, want 80", got)
	}
}

func TestRegisterRejectsBadInput(t *testing.T) {
	c := NewConverter()
	if err := c.Register("", 1); err == nil {
		t.Error("empty resource should fail")
	}
	if err := c.Register("x", 0); err == nil {
		t.Error("zero factor should fail")
	}
	if err := c.Register("x", -1); err == nil {
		t.Error("negative factor should fail")
	}
}

func TestUnknownResourceErrors(t *testing.T) {
	c := NewConverter()
	if _, err := c.ToXDSU("ghost", 1); err == nil {
		t.Error("unknown resource must error, not identity-convert")
	}
}
