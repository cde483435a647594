package registry

import (
	"strings"
	"testing"
)

func TestLookupCanonicalAliasAndCase(t *testing.T) {
	r := New[int]("thing")
	r.Register("SHUT", 1, "shutdown")
	r.Register("DVFS", 2)

	for _, name := range []string{"SHUT", "shut", " Shutdown ", "dvfs"} {
		if _, err := r.Lookup(name); err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
		}
	}
	v, err := r.Lookup("shutdown")
	if err != nil || v != 1 {
		t.Fatalf("alias lookup = %d, %v; want 1, nil", v, err)
	}
}

func TestUnknownNameEnumeratesRegistered(t *testing.T) {
	r := New[int]("policy")
	r.Register("SHUT", 1)
	r.Register("MIX", 2)
	_, err := r.Lookup("nope")
	if err == nil {
		t.Fatal("want error for unknown name")
	}
	for _, want := range []string{"policy", `"nope"`, "SHUT|MIX"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

func TestNamesKeepRegistrationOrder(t *testing.T) {
	r := New[int]("x")
	r.Register("b", 1)
	r.Register("a", 2)
	r.Register("c", 3)
	if got := r.Join("|"); got != "b|a|c" {
		t.Fatalf("Join = %q, want b|a|c", got)
	}
}

func TestDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := New[int]("x")
	r.Register("a", 1)
	r.Register("A", 2) // case-insensitive clash
}
