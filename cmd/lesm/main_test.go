package main

import (
	"testing"

	"lesm"
)

func TestParseEngine(t *testing.T) {
	for s, want := range map[string]lesm.Engine{"cathy": lesm.EngineCATHY, "strod": lesm.EngineSTROD} {
		if got, err := parseEngine(s); err != nil || got != want {
			t.Fatalf("parseEngine(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"", "CATHY", "lda", "strod "} {
		if _, err := parseEngine(s); err == nil {
			t.Fatalf("parseEngine(%q) accepted", s)
		}
	}
}
