package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestRecordReplay drives the CLI end to end: a two-round kvcache session
// (continuous optimization + version GC) is recorded, then re-executed
// from the journal alone. replaySession fails unless every state-hash
// checkpoint verifies and the re-recorded journal is byte-identical.
func TestRecordReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.jsonl")
	cfg := runConfig{workload: "kvcache", input: "set10_get90", profileMS: 5, rounds: 2}
	if err := run(cfg, path); err != nil {
		t.Fatalf("record: %v", err)
	}
	if err := replaySession(path); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

// TestBatchGuestRejected: a batch guest completes no requests, so the
// session must stop at the baseline with an error that says so, not
// profile it and fail later on an empty profile.
func TestBatchGuestRejected(t *testing.T) {
	cfg := runConfig{workload: "compilersim", input: "tu:3", profileMS: 1, rounds: 1}
	err := run(cfg, "")
	if err == nil || !strings.Contains(err.Error(), "completed no requests in the baseline window") {
		t.Fatalf("run(compilersim) = %v, want the no-requests baseline error", err)
	}
}
