package main

import (
	"path/filepath"
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
