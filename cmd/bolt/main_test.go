package main

import (
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obj"
)

// TestRunWritesAndReBolts drives the CLI end to end on full-scale docdb:
// profile and optimize the original, then re-optimize the written file.
// Both files must decode, validate, and keep the original .data extent
// (its zero-fill tail survives the on-disk format and a second BOLT run).
func TestRunWritesAndReBolts(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "docdb.bolt")
	second := filepath.Join(dir, "docdb.bolt2")
	if err := run("docdb", "read_update", "", first, 0.5, "c3", false, false, false); err != nil {
		t.Fatalf("bolt: %v", err)
	}
	if err := run("docdb", "read_update", first, second, 0.5, "c3", false, false, true); err != nil {
		t.Fatalf("bolt -in %s -allow-rebolt: %v", first, err)
	}

	w, err := experiments.Workload("docdb")
	if err != nil {
		t.Fatal(err)
	}
	orig := w.Binary.Section(obj.SecData)
	for _, path := range []string{first, second} {
		b, err := obj.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		if !b.Bolted {
			t.Errorf("%s: not marked bolted", path)
		}
		d := b.Section(obj.SecData)
		if d == nil || d.Addr != orig.Addr || d.End() != orig.End() {
			t.Errorf("%s: .data %+v does not span the original [%#x,%#x)", path, d, orig.Addr, orig.End())
		}
	}
}
