package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md from the report")

const experimentsPath = "../../EXPERIMENTS.md"

// TestExperimentsRecordIsCurrent runs the report in-process and diffs it
// against the committed EXPERIMENTS.md, so a change that moves a figure
// cell shows up in the diff that makes it. With -update it rewrites the
// file instead.
func TestExperimentsRecordIsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every use case")
	}
	var got bytes.Buffer
	if err := reportCmd(&got, nil); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(experimentsPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(experimentsPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return ls[i]
		}
		return "<end of file>"
	}
	t.Fatalf("EXPERIMENTS.md is stale from line %d (report %d lines, file %d):\n  file:   %s\n  report: %s\n"+
		"rerun with: go test ./cmd/gem5art -run TestExperimentsRecordIsCurrent -update",
		i+1, len(g), len(w), line(w), line(g))
}
