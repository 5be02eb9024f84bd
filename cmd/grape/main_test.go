package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI compiles the grape CLI once per test binary.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "grape-cli")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)

	out := run(t, bin, "-list")
	for _, prog := range []string{"sssp", "cc", "sim", "subiso", "keyword", "cf", "tricount"} {
		if !strings.Contains(out, prog) {
			t.Fatalf("-list missing %q:\n%s", prog, out)
		}
	}

	traceFile := filepath.Join(t.TempDir(), "run.json")
	out = run(t, bin, "-program", "sssp", "-query", "source=0",
		"-dataset", "road", "-rows", "16", "-cols", "16", "-workers", "4", "-strategy", "2d",
		"-steps", "-trace", traceFile)
	for _, frag := range []string{"analytics:", "4 workers", "PEval", "superstep spans written"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("sssp output missing %q:\n%s", frag, out)
		}
	}
	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("-trace wrote nothing: %v", err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("-trace output is not Chrome trace JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("-trace output has no trace events")
	}

	out = run(t, bin, "-program", "cc", "-dataset", "social", "-n", "500", "-deg", "3", "-workers", "3")
	if !strings.Contains(out, "components over") {
		t.Fatalf("cc output unexpected:\n%s", out)
	}

	out = run(t, bin, "-program", "keyword", "-query", "k=db,ml bound=4",
		"-dataset", "social", "-n", "800", "-keywords", "db,ml,sys", "-workers", "4")
	if !strings.Contains(out, "roots") {
		t.Fatalf("keyword output unexpected:\n%s", out)
	}

	// file round-trip: generate with grape-gen's format via graph text and reload
	dir := t.TempDir()
	file := filepath.Join(dir, "tiny.txt")
	if err := os.WriteFile(file, []byte("e 0 1 2\ne 1 2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out = run(t, bin, "-program", "sssp", "-query", "source=0", "-input", file, "-workers", "2")
	if !strings.Contains(out, "graph: 3 vertices, 2 edges") {
		t.Fatalf("file input not loaded:\n%s", out)
	}

	// error paths exit non-zero
	if _, err := exec.Command(bin, "-program", "nope").CombinedOutput(); err == nil {
		t.Fatal("unknown program should fail")
	}
	if _, err := exec.Command(bin, "-program", "sssp", "-query", "source=x").CombinedOutput(); err == nil {
		t.Fatal("bad query should fail")
	}
	// a fleet's size is not this machine's core count: -listen wants -workers
	out2, err := exec.Command(bin, "-program", "sssp", "-query", "source=0", "-listen", "127.0.0.1:0").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out2), "-listen needs -workers") {
		t.Fatalf("-listen without -workers: %v\n%s", err, out2)
	}
}
