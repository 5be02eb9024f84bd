package server_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"grape/internal/server"
	"grape/internal/server/client"
)

// TestDurableKillRestart is the durability-smoke CI job: start the real
// grape-serve binary with a -data directory, mutate graphs over HTTP with
// mixed insert/delete batches, record every query class's raw answer bytes
// and epoch, SIGKILL the process, restart it over the same directory with NO
// -preload — and demand the recovered server serves byte-identical answers
// at the pre-kill epochs. It skips under -short because it builds a binary
// and spawns processes.
func TestDurableKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and spawns processes")
	}
	bin := filepath.Join(t.TempDir(), "grape-serve")
	build := exec.Command("go", "build", "-o", bin, "grape/cmd/grape-serve")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building grape-serve: %v\n%s", err, out)
	}
	dataDir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	start := func(extra ...string) (*exec.Cmd, *client.Client, string) {
		t.Helper()
		args := append([]string{"-addr", "127.0.0.1:0", "-workers", "8", "-strategy", "fennel",
			"-data", dataDir}, extra...)
		cmd := exec.Command(bin, args...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
		addrCh := make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				if i := strings.Index(sc.Text(), "listening on "); i >= 0 {
					addrCh <- strings.TrimSpace(sc.Text()[i+len("listening on "):])
					return
				}
			}
		}()
		var base string
		select {
		case base = <-addrCh:
		case <-time.After(30 * time.Second):
			t.Fatal("grape-serve did not report a listen address")
		}
		c := client.New(base, nil)
		for deadline := time.Now().Add(60 * time.Second); ; {
			h, err := c.Healthz(ctx)
			if err == nil && h.OK && h.Graphs == 4 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("grape-serve not healthy in time: healthz=%+v err=%v", h, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
		return cmd, c, base
	}

	const seed = 1
	cmd, c, _ := start("-preload", "road,social,commerce,ratings",
		"-rows", "24", "-cols", "24", "-n", "1500", "-deg", "4",
		"-people", "400", "-products", "8", "-users", "80", "-items", "30",
		"-seed", fmt.Sprint(seed), "-keywords", "db,graph,ml")

	// Mixed insert/delete streams: road mutates through an sssp session (the
	// repair path), social through the default program. Every batch is
	// journaled and fsync-ed before it applies.
	mutate := func(graphName, program, query string, edges []server.EdgeJSON) {
		t.Helper()
		var err error
		if program == "" {
			_, err = c.Mutate(ctx, graphName, edges)
		} else {
			_, err = c.MutateProgram(ctx, graphName, program, query, edges)
		}
		if err != nil {
			t.Fatalf("mutating %s: %v", graphName, err)
		}
	}
	mutate("road", "sssp", "source=0", []server.EdgeJSON{{From: 0, To: 100, W: 0.5}, {From: 1, To: 101, W: 0.25}})
	mutate("road", "sssp", "source=0", []server.EdgeJSON{{From: 0, To: 100, W: 0.5, Del: true}, {From: 2, To: 102, W: 0.75}})
	mutate("social", "", "", []server.EdgeJSON{{From: 10, To: 900, W: 1}})
	mutate("social", "", "", []server.EdgeJSON{{From: 10, To: 900, W: 1, Del: true}, {From: 11, To: 901, W: 1}})

	cases := []struct{ graph, program, query string }{
		{"road", "sssp", "source=0"},
		{"social", "cc", ""},
		{"commerce", "sim", "pattern=follows-recommend"},
		{"commerce", "subiso", "pattern=follows-recommend max=50"},
		{"social", "keyword", "k=db,graph bound=4"},
		{"ratings", "cf", "epochs=5"},
		{"social", "tricount", ""},
	}
	record := func(c *client.Client) (map[string][]byte, map[string]uint64) {
		t.Helper()
		results := map[string][]byte{}
		for _, tc := range cases {
			res, err := c.Query(ctx, server.QueryRequest{Graph: tc.graph, Program: tc.program, Query: tc.query, NoCache: true})
			if err != nil {
				t.Fatalf("%s: %v", tc.program, err)
			}
			results[tc.program] = append([]byte(nil), res.Result...)
		}
		gis, err := c.Graphs(ctx)
		if err != nil {
			t.Fatal(err)
		}
		epochs := map[string]uint64{}
		for _, gi := range gis {
			epochs[gi.Name] = gi.Epoch
		}
		return results, epochs
	}
	wantResults, wantEpochs := record(c)
	if wantEpochs["road"] != 3 || wantEpochs["social"] != 3 {
		t.Fatalf("pre-kill epochs = %v, want road=3 social=3", wantEpochs)
	}

	// SIGKILL: no shutdown hooks run, nothing flushes. Only the write-ahead
	// journal and the epoch-1 snapshots survive.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Restart WITHOUT -preload: the four graphs must come back from the
	// durable store alone, journals replayed to the pre-kill epochs.
	_, c2, base2 := start()
	gotResults, gotEpochs := record(c2)
	for name, want := range wantEpochs {
		if gotEpochs[name] != want {
			t.Fatalf("graph %s recovered at epoch %d, want %d", name, gotEpochs[name], want)
		}
	}
	for _, tc := range cases {
		if !bytes.Equal(gotResults[tc.program], wantResults[tc.program]) {
			t.Fatalf("%s answer differs after kill+restart:\npre:  %.200s\npost: %.200s",
				tc.program, wantResults[tc.program], gotResults[tc.program])
		}
	}

	// The durability gauges are live on the recovered server.
	st, err := c2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Durable) != 4 {
		t.Fatalf("/stats durable reports %d graphs, want 4", len(st.Durable))
	}
	for _, d := range st.Durable {
		if d.SnapshotEpoch < 1 {
			t.Fatalf("graph %s: snapshot epoch %d", d.Graph, d.SnapshotEpoch)
		}
	}

	// And the recovered server is still mutable: one more journaled batch.
	mutateC2 := client.New(base2, nil)
	if _, err := mutateC2.MutateProgram(ctx, "road", "sssp", "source=0", []server.EdgeJSON{{From: 3, To: 103, W: 1}}); err != nil {
		t.Fatalf("mutating recovered server: %v", err)
	}
	gis, err := c2.Graphs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, gi := range gis {
		if gi.Name == "road" && gi.Epoch != wantEpochs["road"]+1 {
			t.Fatalf("post-recovery mutation landed on epoch %d, want %d", gi.Epoch, wantEpochs["road"]+1)
		}
	}
}
