package transport_test

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/mpi"
	"grape/internal/queries"
	"grape/internal/transport"
)

// killerTransport wraps the socket coordinator and SIGKILLs a real worker
// process the first time a command frame for superstep >= step crosses it —
// a genuine mid-fixpoint crash, not a simulated one. Reassign is promoted
// from the embedded Coordinator, so the engine's recovery path works
// unchanged through the wrapper.
type killerTransport struct {
	*transport.Coordinator
	step int
	once sync.Once
	kill func()
}

func (k *killerTransport) Send(e mpi.Envelope) {
	if e.Step >= k.step {
		k.once.Do(k.kill)
	}
	k.Coordinator.Send(e)
}

func buildWorkerBin(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "grape-worker")
	build := exec.Command("go", "build", "-o", bin, "grape/cmd/grape-worker")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building grape-worker: %v\n%s", err, out)
	}
	return bin
}

// spawnFleet starts workers grape-worker processes against a fresh listener
// and returns the coordinator plus a kill func for one of the processes.
func spawnFleet(t *testing.T, bin string, workers int) (*transport.Coordinator, func()) {
	t.Helper()
	l, err := transport.NewListener("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	procs := make([]*exec.Cmd, workers)
	for i := 0; i < workers; i++ {
		cmd := exec.Command(bin, "-connect", l.Addr().String(), "-quiet")
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting worker %d: %v", i, err)
		}
		procs[i] = cmd
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	}
	tr, err := l.AcceptWorkers(workers, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	victim := procs[0]
	return tr, func() { victim.Process.Kill() }
}

// TestKillWorkerMidFixpoint SIGKILLs one of four real grape-worker OS
// processes in the middle of the fixpoint, for every query class, and
// asserts the run still returns the exact failure-free answer (diffed
// against the in-process bus run), with the recovery recorded in stats.
func TestKillWorkerMidFixpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and spawns processes")
	}
	bin := buildWorkerBin(t)
	const workers = 4

	for _, c := range sevenClasses() {
		t.Run(c.name, func(t *testing.T) {
			cleanRes, clean, err := c.run(engine.Options{Workers: workers})
			if err != nil {
				t.Fatalf("bus reference run: %v", err)
			}
			// Strike mid-fixpoint when the run has multiple supersteps,
			// during PEval when it converges in one.
			killStep := 2
			if clean.Supersteps < 2 {
				killStep = 1
			}
			tr, kill := spawnFleet(t, bin, workers)
			res, stats, err := c.run(engine.Options{
				Workers:   workers,
				Transport: &killerTransport{Coordinator: tr, step: killStep, kill: kill},
				Recover:   true,
			})
			if err != nil {
				t.Fatalf("run with a killed worker: %v", err)
			}
			if !reflect.DeepEqual(cleanRes, res) {
				t.Fatalf("result differs from the failure-free run:\nclean: %v\ngot:   %v", cleanRes, res)
			}
			if stats.Supersteps != clean.Supersteps {
				t.Fatalf("supersteps %d, failure-free run took %d", stats.Supersteps, clean.Supersteps)
			}
			if !reflect.DeepEqual(stats.WorkPerStep, clean.WorkPerStep) {
				t.Fatalf("work profile differs:\nclean: %v\ngot:   %v", clean.WorkPerStep, stats.WorkPerStep)
			}
			if len(stats.Recoveries) == 0 {
				t.Fatal("a worker was SIGKILLed but stats.Recoveries is empty")
			}
		})
	}
}

func anyRun[R any](res R, stats *metrics.Stats, err error) (any, *metrics.Stats, error) {
	return res, stats, err
}

// TestKillWorkerBytesMatchCleanWire compares a killed-worker wire run
// against a failure-free wire run of the same query: the recovery machinery
// must not change the measured traffic — the dropped command and the
// replayed reply take over exactly the metering slots of their failure-free
// counterparts.
func TestKillWorkerBytesMatchCleanWire(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and spawns processes")
	}
	bin := buildWorkerBin(t)
	const workers = 4
	g := gen.RoadGrid(24, 24, 1)
	run := func(tr *transport.Coordinator, kill func()) (map[graph.ID]float64, *metrics.Stats, error) {
		var mtr mpi.Transport = tr
		if kill != nil {
			mtr = &killerTransport{Coordinator: tr, step: 2, kill: kill}
		}
		return engine.Run(context.Background(), g, queries.SSSP{}, queries.SSSPQuery{Source: 0},
			engine.Options{Workers: workers, Transport: mtr, Recover: true})
	}
	trClean, _ := spawnFleet(t, bin, workers)
	cleanRes, clean, err := run(trClean, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Recoveries) != 0 {
		t.Fatalf("failure-free run recorded recoveries: %+v", clean.Recoveries)
	}
	trKill, kill := spawnFleet(t, bin, workers)
	res, stats, err := run(trKill, kill)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cleanRes, res) {
		t.Fatal("result differs from the failure-free wire run")
	}
	if stats.Bytes != clean.Bytes || stats.Messages != clean.Messages {
		t.Fatalf("traffic %d msgs / %d bytes, failure-free wire run %d / %d",
			stats.Messages, stats.Bytes, clean.Messages, clean.Bytes)
	}
	if !reflect.DeepEqual(stats.BytesPerStep, clean.BytesPerStep) {
		t.Fatalf("per-step traffic differs:\nclean: %v\ngot:   %v", clean.BytesPerStep, stats.BytesPerStep)
	}
	if len(stats.Recoveries) == 0 {
		t.Fatal("a worker was SIGKILLed but stats.Recoveries is empty")
	}
}

// TestLivenessDetectsSilentWorker handshakes a fake worker that then goes
// completely silent — no frames, no pong answers. The coordinator's pinger
// must declare it dead within the liveness window and surface a classified
// worker-fatal envelope, instead of blocking a barrier forever.
func TestLivenessDetectsSilentWorker(t *testing.T) {
	l, err := transport.NewListener("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type result struct {
		c   *transport.Coordinator
		err error
	}
	done := make(chan result, 1)
	go func() {
		c, err := l.AcceptWorkers(1, 5*time.Second, transport.WithLiveness(50*time.Millisecond, 200*time.Millisecond))
		done <- result{c, err}
	}()
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Handshake by hand: magic + version, then read the 16-byte response —
	// and never speak again.
	var hello [8]byte
	copy(hello[:4], "GRPW")
	binary.BigEndian.PutUint32(hello[4:], transport.Version)
	if _, err := nc.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	var resp [16]byte
	if _, err := io.ReadFull(nc, resp[:]); err != nil {
		t.Fatal(err)
	}
	if w := binary.BigEndian.Uint32(resp[8:]); w != 200 {
		t.Fatalf("handshake advertised a %dms liveness window, want 200", w)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	defer r.c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	env, err := r.c.Recv(ctx, mpi.Coordinator)
	if err != nil {
		t.Fatalf("liveness never fired: %v", err)
	}
	perr, ok := env.Payload.(error)
	if !ok || env.Frame != nil {
		t.Fatalf("expected a fatal envelope, got %+v", env)
	}
	if w, ok := mpi.WorkerFatalOf(perr); !ok || w != 0 {
		t.Fatalf("silence not classified worker-fatal for worker 0: %v", perr)
	}
}

// TestWorkerDeadlineUnblocksOnDeadCoordinator: a worker whose coordinator
// vanishes mid-run must unblock via its read deadline with a classified
// run-fatal error, not hang forever.
func TestWorkerDeadlineUnblocksOnDeadCoordinator(t *testing.T) {
	l, err := transport.NewListener("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type dialResult struct {
		w   *transport.WorkerConn
		err error
	}
	dialed := make(chan dialResult, 1)
	go func() {
		w, err := transport.Dial("tcp", l.Addr().String(), 5*time.Second)
		dialed <- dialResult{w, err}
	}()
	tr, err := l.AcceptWorkers(1, 5*time.Second, transport.WithLiveness(50*time.Millisecond, 300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	d := <-dialed
	if d.err != nil {
		t.Fatal(d.err)
	}
	defer d.w.Close()
	// Let one ping flow so the worker arms its read deadline, then kill the
	// coordinator outright.
	time.Sleep(100 * time.Millisecond)
	tr.Close()
	start := time.Now()
	for {
		_, err = d.w.Recv()
		if err != nil {
			break
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("worker took %v to notice the dead coordinator", elapsed)
	}
	var rf *mpi.RunFatalError
	if !errors.As(err, &rf) {
		t.Fatalf("worker error not classified run-fatal: %v", err)
	}
}
