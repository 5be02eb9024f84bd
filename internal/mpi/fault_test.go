package mpi

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"
)

func TestFaultDropMetersAndInjects(t *testing.T) {
	bus := NewBus(2, 16)
	ft := NewFaultTransport(bus, Fault{Step: 2, Worker: 1, Kind: Drop})

	// Step 1 is below the fault's step: delivered normally.
	ft.Send(Envelope{From: Coordinator, To: 1, Step: 1, Payload: "peval", Size: 10})
	env, err := ft.Recv(context.Background(), 1)
	if err != nil || env.Payload != "peval" {
		t.Fatalf("pre-fault send mangled: %+v %v", env, err)
	}
	before := bus.Bytes()

	// Step 2 strikes: the frame is lost but its bytes are still metered.
	ft.Send(Envelope{From: Coordinator, To: 1, Step: 2, Payload: "inceval", Size: 7})
	if got := bus.Bytes() - before; got != 7 {
		t.Fatalf("dropped command metered %d bytes, want 7", got)
	}
	if ft.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", ft.Fired())
	}

	// The coordinator's next Recv surfaces the classified failure.
	env, err = ft.Recv(context.Background(), Coordinator)
	if err != nil {
		t.Fatal(err)
	}
	perr, ok := env.Payload.(error)
	if !ok || env.Frame != nil {
		t.Fatalf("injected envelope not a fatal: %+v", env)
	}
	if w, ok := WorkerFatalOf(perr); !ok || w != 1 {
		t.Fatalf("fatal payload %v classifies to (%d, %v), want worker 1", perr, w, ok)
	}
	if !errors.Is(perr, ErrInjectedFault) {
		t.Fatalf("fatal %v does not wrap ErrInjectedFault", perr)
	}

	// The fault is one-shot: step 3 to the same worker flows.
	ft.Send(Envelope{From: Coordinator, To: 1, Step: 3, Payload: "again", Size: 1})
	env, err = ft.Recv(context.Background(), 1)
	if err != nil || env.Payload != "again" {
		t.Fatalf("post-fault send mangled: %+v %v", env, err)
	}
}

func TestFaultSeverEatsReply(t *testing.T) {
	bus := NewBus(2, 16)
	ft := NewFaultTransport(bus, Fault{Step: 2, Worker: 0, Kind: Sever})

	bus.Send(Envelope{From: 0, To: Coordinator, Step: 2, Payload: "reply", Size: 5})
	env, err := ft.Recv(context.Background(), Coordinator)
	if err != nil {
		t.Fatal(err)
	}
	perr, ok := env.Payload.(error)
	if !ok {
		t.Fatalf("severed reply delivered: %+v", env)
	}
	if w, ok := WorkerFatalOf(perr); !ok || w != 0 {
		t.Fatalf("fatal %v classifies to (%d, %v), want worker 0", perr, w, ok)
	}
	// The eaten reply is un-metered: recovery regenerates the identical
	// reply and meters it when it flows, so counting the severed one too
	// would double it relative to a failure-free run.
	if bus.Bytes() != 0 {
		t.Fatalf("severed reply left %d metered bytes, want 0", bus.Bytes())
	}
}

func TestFaultDelayIsNotADeath(t *testing.T) {
	bus := NewBus(2, 16)
	ft := NewFaultTransport(bus, Fault{Step: 1, Worker: 0, Kind: Delay, Delay: 20 * time.Millisecond})

	bus.Send(Envelope{From: 0, To: Coordinator, Step: 1, Payload: "slow", Size: 3})
	start := time.Now()
	env, err := ft.Recv(context.Background(), Coordinator)
	if err != nil || env.Payload != "slow" {
		t.Fatalf("delayed reply mangled: %+v %v", env, err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("reply arrived after %v, want >= 20ms", elapsed)
	}
	if ft.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", ft.Fired())
	}
}

func TestFaultControlFramesImmune(t *testing.T) {
	bus := NewBus(2, 16)
	ft := NewFaultTransport(bus, Fault{Step: 1, Worker: 1, Kind: Drop})

	// Step 0 control traffic (setup, stop, abort, adopt) never matches.
	ft.Send(Envelope{From: Coordinator, To: 1, Step: 0, Payload: "stop"})
	env, err := ft.Recv(context.Background(), 1)
	if err != nil || env.Payload != "stop" {
		t.Fatalf("control frame faulted: %+v %v", env, err)
	}
	if ft.Fired() != 0 {
		t.Fatalf("Fired() = %d, want 0", ft.Fired())
	}
}

func TestFaultStrikesLaterStep(t *testing.T) {
	// A fault planned for step 2 must also strike a worker first heard from
	// at step 3 (its step-2 frame may not exist for inactive workers).
	bus := NewBus(2, 16)
	ft := NewFaultTransport(bus, Fault{Step: 2, Worker: 1, Kind: Drop})
	ft.Send(Envelope{From: Coordinator, To: 1, Step: 5, Payload: "cmd", Size: 2})
	env, err := ft.Recv(context.Background(), Coordinator)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := env.Payload.(error); !ok {
		t.Fatalf("step-5 frame did not trigger the step-2 fault: %+v", env)
	}
}

func TestFaultPlanDeterministic(t *testing.T) {
	// worker w gets commands at supersteps 1 and w+2; worker 3 at none
	steps := [][]int{{1, 2}, {1, 3}, {1, 4}, nil, {1, 6}, {1, 7}, {1, 8}, {1, 9}}
	for seed := int64(0); seed < 50; seed++ {
		a, b := Plan(seed, steps), Plan(seed, steps)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: %+v != %+v", seed, a, b)
		}
		f := a[0]
		if f.Worker < 0 || f.Worker >= 8 || !slices.Contains(steps[f.Worker], f.Step) {
			t.Fatalf("seed %d: plan %+v strikes a superstep its victim gets no command in", seed, f)
		}
		if f.Kind == Delay && f.Delay <= 0 {
			t.Fatalf("seed %d: delay fault with no delay: %+v", seed, f)
		}
	}
}

func TestFaultStepZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("fault at step 0 accepted")
		}
	}()
	NewFaultTransport(NewBus(1, 16), Fault{Step: 0, Worker: 0, Kind: Drop})
}
