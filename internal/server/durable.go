package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"grape/internal/engine"
	"grape/internal/metrics"
	"grape/internal/store"
)

// Crash recovery and journal compaction for servers backed by Config.Durable.
//
// The epoch invariant: a graph's epoch starts at 1 (or at the snapshot's
// epoch), and each successfully applied mutation batch bumps it by exactly
// one; rejected batches do not. The journal records every batch with the
// epoch it was applied against (Record.PreEpoch), and replay pushes each
// record through the same applyBatchLocked as the live path — so a recovered
// graph lands on exactly the pre-crash epoch, with the same session state
// and bit-identical answers. Replay checks PreEpoch record by record and
// refuses to serve a divergent recovery rather than guessing.
//
// A batch lands whole or not at all: the session splices every update of
// an accepted batch into the base graph before any program hook runs, so a
// batch that breaks its session partway (epoch bumped, session dropped)
// leaves the same graph live and on replay. What can differ is the session
// alone: a failure the batch does not determine may not recur on replay,
// and then recovery keeps the session the live server dropped — its primed
// answer is the one a fresh run on that graph gives.

// RecoveryInfo reports what recovering one graph cost (RecoverAll).
type RecoveryInfo struct {
	Graph         string
	SnapshotEpoch uint64  // epoch of the snapshot recovery started from
	Epoch         uint64  // epoch after journal replay (= pre-crash epoch)
	Replayed      int     // journal records replayed
	Mapped        bool    // snapshot served zero-copy off an mmap
	DurationMs    float64 // snapshot load + replay wall time
	Damage        string  // non-empty if a broken journal tail was truncated
}

// RecoverAll recovers every graph with durable state, making each resident
// at its pre-crash epoch. Call it once at startup, before serving traffic:
// it is the only way durable state becomes resident. A directory holding no
// snapshot is skipped (AddGraph makes that graph resident). A graph whose
// snapshots all fail validation is not recovered either, but loudly: an
// ERROR log record with the epoch and the reason, the unusable_snapshots
// counter, and a 404 saying so for every request naming it. Requires
// Config.Durable.
func (s *Server) RecoverAll(ctx context.Context) ([]RecoveryInfo, error) {
	if s.cfg.Durable == nil {
		return nil, fmt.Errorf("server: RecoverAll without Config.Durable")
	}
	names, err := s.cfg.Durable.List()
	if err != nil {
		return nil, err
	}
	var infos []RecoveryInfo
	for _, name := range names {
		rg, err := s.recoverGraph(ctx, name)
		if err != nil {
			if err == store.ErrNoSnapshot { // returned bare: no snapshot at all
				continue
			}
			if errors.Is(err, store.ErrNoSnapshot) {
				s.refuseUnusable(name, err)
				continue
			}
			return infos, fmt.Errorf("server: recovering %q: %w", name, err)
		}
		rg.mu.RLock()
		epoch := rg.epoch
		rg.mu.RUnlock()
		st := rg.ds.Stats()
		info := RecoveryInfo{
			Graph:         name,
			SnapshotEpoch: st.SnapshotEpoch,
			Epoch:         epoch,
			Replayed:      rg.replayed,
			Mapped:        st.Mapped,
			DurationMs:    rg.recoveryMs,
			Damage:        rg.damage,
		}
		infos = append(infos, info)
		if lg := s.cfg.Logger; lg != nil {
			lg.Info("graph recovered", "graph", name, "epoch", epoch,
				"snapshot_epoch", st.SnapshotEpoch, "replayed", rg.replayed,
				"mapped", st.Mapped, "ms", rg.recoveryMs, "damage", rg.damage)
		}
	}
	return infos, nil
}

// refuseUnusable keeps name non-resident because its snapshots exist but none
// validates, and says so: to the log, to the counters, and (through
// Server.resident) to every request naming the graph.
func (s *Server) refuseUnusable(name string, err error) {
	s.mu.Lock()
	s.unusable[name] = err.Error()
	s.mu.Unlock()
	s.serving.ObserveUnusableSnapshot()
	if lg := s.cfg.Logger; lg != nil {
		lg.Error("snapshot unusable, graph not recovered", "graph", name, "epoch", unusableEpoch(err), "reason", err.Error())
	}
}

// unusableEpoch is the epoch store.GraphStore.Open names in its reason for
// refusing a graph's newest snapshot — "snapshot epoch N: …", or "journal for
// epoch N: …" when the journal paired with it is the broken half — or 0.
func unusableEpoch(err error) uint64 {
	msg := err.Error()
	var epoch uint64
	if i := strings.Index(msg, "epoch "); i >= 0 {
		_, _ = fmt.Sscan(msg[i+len("epoch "):], &epoch) // reads up to the ':'; no number leaves 0
	}
	return epoch
}

// recoverGraph opens name's durable state, replays its journal through the
// session layer, and publishes the graph resident at its pre-crash epoch.
// Returns store.ErrNoSnapshot bare when name's directory holds no snapshot,
// and wrapped with the store's reason when none of its snapshots validates.
func (s *Server) recoverGraph(ctx context.Context, name string) (*residentGraph, error) {
	start := time.Now()
	gs, err := s.cfg.Durable.Graph(name)
	if err != nil {
		return nil, err
	}
	rec, err := gs.Open()
	if err != nil {
		gs.Close()
		return nil, err
	}

	s.mu.Lock()
	rg := s.newResident(name, rec.Graph)
	s.mu.Unlock()
	rg.epoch = rec.SnapshotEpoch
	rg.ds = gs
	if rec.Damage != nil {
		rg.damage = rec.Damage.Reason
		if lg := s.cfg.Logger; lg != nil {
			lg.Warn("journal tail truncated", "graph", name, "reason", rec.Damage.Reason, "intact", rec.Damage.Intact)
		}
	}

	// Replay. rg is not yet published, so the lock is uncontended — held
	// anyway because applyBatchLocked requires it. Replay ignores
	// cancellation, as Mutate does once a batch is journaled: a session that
	// fails to open on a cancelled ctx would read as a rejected batch and
	// leave replay short of the journaled epochs.
	ctx = context.WithoutCancel(ctx)
	rg.mu.Lock()
	for i, r := range rec.Records {
		if rg.epoch != r.PreEpoch {
			rg.mu.Unlock()
			gs.Close()
			return nil, fmt.Errorf("replaying record %d: journaled against epoch %d but replay reached %d — refusing divergent recovery", i, r.PreEpoch, rg.epoch)
		}
		e, err := engine.Lookup(r.Program)
		if err != nil {
			rg.mu.Unlock()
			gs.Close()
			return nil, fmt.Errorf("replaying record %d: %w", i, err)
		}
		pq, err := e.Parse(r.Query)
		if err != nil {
			rg.mu.Unlock()
			gs.Close()
			return nil, fmt.Errorf("replaying record %d (%s %q): %w", i, r.Program, r.Query, err)
		}
		res, st, applied, err := s.applyBatchLocked(ctx, rg, e, r.Program, pq, r.Updates)
		if err != nil && !applied {
			// Rejected by the session's deterministic validation — it was
			// rejected live too; the epoch stays, replay continues.
			continue
		}
		if err != nil {
			// The batch broke the session partway live and did so again; the
			// epoch bumped and the next record starts a fresh session,
			// exactly like the live path.
			continue
		}
		rs := RunStats{Supersteps: st.Supersteps, Messages: st.Messages, Bytes: st.Bytes, WallMs: st.WallTime.Seconds() * 1e3}
		s.primeSessionResult(rg, r.Program, pq.Canonical, res, rs)
	}
	rg.mu.Unlock()
	rg.replayed = len(rec.Records)
	rg.recoveryMs = time.Since(start).Seconds() * 1e3

	s.mu.Lock()
	if cur, ok := s.graphs[name]; ok {
		// AddGraph published this name while we were replaying: the explicit
		// graph wins; retire our store (its mapping may back rg.g until the
		// server closes).
		s.retired = append(s.retired, gs)
		s.mu.Unlock()
		return cur, nil
	}
	s.graphs[name] = rg
	s.mu.Unlock()
	s.publishDurability(rg)
	return rg, nil
}

// publishDurability pushes the graph's current durable-store gauges into the
// serving metrics (GET /stats and /metrics).
func (s *Server) publishDurability(rg *residentGraph) {
	st := rg.ds.Stats()
	s.serving.SetDurability(metrics.GraphDurability{
		Graph:          rg.name,
		SnapshotEpoch:  st.SnapshotEpoch,
		JournalRecords: st.JournalRecords,
		JournalBytes:   st.JournalBytes,
		Mapped:         st.Mapped,
		Compactions:    rg.compactions.Load(),
		RecoveryMs:     rg.recoveryMs,
		Replayed:       rg.replayed,
	})
}

// compactLoop periodically re-snapshots graphs whose journal crossed the
// configured thresholds. Runs until Close.
func (s *Server) compactLoop() {
	defer close(s.compactDone)
	ticker := time.NewTicker(s.cfg.CompactInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.compactStop:
			return
		case <-ticker.C:
		}
		s.mu.Lock()
		rgs := make([]*residentGraph, 0, len(s.graphs))
		for _, rg := range s.graphs {
			if rg.ds != nil {
				rgs = append(rgs, rg)
			}
		}
		s.mu.Unlock()
		for _, rg := range rgs {
			s.maybeCompact(rg)
		}
	}
}

// maybeCompact re-snapshots rg at its current epoch if the journal crossed a
// threshold, truncating the journal. It holds the graph's read lock for the
// duration: queries keep running; mutations (which need the write lock) wait
// — the snapshot must capture a quiescent graph.
func (s *Server) maybeCompact(rg *residentGraph) {
	st := rg.ds.Stats()
	overRecords := s.cfg.CompactRecords > 0 && st.JournalRecords >= s.cfg.CompactRecords
	overBytes := s.cfg.CompactBytes > 0 && st.JournalBytes >= s.cfg.CompactBytes
	if !overRecords && !overBytes {
		return
	}
	rg.mu.RLock()
	defer rg.mu.RUnlock()
	if rg.epoch <= st.SnapshotEpoch {
		// Journal grew without the epoch moving (rejected batches only):
		// nothing new to snapshot, and the journal replays to a no-op.
		return
	}
	start := time.Now()
	if err := rg.ds.Compact(rg.g, rg.epoch); err != nil {
		if lg := s.cfg.Logger; lg != nil {
			lg.Warn("compaction failed", "graph", rg.name, "err", err.Error())
		}
		return
	}
	rg.compactions.Add(1)
	s.publishDurability(rg)
	if lg := s.cfg.Logger; lg != nil {
		lg.Info("journal compacted", "graph", rg.name, "epoch", rg.epoch,
			"records", st.JournalRecords, "bytes", st.JournalBytes,
			"ms", time.Since(start).Seconds()*1e3)
	}
}

// Close stops admission, waits until every admitted run (abandoned ones
// included) has released its slot, stops the compactor and closes every
// durable store: graphs recovered from mapped snapshots must not be used
// afterwards. Safe to call more than once.
func (s *Server) Close() error {
	var firstErr error
	s.closeOnce.Do(func() {
		s.sched.drain()
		if s.compactStop != nil {
			close(s.compactStop)
			<-s.compactDone
		}
		s.mu.Lock()
		stores := append([]*store.GraphStore(nil), s.retired...)
		s.retired = nil
		for _, rg := range s.graphs {
			if rg.ds != nil {
				stores = append(stores, rg.ds)
			}
		}
		s.mu.Unlock()
		for _, gs := range stores {
			if err := gs.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	})
	return firstErr
}
