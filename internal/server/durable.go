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
// epoch), and each accepted mutation batch bumps it by exactly one. Mutate
// validates a batch before it journals it, so the journal holds exactly the
// accepted batches, each with the epoch it was applied against
// (Record.PreEpoch); a rejected batch never reaches disk. A batch lands
// whole: the session splices all of it into the base graph before any
// program hook runs, so one that breaks its session partway is in the graph
// too. Replay therefore needs no session: it splices each record into the
// snapshot graph (engine.SpliceBatch, as the session did) and bumps the
// epoch, landing on exactly the pre-crash graph and epoch, from which any
// answer can be computed again. Replay checks PreEpoch record by record and
// refuses to serve a divergent recovery rather than guessing.

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
// counter, and a 404 saying so for every request naming it. Recovery runs
// no program, so ctx does not bound it. Requires Config.Durable.
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
		rg, err := s.recoverGraph(name)
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

// recoverGraph opens name's durable state, splices its journal into the
// snapshot graph, and publishes the graph resident at its pre-crash epoch. No
// session opens and no program runs: the first Mutate opens its session at
// the recovered epoch, as it does after AddGraph. Returns store.ErrNoSnapshot
// bare when name's directory holds no snapshot, and wrapped with the store's
// reason when none of its snapshots validates.
func (s *Server) recoverGraph(name string) (*residentGraph, error) {
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

	for i, r := range rec.Records {
		if err := rg.replay(r); err != nil {
			gs.Close()
			return nil, fmt.Errorf("replaying record %d: %w", i, err)
		}
	}
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

// replay splices one journal record into the graph and bumps the epoch,
// taking no lock: rg is not yet published. A record its program's validation
// rejects was refused live by a server that journaled before validating: it
// is skipped without bumping the epoch, as that server did, and the next
// record's PreEpoch check catches any divergence. A splice refused after
// validation passed is a divergence too.
func (rg *residentGraph) replay(r store.Record) error {
	if rg.epoch != r.PreEpoch {
		return fmt.Errorf("journaled against epoch %d but replay reached %d — refusing divergent recovery", r.PreEpoch, rg.epoch)
	}
	e, err := engine.Lookup(r.Program)
	if err != nil {
		return err
	}
	pq, err := e.Parse(r.Query)
	if err != nil {
		return fmt.Errorf("%s %q: %w", r.Program, r.Query, err)
	}
	if e.Validate(rg.g, pq, r.Updates) != nil {
		return nil
	}
	g, err := engine.SpliceBatch(rg.g, r.Updates)
	if err != nil {
		return fmt.Errorf("validated, yet the splice refused it: %w — refusing divergent recovery", err)
	}
	rg.g = g
	rg.epoch++
	return nil
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
		AppendFailures: rg.appendFailures,
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
		// The journal grew without the epoch moving: only a journal written
		// by a server that journaled rejected batches holds such records.
		// Nothing new to snapshot, and the journal replays to a no-op.
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
