package engine

import (
	"context"
	"errors"
	"fmt"

	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/partition"
)

// EntrySpec is the one typed source an Entry is derived from: the PIE
// program, its query-string parse/canonical pair and, optionally, its ground
// truth. MakeEntry turns it into the registry's erased hooks, which are all
// views of the same spec and cannot disagree about what a query string means
// or what a correct answer is.
type EntrySpec[Q, V, R any] struct {
	// Prog is the PIE program. If it also implements WireProgram, the entry
	// gains the Wire hook and can run distributed.
	Prog Program[Q, V, R]
	// Description is a one-line summary shown by the library listing.
	Description string
	// QueryHelp documents the query string syntax Parse accepts.
	QueryHelp string
	// Parse resolves a query string into the typed query.
	Parse func(query string) (Q, error)
	// Canonical renders a typed query as its normalized string — the
	// cache-key form with defaults resolved, numbers reformatted and
	// parameter order fixed.
	Canonical func(q Q) string
	// Hops, if non-nil, reports the d-hop fragment expansion a query needs
	// (Options.ExpandHops); locality-bounded programs like SubIso set it,
	// most programs leave it nil (no expansion). A 1-hop fragment keeps only
	// the edges a match anchored at an inner vertex can read, so a query
	// answered on one must be: its matches must lie within its anchor's
	// ball, every edge they read touching the anchor or joining two of its
	// neighbors (partition.BuildExpanded).
	Hops func(q Q) int
	// Reference, if non-nil, answers a query the plain sequential way, and
	// Agree names the first difference between an engine answer and the
	// reference answer (nil if none). The two come together; MakeEntry
	// derives Entry.Check from them.
	Reference func(g *graph.Graph, q Q) R
	Agree     func(got, want R) error
}

// MakeEntry derives the full erased hook set of an Entry from one typed
// spec. It panics on an incomplete spec, or a program whose update
// parameters are not in the value table — entries are built in package
// init, where either is a programming error.
func MakeEntry[Q, V, R any](s EntrySpec[Q, V, R]) Entry {
	if s.Prog == nil {
		panic("engine: MakeEntry: nil program")
	}
	if s.Parse == nil || s.Canonical == nil {
		panic(fmt.Sprintf("engine: MakeEntry(%q): Parse and Canonical are required", s.Prog.Name()))
	}
	if (s.Reference == nil) != (s.Agree == nil) {
		panic(fmt.Sprintf("engine: MakeEntry(%q): Reference and Agree come together", s.Prog.Name()))
	}
	if _, err := declare(s.Prog.Name(), s.Prog.Spec()); err != nil {
		panic(err.Error())
	}
	name := s.Prog.Name()
	doParse := func(query string) (ParsedQuery, error) {
		q, err := s.Parse(query)
		if err != nil {
			return ParsedQuery{}, err
		}
		pq := ParsedQuery{Program: name, Query: q, Canonical: s.Canonical(q)}
		if s.Hops != nil {
			pq.Hops = s.Hops(q)
		}
		return pq, nil
	}
	e := Entry{
		Name:         name,
		Description:  s.Description,
		QueryHelp:    s.QueryHelp,
		CutInvariant: s.Prog.Spec().Less != nil,
		Parse:        doParse,
		Run: func(ctx context.Context, g *graph.Graph, opts Options, query string) (any, *metrics.Stats, error) {
			pq, err := doParse(query)
			if err != nil {
				return nil, nil, err
			}
			// Programs that declare an expansion requirement own
			// Options.ExpandHops; for the rest a caller-supplied expansion
			// passes through untouched.
			if s.Hops != nil {
				opts.ExpandHops = pq.Hops
			}
			res, stats, err := Run(ctx, g, s.Prog, pq.Query.(Q), opts)
			return any(res), stats, err
		},
		Resident: func(layout *partition.Layout, opts Options) (ResidentRunner, error) {
			if opts.Transport != nil {
				return nil, errors.New("engine: resident runs use the in-process bus (wire workers cannot share a resident layout)")
			}
			return residentRunner[Q, V, R]{prog: s.Prog, layout: layout, opts: opts}, nil
		},
		Session: func(ctx context.Context, g *graph.Graph, opts Options, pq ParsedQuery) (SessionHandle, any, *metrics.Stats, error) {
			q, err := queryOf[Q](name, pq)
			if err != nil {
				return nil, nil, nil, err
			}
			if s.Hops != nil {
				opts.ExpandHops = pq.Hops
			}
			sess, res, stats, err := NewSession(ctx, g, s.Prog, q, opts)
			if err != nil {
				return nil, nil, stats, err
			}
			return sessionAdapter[Q, V, R]{s: sess}, any(res), stats, nil
		},
		Validate: func(g *graph.Graph, pq ParsedQuery, ups []EdgeUpdate) error {
			q, err := queryOf[Q](name, pq)
			if err != nil {
				return err
			}
			return validateBatch(g, s.Prog, q, ups)
		},
	}
	if wp, ok := any(s.Prog).(WireProgram[Q, V, R]); ok {
		e.Wire = WireServe(wp)
	}
	if s.Reference != nil {
		e.Check = func(g *graph.Graph, pq ParsedQuery, got any) error {
			q, qok := pq.Query.(Q)
			res, ok := got.(R)
			if !qok || !ok {
				return fmt.Errorf("engine: %s: cannot check a %T answer to a %T query", name, got, pq.Query)
			}
			return s.Agree(res, s.Reference(g, q))
		}
	}
	return e
}

// queryOf unwraps pq's typed query for program name.
func queryOf[Q any](name string, pq ParsedQuery) (Q, error) {
	q, ok := pq.Query.(Q)
	if !ok {
		return q, fmt.Errorf("engine: %s: parsed query has type %T, want %T", name, pq.Query, q)
	}
	return q, nil
}

// residentRunner answers parsed queries of one program over one layout
// through RunOnLayout, whose pool recycles every run's scratch.
type residentRunner[Q, V, R any] struct {
	prog   Program[Q, V, R]
	layout *partition.Layout
	opts   Options
}

func (r residentRunner[Q, V, R]) RunParsed(ctx context.Context, pq ParsedQuery) (any, *metrics.Stats, error) {
	name := r.prog.Name()
	q, err := queryOf[Q](name, pq)
	if err != nil {
		return nil, nil, err
	}
	if pq.Hops > r.layout.Hops {
		return nil, nil, fmt.Errorf("engine: %s: query needs fragments expanded %d hops, the layout has %d", name, pq.Hops, r.layout.Hops)
	}
	res, stats, err := RunOnLayout(ctx, r.layout, r.prog, q, r.opts)
	return any(res), stats, err
}

// sessionAdapter erases a typed Session into SessionHandle for the registry.
type sessionAdapter[Q, V, R any] struct {
	s *Session[Q, V, R]
}

func (a sessionAdapter[Q, V, R]) Update(ctx context.Context, updates []EdgeUpdate) (any, *metrics.Stats, error) {
	res, stats, err := a.s.Update(ctx, updates)
	return any(res), stats, err
}

func (a sessionAdapter[Q, V, R]) Result() (any, error) {
	res, err := a.s.Result()
	return any(res), err
}

func (a sessionAdapter[Q, V, R]) Broken() bool { return a.s.Broken() }

func (a sessionAdapter[Q, V, R]) Graph() *graph.Graph { return a.s.Graph() }

func (a sessionAdapter[Q, V, R]) Layout() *partition.Layout { return a.s.Layout() }
