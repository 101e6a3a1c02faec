// The one mapping between jobs and journal records. recordsOf turns a
// job into records: the submit path appends its accept, finish its
// terminal record, and compaction snapshots every retained job with it.
// Replay folds records back through apply, and restore inverts
// recordsOf over the fold.
package service

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	"repro/internal/journal"
)

// kindOf is the one JobState⇄journal.Kind table: an accept journals a
// queued job, and each terminal state has its own kind. StateRunning has
// no kind (a restart re-enqueues a running job like a queued one), and
// journal.Dispatched, which older versions wrote, has no state, so
// replay skips it.
var kindOf = map[JobState]journal.Kind{
	StateQueued: journal.Accepted, StateDone: journal.Done,
	StateFailed: journal.Failed, StateCancelled: journal.Cancelled,
}

// stateOf inverts kindOf; ok is false for a kind with no state.
func stateOf(kind journal.Kind) (state JobState, ok bool) {
	for st, k := range kindOf {
		if k == kind {
			return st, true
		}
	}
	return "", false
}

// recordsOf returns the job's journal records: its accept, plus its
// terminal record once it has one (with the output bytes for a done
// job). The records alias the job's request and output without copying:
// reqJSON never changes, and j.out is frozen once the job is terminal
// (job.Write drops bytes from then on), the only time a record carries it.
func recordsOf(j *job) []journal.Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	recs := []journal.Record{{Kind: journal.Accepted, ID: j.id, Client: j.client,
		Key: j.req.DedupeKey, Request: j.reqJSON, UnixMilli: j.submitted.UnixMilli()}}
	if !j.state.terminal() {
		return recs
	}
	rec := journal.Record{Kind: kindOf[j.state], ID: j.id, Client: j.client,
		Key: j.req.DedupeKey, Error: j.errMsg, UnixMilli: j.finished.UnixMilli()}
	if j.state == StateDone {
		rec.Output = j.out
	}
	return append(recs, rec)
}

// liveRecords is the compaction snapshot: recordsOf over the retained
// jobs, in submission order.
func (s *Server) liveRecords() []journal.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var live []journal.Record
	for _, id := range s.order {
		live = append(live, recordsOf(s.jobs[id])...)
	}
	return live
}

// replay is the state a journal folds to: per job id its first accept
// and its first terminal record, and the ids in first-accept order. The
// zero value is the empty journal.
type replay struct {
	jobs  map[string]*replayed
	order []string
}

type replayed struct {
	accept, terminal *journal.Record
}

// apply is one fold step. The first accept and the first terminal record
// of an id win. A terminal record may land before its accept (a fast job
// finishes before the submit handler journals the accept); it just fills
// the id's entry early. A record with no state (journal.Dispatched)
// changes nothing.
func (st *replay) apply(r journal.Record) error {
	state, ok := stateOf(r.Kind)
	if !ok {
		return nil
	}
	if st.jobs == nil {
		st.jobs = map[string]*replayed{}
	}
	e := st.jobs[r.ID]
	if e == nil {
		e = &replayed{}
		st.jobs[r.ID] = e
	}
	switch {
	case !state.terminal() && e.accept == nil:
		e.accept = &r
		st.order = append(st.order, r.ID)
	case state.terminal() && e.terminal == nil:
		e.terminal = &r
	}
	return nil
}

// recoverFromJournal rebuilds job state from the journal at boot: the
// journal folds through apply and restore installs the result, before
// any worker runs. Replay is truncation-tolerant: a torn final record is
// simply the crash point.
func (s *Server) recoverFromJournal() {
	jl := s.cfg.Journal
	if jl == nil {
		return
	}
	var st replay
	rs, err := journal.Replay(jl.Dir(), st.apply)
	if err != nil {
		log.Printf("abacusd: journal replay failed, starting empty: %v", err)
		return
	}
	s.met.replayedRecords(rs.Records)
	s.met.recoveredJobs(s.restore(&st))
	if rs.Records > 0 {
		s.maybeCompact(true)
	}
}

// restore inverts recordsOf over a fold: terminal jobs come back as they
// ended, with their journaled output and error, and the rest are
// re-enqueued, bypassing the admission bound (they were admitted once).
// Ids an accept names whose request no longer validates are skipped. It
// returns how many jobs it re-enqueued.
func (s *Server) restore(st *replay) int {
	now := time.Now()
	requeued := 0
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range st.order {
		acc, term := st.jobs[id].accept, st.jobs[id].terminal
		var req JobRequest
		if err := json.Unmarshal(acc.Request, &req); err != nil {
			continue
		}
		plan, err := req.Normalize()
		if err != nil {
			continue
		}
		if req.Client == "" {
			req.Client = acc.Client
		}
		var n int64
		if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n > s.nextID {
			s.nextID = n // ids stay unique across restarts
		}
		j := newJob(id, req, acc.Request, plan, s.timeoutFor(&req), unixMilliOr(acc.UnixMilli, now))
		close(j.journaled)
		s.jobs[id] = j
		s.order = append(s.order, id)
		if req.DedupeKey != "" {
			s.dedupe[req.DedupeKey] = id
		}
		if term != nil {
			state, _ := stateOf(term.Kind)
			j.out = term.Output
			j.finalize(state, term.Error, unixMilliOr(term.UnixMilli, now))
			continue
		}
		s.sched.force(j)
		requeued++
	}
	s.retainLocked()
	return requeued
}

// unixMilliOr is the journaled time ms, or def when the record has none.
func unixMilliOr(ms int64, def time.Time) time.Time {
	if ms > 0 {
		return time.UnixMilli(ms)
	}
	return def
}
