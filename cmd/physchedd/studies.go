package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"physched/internal/opt"
)

// planStudy parses and fully validates one study request body, returning
// the HTTP status to report on failure. The budget is bounded by
// -max-cells: a study charges at most budget cells, so the same knob
// that caps grids caps searches.
func (s *server) planStudy(body io.Reader) (*opt.Prepared, int, error) {
	st, err := opt.Parse(body)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	prep, err := st.Prepare() // validates, normalises, hashes, enumerates
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	if s.maxCells > 0 && prep.Study.Search.BudgetCells > s.maxCells {
		return nil, http.StatusUnprocessableEntity,
			fmt.Errorf("study budget is %d cells, limit is %d", prep.Study.Search.BudgetCells, s.maxCells)
	}
	return prep, 0, nil
}

// runStudy executes the prepared study on the server's shared pool under
// ctx, calling emit sequentially with every NDJSON line: progress lines,
// then exactly one study or error line. Candidate evaluations read and feed
// the server's content-addressed cache, so a re-POSTed study re-simulates
// nothing; the finished report is additionally retained in memory for
// GET /v1/studies/{hash}. A failed emit (disconnected client) stops
// further writes without aborting the search — cancelling is ctx's job.
func (s *server) runStudy(ctx context.Context, prep *opt.Prepared, emit func(any) error) {
	// Channel slack: successive halving re-reads each rung's earlier
	// replications, so the executed cell count exceeds the budget by at
	// most a factor of eta/(eta-1) ≤ 2.
	streamExec(2*prep.Study.Search.BudgetCells+64, func(progress func(progressLine)) (*opt.Report, error) {
		return prep.Run(opt.Options{
			Pool:    s.pool,
			Context: ctx,
			Cache:   s.cache,
			Progress: func(u opt.Progress) {
				progress(progressLine{
					Type: "progress", Done: u.Done, Total: u.Total,
					Label: u.Label, Seed: u.Seed,
					Overloaded: u.Overloaded, FromCache: u.FromCache,
				})
			},
		})
	}, func(report *opt.Report) any {
		s.studies.put(prep.Hash, report)
		return studyLine{Type: "study", StudyHash: prep.Hash, Report: report}
	}, emit)
}

// handleStudyReport serves a finished study's report by its study hash.
func (s *server) handleStudyReport(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	report, ok := s.studies.get(hash)
	if !ok {
		writeError(w, http.StatusNotFound,
			errors.New("no report for this study hash (reports are retained in memory; re-POST the study — a warm cache re-simulates nothing)"))
		return
	}
	writeJSON(w, http.StatusOK, studyLine{Type: "study", StudyHash: hash, Report: report})
}

// handleStudyList lists retained study reports as one-line summaries,
// paginated like every other listing. The full report stays one GET
// /v1/studies/{hash} away.
func (s *server) handleStudyList(w http.ResponseWriter, r *http.Request) {
	page, size, err := parsePage(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	summaries, info := paginate(s.studies.list(), page, size)
	writeJSON(w, http.StatusOK, studyList{Studies: summaries, PageInfo: info})
}

// reportStore retains finished study reports by hash with bounded,
// oldest-first eviction. Reports are small (a leaderboard, a trajectory)
// and rebuildable at cache speed, so memory retention suffices.
type reportStore struct {
	mu      sync.Mutex
	max     int
	m       map[string]*opt.Report
	order   []string
	evicted uint64 // reports dropped by retention, for /metrics
}

func newReportStore(max int) *reportStore {
	return &reportStore{max: max, m: map[string]*opt.Report{}}
}

func (r *reportStore) put(hash string, rep *opt.Report) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[hash]; !ok {
		r.order = append(r.order, hash)
	}
	r.m[hash] = rep
	for len(r.order) > r.max {
		delete(r.m, r.order[0])
		r.order = r.order[1:]
		r.evicted++
	}
}

func (r *reportStore) get(hash string) (*opt.Report, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep, ok := r.m[hash]
	return rep, ok
}

// list summarises retained reports, sorted by hash so pagination is
// stable regardless of completion order.
func (r *reportStore) list() []studySummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]studySummary, 0, len(r.m))
	for hash, rep := range r.m {
		sum := studySummary{
			Hash:           hash,
			Algorithm:      rep.Algorithm,
			Budget:         rep.Budget,
			EvaluatedCells: rep.EvaluatedCells,
		}
		if rep.Best != nil {
			v := rep.Best.Value
			sum.BestValue = &v
		}
		out = append(out, sum)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Hash < out[b].Hash })
	return out
}

// stats snapshots retention counters for /metrics.
func (r *reportStore) stats() (held int, evicted uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m), r.evicted
}
