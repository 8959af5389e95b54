package rest

import (
	"encoding/json"
	"net/http"
	"time"

	"xdmodfed/internal/auth"
	"xdmodfed/internal/realm/alloc"
	"xdmodfed/internal/realm/gateway"
)

// Allocations and Science Gateways endpoints: award management and
// burn-rate reporting for funding stakeholders (paper §I-A), and
// portal-user attribution for gateway jobs.

// registerRealmExtraHandlers adds the allocation + gateway routes.
func (s *Server) registerRealmExtraHandlers(mux *http.ServeMux) {
	s.handle(mux, "POST /api/allocations", s.requireRole(auth.RoleManager, s.handleAddAllocation))
	s.handle(mux, "POST /api/allocations/charge", s.requireRole(auth.RoleManager, s.handleChargeAllocations))
	s.handle(mux, "GET /api/allocations/{project}", s.requireAuth(s.handleAllocationBalance))
	s.handle(mux, "GET /api/allocations/overspent", s.requireAuth(s.handleOverspent))
	s.handle(mux, "POST /api/gateways/submissions", s.requireRole(auth.RoleStaff, s.handleGatewaySubmissions))
	s.handle(mux, "GET /api/gateways/users", s.requireAuth(s.handleGatewayUsers))
}

type allocationRequest struct {
	Project string    `json:"project"`
	Award   float64   `json:"award_xdsu"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
}

func (s *Server) handleAddAllocation(w http.ResponseWriter, r *http.Request, _ auth.Session) {
	var req allocationRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	err := alloc.AddAllocation(s.Instance.DB, alloc.Allocation{
		Project: req.Project, Award: req.Award, Start: req.Start, End: req.End,
	})
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"project": req.Project})
}

func (s *Server) handleChargeAllocations(w http.ResponseWriter, r *http.Request, _ auth.Session) {
	st, err := s.Instance.Pipeline.ChargeAllocations()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"charged_jobs": st.Parsed})
}

type balanceResponse struct {
	Project             string    `json:"project"`
	Award               float64   `json:"award_xdsu"`
	Charged             float64   `json:"charged_xdsu"`
	Remaining           float64   `json:"remaining_xdsu"`
	BurnPerDay          float64   `json:"burn_xdsu_per_day"`
	ProjectedExhaustion time.Time `json:"projected_exhaustion,omitempty"`
}

func (s *Server) handleAllocationBalance(w http.ResponseWriter, r *http.Request, _ auth.Session) {
	b, err := alloc.ProjectBalance(s.Instance.DB, r.PathValue("project"), time.Now())
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, balanceResponse{
		Project: b.Project, Award: b.Award, Charged: b.Charged, Remaining: b.Remaining,
		BurnPerDay: b.BurnPerDay, ProjectedExhaustion: b.ProjectedExhaustion,
	})
}

func (s *Server) handleOverspent(w http.ResponseWriter, r *http.Request, _ auth.Session) {
	over, err := alloc.OverspentProjects(s.Instance.DB, time.Now())
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	out := make([]balanceResponse, 0, len(over))
	for _, b := range over {
		out = append(out, balanceResponse{
			Project: b.Project, Award: b.Award, Charged: b.Charged, Remaining: b.Remaining,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

type gatewaySubmissionRequest struct {
	Gateway    string    `json:"gateway"`
	PortalUser string    `json:"portal_user"`
	Resource   string    `json:"resource"`
	JobID      int64     `json:"job_id"`
	Submitted  time.Time `json:"submitted"`
}

func (s *Server) handleGatewaySubmissions(w http.ResponseWriter, r *http.Request, _ auth.Session) {
	var reqs []gatewaySubmissionRequest
	if err := json.NewDecoder(r.Body).Decode(&reqs); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	subs := make([]gateway.Submission, 0, len(reqs))
	for _, q := range reqs {
		subs = append(subs, gateway.Submission{
			Gateway: q.Gateway, PortalUser: q.PortalUser,
			Resource: q.Resource, JobID: q.JobID, Submitted: q.Submitted,
		})
	}
	_, matched, err := s.Instance.Pipeline.AttributeGatewayJobs(subs)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"recorded": len(subs), "matched_jobs": matched})
}

func (s *Server) handleGatewayUsers(w http.ResponseWriter, r *http.Request, _ auth.Session) {
	users, err := gateway.CommunityUsers(s.Instance.DB)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, users)
}
