package server

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"repro/internal/obs"
)

// DebugHandler serves the process-introspection surface: the standard
// net/http/pprof endpoints, the flight recorder, and the SLO tracker.
// It is deliberately not part of Handler() — cmd/lsmsd mounts it on a
// separate listener (-debug-addr) so profiling and trace dumps are
// never reachable from the public compile port.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/flightrecorder", s.handleFlightRecorder)
	mux.HandleFunc("GET /debug/slo", s.handleSLO)
	return mux
}

// handleFlightRecorder dumps the last-N compile traces, newest last,
// including the event tail retained for failed and degraded runs.
// ?trace=<32-hex-trace-id> narrows the dump to the entries belonging to
// one W3C trace — the "what did this request do on this node" query.
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if id := r.URL.Query().Get("trace"); id != "" {
		s.flight.WriteJSONFilter(w, func(t *obs.Trace) bool {
			return t.Ctx.TraceID.String() == id
		})
		return
	}
	s.flight.WriteJSON(w)
}

// handleSLO serves the SLO tracker's full state: both windows' counts
// and burn rates, the configured objectives and threshold, and the
// current readiness verdict.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	ready, reason := s.ready()
	out := struct {
		obs.SLOSnapshot
		BurnThreshold float64 `json:"burn_threshold"`
		Ready         bool    `json:"ready"`
		Reason        string  `json:"reason"`
	}{s.slo.Snapshot(), s.cfg.SLOBurnThreshold, ready, reason}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
