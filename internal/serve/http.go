// HTTP surface: submit/poll/fetch endpoints plus the health and metrics
// probes. The API is deliberately plain JSON over five routes —
//
//	POST   /jobs             submit a JobRequest  -> 202 JobStatus
//	                         (kind "build" compiles an app; kind "debloat"
//	                         rewrites an existing oat payload, removing
//	                         code unreachable from the requested roots)
//	GET    /jobs/{id}        poll (``?wait=5s`` long-polls until terminal)
//	DELETE /jobs/{id}        cancel
//	GET    /jobs/{id}/image  fetch the linked OAT image bytes
//	GET    /jobs/{id}/stats  fetch the Table-6-style JobStats
//	GET    /jobs/{id}/lint   fetch the lint findings (when requested)
//	GET    /jobs/{id}/trace  fetch the job's lifecycle and build spans (Chrome JSON)
//	GET    /healthz          liveness + drain state
//	GET    /metrics          Metrics JSON (?format=prom for Prometheus text)
//
// Backpressure is visible at the edge: a full queue answers 429 with a
// Retry-After hint, a draining server answers 503, an oversized body 413.

package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"
)

// Handler returns the daemon's HTTP handler. When Config.Log is set,
// every request additionally emits one http_access event after its
// response is written.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/image", s.handleImage)
	mux.HandleFunc("GET /jobs/{id}/stats", s.handleStats)
	mux.HandleFunc("GET /jobs/{id}/lint", s.handleLint)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.Log == nil {
		return mux
	}
	return s.accessLog(mux)
}

// statusWriter remembers the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// accessLog wraps the mux with one JSON access line per request. It runs
// after the response is committed and reads nothing the handler didn't
// already compute — logging observes, it never steers.
func (s *Server) accessLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		s.cfg.Log.Log("http_access", map[string]any{
			"method": r.Method, "path": r.URL.Path, "status": sw.status,
			"dur_us": time.Since(start).Microseconds(),
		})
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

// apiError is the error body every non-2xx JSON response carries.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, apiError{Error: msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	// A misspelled or retired field would otherwise build a default the
	// client never asked for, and data after the object would be ignored.
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		err = atEnd(dec)
	}
	if err != nil {
		s.invalid.Add(1)
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body over limit: "+err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	j, err := s.submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		// The Retry-After hint is the queue's drain horizon, crudely: one
		// second is the right order of magnitude for per-job build times
		// at reproduction scale.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		s.invalid.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// atEnd requires the decoder to have consumed the whole body but for
// whitespace: one JSON object per submit.
func atEnd(dec *json.Decoder) error {
	_, err := dec.Token()
	switch {
	case err == io.EOF:
		return nil
	case errors.As(err, new(*http.MaxBytesError)):
		return err
	}
	return errors.New("data after the JSON object")
}

// jobFromPath resolves the {id} path segment, answering the 404 itself.
func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*job, bool) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	if wq := r.URL.Query().Get("wait"); wq != "" {
		d, err := time.ParseDuration(wq)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad wait duration: "+err.Error())
			return
		}
		// Long poll: return early on terminal state, at the cap, or when
		// the client goes away — whichever comes first.
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-j.doneCh:
		case <-t.C:
		case <-r.Context().Done():
		}
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	s.cancelJob(j)
	writeJSON(w, http.StatusOK, j.status())
}

// requireDone gates the fetch endpoints: 409 until the job is done, with
// the job's own error in the body when it terminally failed.
func requireDone(w http.ResponseWriter, j *job) bool {
	j.mu.Lock()
	state, errMsg := j.state, j.errMsg
	j.mu.Unlock()
	if state == StateDone {
		return true
	}
	msg := "job is " + state
	if errMsg != "" {
		msg += ": " + errMsg
	}
	writeError(w, http.StatusConflict, msg)
	return false
}

func (s *Server) handleImage(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok || !requireDone(w, j) {
		return
	}
	j.mu.Lock()
	image := j.image
	j.mu.Unlock()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(image) //nolint:errcheck // client disconnects are not server errors
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok || !requireDone(w, j) {
		return
	}
	j.mu.Lock()
	stats := j.stats
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, stats)
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok || !requireDone(w, j) {
		return
	}
	j.mu.Lock()
	lint := j.lint
	requested := j.req.Lint
	j.mu.Unlock()
	if !requested {
		writeError(w, http.StatusConflict, "job was submitted without lint: true")
		return
	}
	out := make([]FindingJSON, 0, len(lint))
	for _, f := range lint {
		out = append(out, FindingJSON{
			Severity: f.Severity.String(),
			Method:   int(f.Method),
			Off:      f.Off,
			Rule:     f.Rule,
			Msg:      f.Msg,
			Text:     f.String(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// Health is the /healthz body.
type Health struct {
	Status string `json:"status"` // "ok" or "draining"
	Jobs   int    `json:"jobs"`   // jobs known to the registry
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{Status: "ok"}
	if s.Draining() {
		h.Status = "draining"
	}
	s.mu.Lock()
	h.Jobs = len(s.jobs)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, h)
}

// handleTrace serves the job's own tracer as Chrome trace-event JSON —
// its lifecycle spans and every stage and task span of its build, in the
// format the build-level -trace flag emits, so one viewer (Perfetto,
// chrome://tracing) opens both. Spans still open (a running job's
// phase) appear once they end.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	j.tr.WriteTrace(w) //nolint:errcheck // response committed
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, s.Metrics())
	case "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WritePrometheus(w) //nolint:errcheck // response committed
	default:
		writeError(w, http.StatusBadRequest, "unknown metrics format "+format)
	}
}
