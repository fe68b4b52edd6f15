package obs

import (
	"fmt"
	"net/http"
	"strings"
)

// Handler returns the ops HTTP surface over a registry, a trace ring and a
// slow-query log (any of which may be nil — the endpoint then serves its
// empty form):
//
//	/metrics        Prometheus text exposition of the registry
//	/debug/vars     the registry as one JSON object (the expvar convention)
//	/debug/queries  recent traces from the ring + slow-query entries
//
// /debug/queries renders durations by default (it is a live endpoint);
// ?live=0 switches to the deterministic counts-only rendering golden tests
// pin. The handler is stateless — it spawns no goroutines and holds no
// connection state beyond the request — so it can be mounted in any server
// mux (soxq -ops, soxqd).
func Handler(reg *Registry, ring *TraceRing, slow *SlowLog) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, r *http.Request) {
		live := r.URL.Query().Get("live") != "0"
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		var sb strings.Builder
		traces := ring.Snapshot()
		fmt.Fprintf(&sb, "# recent traces (%d)\n", len(traces))
		for _, t := range traces {
			sb.WriteString(t.Render(live))
		}
		entries := slow.Snapshot()
		fmt.Fprintf(&sb, "# slow queries (%d)\n", len(entries))
		sb.WriteString(RenderEntries(entries, live))
		_, _ = w.Write([]byte(sb.String()))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = fmt.Fprint(w, "soxq ops endpoints:\n  /metrics\n  /debug/vars\n  /debug/queries\n")
	})
	return mux
}
