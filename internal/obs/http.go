package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// newMux builds the scrape endpoint catalogue:
//
//	/metrics      Prometheus text exposition (WriteMetrics over src)
//	/healthz      JSON liveness summary; 503 once any worker is dead
//	/trace        the trace ring as JSONL, oldest retained event first
//	/debug/pprof  the standard Go profiling handlers
func newMux(src Source) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteMetrics(w, src)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var alive []bool
		if src.Alive != nil {
			alive = src.Alive()
		}
		up, total := 0, len(alive)
		for _, ok := range alive {
			if ok {
				up++
			}
		}
		rejoining := 0
		if src.Rejoining != nil {
			rejoining = src.Rejoining()
		}
		status := "ok"
		code := http.StatusOK
		if up < total {
			// Down and coming back are different operator stories: a worker
			// with a parked rejoin connection is re-admitted at the next
			// step boundary.
			status = "degraded"
			if rejoining > 0 {
				status = "rejoining"
			}
			code = http.StatusServiceUnavailable
		}
		w.WriteHeader(code)
		_, _ = fmt.Fprintf(w, `{"status":%q,"workers":%d,"alive":%d,"rejoining":%d}`+"\n", status, total, up, rejoining)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if src.Handle == nil {
			return
		}
		_ = src.Handle.Trace.writeJSONL(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running scrape endpoint.
type Server struct {
	// Addr is the bound address (useful with a ":0" listen spec).
	Addr string

	srv *http.Server
	ln  net.Listener
}

// Serve binds addr and serves the scrape endpoints in the background.
// Pass the velamaster/velaworker -metrics-addr value; ":0" picks a free
// port (read Server.Addr for the actual one).
func Serve(addr string, src Source) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: newMux(src), ReadHeaderTimeout: 5 * time.Second}
	//lint:ignore goleak metrics serve loop: returns when Server.Close tears the listener down, not via a channel
	go func() {
		// Serve returns ErrServerClosed on Close; any earlier error means
		// the listener died, which the process tolerates (metrics are
		// best-effort).
		_ = srv.Serve(ln)
	}()
	return &Server{Addr: ln.Addr().String(), srv: srv, ln: ln}, nil
}

// Close stops the server immediately.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
