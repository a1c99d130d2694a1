// Command velaworker runs one Expert Manager process: it listens for the
// master's connection, receives its expert shard, serves forward/backward
// requests, and applies local optimizer steps — the worker role of VELA's
// master-worker architecture (Fig. 4 of the paper).
//
// Usage:
//
//	velaworker -listen 127.0.0.1:7001 -id 0
//
// The process exits cleanly when the master sends a shutdown message, or
// on SIGINT/SIGTERM: the signal closes the listener and the connection,
// the serve loop drains its in-flight compute, and the process exits 0.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/broker"
	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/transport"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "address to listen on")
	id := flag.Int("id", 0, "worker id (diagnostics only)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (empty disables)")
	traceCapacity := flag.Int("trace-capacity", 0, "trace-ring capacity in events (0 = default 4096; size it to hold at least one step between the master's MsgTraceFetch pulls)")
	baseDir := flag.String("base-dir", checkpoint.DefaultBaseDir(), "host-local store of frozen expert bases, read by keyed installs and filled by every base the master ships; used only if private to this user (mode 0700); empty disables it, and installs of experts not hosted here miss")
	flag.Parse()

	l, err := transport.Listen(*listen)
	if err != nil {
		log.Fatalf("velaworker: %v", err)
	}
	defer l.Close()
	fmt.Printf("velaworker %d listening on %s\n", *id, l.Addr())

	// The worker-side handle records per-expert compute timing (indexed by
	// this worker's own ID) and frame-size histograms off the metered
	// connection.
	handle := obs.NewHandle(obs.Config{Workers: *id + 1, TraceCapacity: *traceCapacity})
	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, obs.Source{Handle: handle})
		if err != nil {
			log.Fatalf("velaworker: %v", err)
		}
		defer srv.Close()
		fmt.Printf("velaworker %d metrics on http://%s/metrics\n", *id, srv.Addr)
	}

	// Graceful shutdown: the signal handler severs the listener and the
	// active connection; Serve then drains in-flight requests and
	// returns, and the closed-connection error is treated as a clean
	// exit rather than a failure.
	var interrupted atomic.Bool
	var connMu sync.Mutex
	var conn transport.Conn
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	//lint:ignore goleak signal watcher: parked on the OS signal channel until SIGINT/SIGTERM or process exit
	go func() {
		s := <-sig
		interrupted.Store(true)
		fmt.Printf("velaworker %d: %v — draining and shutting down\n", *id, s)
		_ = l.Close()
		connMu.Lock()
		if conn != nil {
			_ = conn.Close()
		}
		connMu.Unlock()
	}()

	wcfg := broker.DefaultWorkerConfig()
	wcfg.Obs = handle
	wcfg.BaseDir = *baseDir

	// Serve masters in a re-accept loop: when the connection drops (a
	// crashed master, a network fault), the worker goes back to the
	// listener and waits for the master — resumed from its run-level
	// checkpoint, or redialing a rejoin — to connect again. Each
	// connection gets a FRESH Worker: a reconnecting master always
	// re-provisions expert state itself (RestoreExperts on resume, the
	// replace controller's migrate-back after a rejoin), so stale local
	// state must not survive the connection.
	for {
		c, err := l.Accept()
		if err != nil {
			if interrupted.Load() {
				fmt.Printf("velaworker %d: shut down while awaiting a master\n", *id)
				return
			}
			log.Fatalf("velaworker: accept: %v", err)
		}
		connMu.Lock()
		conn = c
		connMu.Unlock()

		w := broker.NewWorker(*id, wcfg)
		err = w.Serve(transport.WithMeter(c, handle))
		connMu.Lock()
		conn = nil
		connMu.Unlock()
		_ = c.Close()
		if err == nil {
			// MsgShutdown: the master ended the run.
			fmt.Printf("velaworker %d: clean shutdown after hosting %d experts\n", *id, w.NumExperts())
			return
		}
		if interrupted.Load() {
			if errors.Is(err, transport.ErrClosed) {
				fmt.Printf("velaworker %d: drained and shut down after hosting %d experts\n", *id, w.NumExperts())
			} else {
				fmt.Printf("velaworker %d: shut down (%v) after hosting %d experts\n", *id, err, w.NumExperts())
			}
			return
		}
		fmt.Printf("velaworker %d: connection lost (%v) after hosting %d experts — awaiting reconnect\n",
			*id, err, w.NumExperts())
	}
}
