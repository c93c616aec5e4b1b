// Command saged is the SAGE control-plane daemon: it owns one simulated
// world and serves the versioned /api/v1 HTTP surface for submitting,
// inspecting, pausing, resuming and cancelling jobs while the simulation
// runs, plus /metrics (Prometheus) and an append-only JSONL audit log.
//
//	saged -addr :8080 -audit audit.jsonl
//	curl -X POST -d @examples/multijob/jobs.json localhost:8080/api/v1/jobs
//	curl localhost:8080/api/v1/jobs
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sage/internal/daemon"
)

const (
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers.
	readHeaderTimeout = 10 * time.Second
	// shutdownGrace is how long a stopping saged waits for in-flight
	// requests.
	shutdownGrace = 5 * time.Second
)

func main() {
	addr := flag.String("addr", "localhost:7600", "HTTP listen address (use :0 for a random port)")
	audit := flag.String("audit", "", "append-only JSONL audit log path (empty: no audit)")
	speed := flag.Float64("speed", 0, "virtual seconds advanced per wall second (0: unlimited)")
	quantum := flag.Duration("quantum", time.Second, "virtual-time slice between API safe points")
	paused := flag.Bool("paused", false, "start with the virtual clock paused")
	flag.Parse()

	opt := daemon.Options{Speed: *speed, Quantum: *quantum, StartPaused: *paused}
	var auditFile *os.File
	if *audit != "" {
		f, err := os.OpenFile(*audit, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "saged: %v\n", err)
			os.Exit(1)
		}
		auditFile = f
		opt.Audit = f
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saged: %v\n", err)
		os.Exit(1)
	}
	d := daemon.New(opt)
	srv := &http.Server{Handler: d.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	fmt.Printf("saged: listening on http://%s\n", ln.Addr())

	errC := make(chan error, 1)
	go func() { errC <- srv.Serve(ln) }()

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	failed := false
	select {
	case sig := <-sigC:
		fmt.Printf("saged: %v, shutting down\n", sig)
	case err := <-errC:
		fmt.Fprintf(os.Stderr, "saged: %v\n", err)
		failed = true
	}
	// Let in-flight requests finish; a request still waiting for the driver
	// when the grace period ends is cut off.
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
	cancel()
	if err := d.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "saged: %v\n", err)
		failed = true
	}
	if auditFile != nil {
		if err := auditFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "saged: audit log: %v\n", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
