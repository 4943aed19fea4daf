// Command hetserved is the matchmaking daemon: it serves the
// internal/service HTTP API (/v1/matchmake, /v1/plan, /v1/execute,
// /v1/calibrate, /v1/apps, /v1/strategies, /v1/platforms) alongside
// the live telemetry surface
// (/metrics, /healthz, /spans, /runs, /debug/pprof) on one address.
//
//	hetserved -addr :8080 -workers 8
//
// SIGINT/SIGTERM drains: the listener closes, in-flight requests get
// up to -drain to finish, then remaining flights are canceled.
//
// Requests may carry a "fault" schedule (deterministic chaos testing,
// DESIGN.md §12) only when the daemon was started with -allow-faults;
// otherwise such requests are rejected with 400.
//
// With -loadtest the daemon instead serves itself: it binds an
// ephemeral loopback port, fans -clients concurrent clients over a
// small mix of matchmake requests, honours 429 backpressure, and
// reports latency quantiles plus the coalescing hit rate.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"heteropart"
	"heteropart/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 4, "concurrently executing flights")
		queue    = flag.Int("queue", 0, "admission queue depth (0 = 4*workers)")
		timeout  = flag.Duration("timeout", 2*time.Minute, "default per-request deadline")
		drain    = flag.Duration("drain", 30*time.Second, "shutdown drain budget")
		spans    = flag.Bool("spans", false, "record request/run spans (unbounded memory; debugging only)")
		faults   = flag.Bool("allow-faults", false, "admit requests carrying a fault schedule (chaos testing; see DESIGN.md §12)")
		loadtest = flag.Bool("loadtest", false, "run the self-load test instead of serving")
		clients  = flag.Int("clients", 64, "loadtest: concurrent clients")
		requests = flag.Int("requests", 256, "loadtest: total requests")
	)
	flag.Parse()

	reg := heteropart.NewMetrics()
	var tracer *heteropart.SpanTracer
	if *spans {
		tracer = heteropart.NewSpanTracer()
	}
	svc := service.New(service.Config{
		Workers: *workers, Queue: *queue, DefaultTimeout: *timeout,
		Metrics: reg, Spans: tracer, AllowFaults: *faults,
	})

	if *loadtest {
		os.Exit(runLoadtest(svc, reg, *clients, *requests))
	}

	// One mux, two surfaces: the /v1 API plus PR 6's telemetry server
	// (metrics, spans, flight recordings, pprof) for everything else.
	tel := heteropart.NewTelemetryServer(heteropart.TelemetryConfig{Metrics: reg, Spans: tracer})
	mux := http.NewServeMux()
	mux.Handle("/v1/", svc.Handler())
	mux.Handle("/", tel.Handler())
	srv := newServer(*addr, mux)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("hetserved: listening on %s (workers=%d queue=%d)", *addr, *workers, *queue)

	select {
	case err := <-errc:
		log.Fatalf("hetserved: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	log.Printf("hetserved: draining in-flight requests (up to %s)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("hetserved: drain incomplete: %v", err)
	}
	svc.Close()
	log.Printf("hetserved: stopped")
}

// Connection limits: a client must send its request headers within
// readHeaderTimeout, and an idle keep-alive connection is closed after
// idleTimeout. Request work is bounded by the request's own deadline.
const readHeaderTimeout, idleTimeout = 10 * time.Second, 2 * time.Minute

func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// loadtestMix is the request mix the self-load test cycles through:
// small problem sizes (the point is serving behaviour, not simulation
// scale) across several apps, so distinct flights exist but every body
// repeats across clients and coalescing must hit.
var loadtestMix = []string{
	`{"app":"BlackScholes","n":16384}`,
	`{"app":"STREAM-Seq","n":16384}`,
	`{"app":"HotSpot","n":4096,"iters":4}`,
	`{"app":"MatrixMul","n":128}`,
	`{"app":"BlackScholes","n":16384,"strategy":"SP-Single"}`,
	`{"app":"STREAM-Loop","n":16384,"iters":4}`,
	`{"app":"Nbody","n":1024,"iters":2}`,
	`{"app":"Convolution","n":16384}`,
}

// runLoadtest drives the service over real HTTP on a loopback
// listener and prints a latency/coalescing report. Returns the
// process exit code (non-zero when any request failed).
func runLoadtest(svc *service.Service, reg *heteropart.Metrics, clients, total int) int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Printf("loadtest: listen: %v", err)
		return 1
	}
	srv := newServer("", svc.Handler())
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()

	if clients < 1 {
		clients = 1
	}
	if total < clients {
		total = clients
	}
	perClient := total / clients
	log.Printf("loadtest: %d clients x %d requests against %s", clients, perClient, base)

	var (
		mu        sync.Mutex
		latencies []time.Duration
		failed    int
		retries   int
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Minute}
			for i := 0; i < perClient; i++ {
				body := loadtestMix[(c+i)%len(loadtestMix)]
				t0 := time.Now()
				status, nretry, err := post(client, base+"/v1/matchmake", body)
				lat := time.Since(t0)
				mu.Lock()
				latencies = append(latencies, lat)
				retries += nretry
				if err != nil || status != http.StatusOK {
					failed++
					log.Printf("loadtest: client %d req %d: status=%d err=%v", c, i, status, err)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	q := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	hits, misses := counterValue(reg, "service_coalesce_hits_total"), counterValue(reg, "service_coalesce_misses_total")
	rate := 0.0
	if hits+misses > 0 {
		rate = hits / (hits + misses)
	}
	fmt.Printf("loadtest: %d requests in %v (%.1f req/s), %d failed, %d backpressure retries\n",
		len(latencies), wall.Round(time.Millisecond),
		float64(len(latencies))/wall.Seconds(), failed, retries)
	fmt.Printf("loadtest: latency p50=%v p95=%v p99=%v\n",
		q(0.50).Round(time.Microsecond), q(0.95).Round(time.Microsecond), q(0.99).Round(time.Microsecond))
	fmt.Printf("loadtest: coalescing hits=%d misses=%d hit-rate=%.0f%%, rejected=%d\n",
		int64(hits), int64(misses), 100*rate, int64(counterValue(reg, "service_rejected_total")))

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(sctx)
	svc.Close()
	if failed > 0 {
		return 1
	}
	return 0
}

// post sends one request, sleeping and retrying on 429 (honouring
// Retry-After) so backpressure sheds load without failing the test.
func post(client *http.Client, url, body string) (status, retries int, err error) {
	for {
		resp, err := client.Post(url, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			return 0, retries, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			return resp.StatusCode, retries, nil
		}
		retries++
		after := 1
		if v := resp.Header.Get("Retry-After"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				after = n
			}
		}
		// Scaled down: the hint is in seconds, but the simulated runs
		// behind the queue finish in milliseconds.
		time.Sleep(time.Duration(after) * 50 * time.Millisecond)
	}
}

func counterValue(reg *heteropart.Metrics, name string) float64 {
	for _, p := range reg.Snapshot(0).Points {
		if p.Name == name {
			return p.Value
		}
	}
	return 0
}
