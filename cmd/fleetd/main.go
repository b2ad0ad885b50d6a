// Fleetd drives a mixed-workload service fleet through the OCOLOS
// lifecycle — the §V deployment story as a daemon-style batch run. It
// stands up replicas of the database, document-store, and cache
// workloads, scans them, optimizes the selected ones concurrently on
// the manager's worker pool (stop-the-world pauses staggered by the
// global semaphore), and dumps the per-service state report plus the
// full telemetry registry.
//
// Quick mode (the default) runs small-scale workloads with the gate
// skipped so every lifecycle path executes in a couple of seconds;
// -full runs evaluation-scale workloads under the real TopDown gate.
//
// With -serve ADDR the wave runs in the background while an HTTP
// control plane serves GET /metrics (Prometheus text), /services
// (JSON fleet snapshot), /trace?service=X (span tree; &format=jsonl
// for the event journal), /cache (layout-cache hit/miss stats),
// /profile (streaming-profile status; POST ingests external LBR
// batches), and /healthz on ADDR until SIGINT/SIGTERM or, once the
// wave completes, until shut down.
//
// With -drift each service gets a continuous GWP-style sampler feeding
// a bounded profile store, and after the initial wave fleetd keeps
// scanning Steady services for divergence between the live profile and
// the profile their layout was built from (-drift-divergence), driving
// re-optimization waves when a phase change lands (docs/profiling.md).
//
// The manager is sharded (-shards) so status reads never stall the
// wave, and BOLTed layouts are shared across identical replicas
// through the content-addressed layout cache (-no-cache to ablate);
// see docs/fleet.md.
//
// Run with: go run ./cmd/fleetd [-full] [-replicas N] [-rounds N] [-shards N] [-serve :8080]
//
// -record journals the wave's nondeterminism (wall-clock reads, backoff
// jitter, perf deadlines, fault decisions, per-service state-hash
// checkpoints); while recording, the wave is serialized (one worker, one
// pause). -replay re-executes a recorded wave from the journal alone —
// the fleet flags come from the journal's meta header — and requires a
// byte-identical re-recorded journal (docs/replay.md).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/profile"
	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// fleetMeta is the journal meta header: the flag set that rebuilds the
// recorded fleet bit-for-bit.
func fleetMeta(full bool, replicas, rounds, shards int, revertBelow float64, noCache, drift bool, driftDiv float64) []trace.Attr {
	return []trace.Attr{
		trace.String("kind", "fleetd"),
		trace.Bool("full", full),
		trace.Int("replicas", replicas),
		trace.Int("rounds", rounds),
		trace.Int("shards", shards),
		trace.Int("revert_below_bits", int(math.Float64bits(revertBelow))),
		trace.Bool("no_cache", noCache),
		trace.Bool("drift", drift),
		trace.Int("drift_divergence_bits", int(math.Float64bits(driftDiv))),
	}
}

func main() {
	var (
		full        = flag.Bool("full", false, "evaluation-scale workloads and the real TopDown gate")
		replicas    = flag.Int("replicas", 2, "replicas per workload/input pair")
		workers     = flag.Int("workers", 4, "concurrent lifecycle workers")
		maxPauses   = flag.Int("max-pauses", 1, "max simultaneous stop-the-world pauses")
		rounds      = flag.Int("rounds", 2, "max optimization rounds per service")
		shards      = flag.Int("shards", 4, "independent manager lock domains (services are hashed across them)")
		noCache     = flag.Bool("no-cache", false, "disable the content-addressed layout cache (every service runs its own BOLT)")
		revertBelow = flag.Float64("revert-below", 1.0, "revert to C0 below this speedup (0 disables)")
		serve       = flag.String("serve", "", "serve the HTTP control plane on this address (e.g. :8080) while the wave runs")
		drift       = flag.Bool("drift", false, "stream profiles continuously and re-optimize Steady services whose live profile drifts from the layout's build profile")
		driftDiv    = flag.Float64("drift-divergence", 0.35, "total-variation divergence that triggers a drift re-optimization (with -drift)")
		driftEvery  = flag.Duration("drift-every", 250*time.Millisecond, "host-time interval between drift scans in serve mode (with -drift -serve)")
		record      = flag.String("record", "", "write the wave's nondeterminism journal to FILE (JSONL)")
		replayPath  = flag.String("replay", "", "re-execute a recorded wave from FILE (fleet flags are ignored)")
	)
	flag.Parse()

	var sess *replay.Session
	var originalJournal []byte
	if *replayPath != "" {
		var err error
		originalJournal, err = os.ReadFile(*replayPath)
		if err != nil {
			log.Fatal(err)
		}
		events, err := replay.Load(bytes.NewReader(originalJournal))
		if err != nil {
			log.Fatal(err)
		}
		meta, err := replay.MetaOf(events)
		if err != nil {
			log.Fatal(err)
		}
		// The journal header is the configuration of record.
		fAny, _ := meta.Get("full")
		*full, _ = fAny.(bool)
		rp, _ := meta.Int("replicas")
		*replicas = int(rp)
		rd, _ := meta.Int("rounds")
		*rounds = int(rd)
		if sh, ok := meta.Int("shards"); ok {
			*shards = int(sh)
		}
		rb, ok := meta.Int("revert_below_bits")
		if !ok {
			log.Fatal("fleetd: journal meta has no revert_below_bits — not a fleetd recording")
		}
		*revertBelow = math.Float64frombits(uint64(rb))
		if nc, ok := meta.Get("no_cache"); ok {
			*noCache, _ = nc.(bool)
		}
		if d, ok := meta.Get("drift"); ok {
			*drift, _ = d.(bool)
		}
		if db, ok := meta.Int("drift_divergence_bits"); ok {
			*driftDiv = math.Float64frombits(uint64(db))
		}
		if sess, err = replay.NewReplayer(events); err != nil {
			log.Fatal(err)
		}
	} else if *record != "" {
		sess = replay.NewRecorder(0)
	}
	if err := sess.Meta(fleetMeta(*full, *replicas, *rounds, *shards, *revertBelow, *noCache, *drift, *driftDiv)...); err != nil {
		log.Fatal(err)
	}

	// Workload construction is the one shared-state step (binaries are
	// immutable afterwards), so it stays sequential.
	specs := []struct{ name, input string }{
		{"sqldb", "read_only"}, {"docdb", "read_update"}, {"kvcache", "set10_get90"},
	}

	metrics := telemetry.NewRegistry()
	tracer := trace.New(trace.Options{})
	cfg := fleet.Config{
		Workers:   *workers,
		Shards:    *shards,
		MaxPauses: *maxPauses,
		Robustness: fleet.RobustnessConfig{
			MaxRounds:   *rounds,
			RevertBelow: *revertBelow,
		},
		Cache:   fleet.CacheConfig{Disable: *noCache},
		Metrics: metrics,
		Tracer:  tracer,
		Replay:  sess, // an active session forces a serial wave
	}
	if *drift {
		cfg.Drift = fleet.DriftConfig{
			Enabled: true,
			Policy:  profile.ReoptPolicy{MinDivergence: *driftDiv},
		}
	}
	if !*full {
		// Small-scale services: sub-millisecond windows, gate skipped so
		// every service exercises the lifecycle, and the (comparatively
		// huge) pause cost kept off the measured timeline.
		cfg.SkipGate = true
		cfg.Timing = fleet.TimingConfig{ProfileDur: 0.0008, Warm: 0.0003, Window: 0.0004}
	}
	m, err := fleet.NewManager(cfg)
	if err != nil {
		log.Fatal(err)
	}

	for _, sp := range specs {
		w, err := workloads.Build(sp.name, !*full)
		if err != nil {
			log.Fatal(err)
		}
		threads := 2
		if *full {
			threads = 4
		}
		for i := 0; i < *replicas; i++ {
			plan := fleet.ServicePlan{
				Name:     fmt.Sprintf("%s/%s#%d", w.Name, sp.input, i),
				Workload: w,
				Input:    sp.input,
				Threads:  threads,
			}
			if !*full {
				plan.Core = core.Options{NoChargePause: true}
			}
			svc, err := m.AddService(plan)
			if err != nil {
				log.Fatal(err)
			}
			svc.Proc.RunFor(m.Config().Timing.Warm) // services have been up for a while
		}
	}

	fmt.Printf("fleetd: %d services, %d workers, %d shard(s), %d max pause(s), %d round(s) max\n\n",
		len(m.Services()), m.Config().Workers, m.Config().Shards, m.Config().MaxPauses, m.Config().Robustness.MaxRounds)

	var srv *http.Server
	var served <-chan error
	sigs := make(chan os.Signal, 1)
	if *serve != "" {
		srv, served = serveControlPlane(*serve, m, metrics, tracer)
		// Catch shutdown signals from here on: a SIGTERM during the wave
		// is held until the report is out, then honored cleanly.
		signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	}

	t0 := time.Now()
	rep, err := m.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("fleet state report:")
	fleet.WriteStatusTable(os.Stdout, rep)
	fmt.Printf("\nwave completed in %.2fs host time, peak concurrent pauses %d\n",
		time.Since(t0).Seconds(), m.PeakPauses())
	if stats, ok := m.CacheStats(); ok {
		fmt.Printf("layout cache: %d hit(s), %d miss(es), %d coalesced, %d entries (hit rate %.2f)\n",
			stats.Hits, stats.Misses, stats.Coalesced, stats.Entries, stats.HitRate())
	} else {
		fmt.Println("layout cache: disabled")
	}

	if err := finishSession(sess, *record, *replayPath, originalJournal); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\ntelemetry:")
	metrics.WriteReport(os.Stdout)

	if srv != nil {
		if *drift && !sess.Active() {
			// Drift watch: keep scanning the Steady fleet against incoming
			// POST /profile pushes and re-optimize whatever drifted. Not run
			// under record/replay — external pushes arrive over HTTP, which
			// a journal replay cannot re-supply.
			fmt.Printf("\nwave done; drift watch scanning every %v (SIGINT/SIGTERM to stop)\n", *driftEvery)
			watchDrift(m, *driftEvery, sigs, served)
		} else {
			fmt.Println("\nwave done; control plane still serving (SIGINT/SIGTERM to stop)")
			select {
			case sig := <-sigs:
				fmt.Printf("fleetd: %v, shutting down\n", sig)
			case err := <-served:
				log.Fatalf("fleetd: control plane: %v", err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("fleetd: shutdown: %v", err)
		}
	}
}

// watchDrift is fleetd's steady-state loop: every tick it runs a drift
// scan and, when any service's verdict fired, drives a re-optimization
// wave over the triggered set. Returns on SIGINT/SIGTERM.
func watchDrift(m *fleet.Manager, every time.Duration, sigs <-chan os.Signal, served <-chan error) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case sig := <-sigs:
			fmt.Printf("fleetd: %v, shutting down\n", sig)
			return
		case err := <-served:
			log.Fatalf("fleetd: control plane: %v", err)
		case <-tick.C:
			scan := m.Scan(fleet.ScanOptions{Drift: true})
			triggered := 0
			for _, r := range scan {
				if r.Optimize {
					triggered++
				}
			}
			if triggered == 0 {
				continue
			}
			fmt.Printf("fleetd: drift on %d service(s) (top score %.3f); re-optimizing\n",
				triggered, scan[0].DriftScore)
			m.Optimize(scan, fleet.WaveOptions{})
		}
	}
}

// finishSession validates the wave's session and either writes the
// recording or verifies the replay re-recorded byte-identically.
func finishSession(sess *replay.Session, recordPath, replayPath string, original []byte) error {
	if !sess.Active() {
		return nil
	}
	if err := sess.Finish(); err != nil {
		return err
	}
	if recordPath != "" {
		f, err := os.Create(recordPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := sess.WriteJSONL(f); err != nil {
			return err
		}
		fmt.Printf("\nrecorded %d events to %s\n", len(sess.Events()), recordPath)
		return nil
	}
	var rerecorded bytes.Buffer
	if err := sess.WriteJSONL(&rerecorded); err != nil {
		return err
	}
	if !bytes.Equal(original, rerecorded.Bytes()) {
		return fmt.Errorf("replay verified all checkpoints but re-recorded journal is not byte-identical (%d vs %d bytes)",
			len(original), rerecorded.Len())
	}
	fmt.Printf("\nreplay OK: %d events re-executed bit-identically from %s\n", sess.Journal().Len(), replayPath)
	return nil
}

// serveControlPlane binds addr (which may be :0 for an ephemeral port),
// prints the resolved address for scrapers to parse, and serves the
// fleet control plane in the background. The returned channel delivers
// a serve error, if any.
func serveControlPlane(addr string, m *fleet.Manager, metrics *telemetry.Registry, tracer *trace.Tracer) (*http.Server, <-chan error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("fleetd: listen %s: %v", addr, err)
	}
	srv := &http.Server{Handler: fleet.NewControlPlane(m, metrics, tracer).Handler()}
	fmt.Printf("fleetd: serving control plane on http://%s\n", ln.Addr())
	served := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			served <- err
		}
	}()
	return srv, served
}
