// Command sccserve serves a sharded SCC key-value store over TCP.
//
//	sccserve -addr :7070 -shards 16 -mode scc-2s -concurrency 64
//	sccserve -addr :7070 -shards 16 -data-dir ./data -fsync group
//	sccserve -addr :7071 -shards 16 -replica-of 127.0.0.1:7070
//	sccserve -addr :7071 -replica-of 127.0.0.1:7070 \
//	  -cluster-self 127.0.0.1:7071 -cluster-peers 127.0.0.1:7070,127.0.0.1:7072
//
// The store hash-partitions keys across independent SCC engines behind a
// value-cognizant admission queue. A primary (default) keeps its node's
// commit log and serves REPL/ACK replication subscriptions; started with
// -replica-of it becomes a read replica: it bootstraps from a SNAP
// snapshot (a durable replica restarts from <data-dir>/replica.resume
// instead), streams the primary's commit log into its own store, and
// serves snapshot reads, shedding reads whose value functions would cross
// zero before it catches up. With -data-dir the server is durable: every
// commit is written to the node WAL before it is acknowledged (fsync
// policy per -fsync), shards are checkpointed highest-pending-value
// first, and a restart recovers checkpoint + WAL suffix — a SIGKILL
// loses nothing acknowledged.
//
// With -cluster-self and -cluster-peers the server joins the failover
// monitor: replicas heartbeat the primary and, when the lease expires,
// the most-caught-up replica promotes itself under a freshly minted
// fencing epoch and the other replicas re-point their streams at it; a
// deposed primary fences itself (dumping its flight ring like a WAL
// failure) and redirects clients to the new primary via ERR
// not-primary. -repl-sync makes the primary semi-synchronous: each
// OK is held until a replica acked the commit's log records, degrading
// to async past -repl-sync-timeout.
//
// See docs/PROTOCOL.md for the wire protocol
// and docs/ARCHITECTURE.md for the system layout; cmd/sccload is the
// matching load generator.
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the -metrics-addr mux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/server"
)

// parseLogLevel maps the -log-level flag onto a slog.Level.
func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", s)
}

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	shards := flag.Int("shards", 16, "number of store partitions")
	mode := flag.String("mode", "scc-2s", "concurrency control per shard: scc-2s | occ-bc")
	concurrency := flag.Int("concurrency", 64, "admission slots (transactions in the engine at once)")
	queue := flag.Int("queue", 1024, "admission queue bound; overflow sheds the lowest-value waiter")
	replicaOf := flag.String("replica-of", "", "primary address to replicate from; makes this server a read replica")
	dataDir := flag.String("data-dir", "", "durability directory: node WAL + per-shard checkpoints, recovered on boot (empty = in-memory only)")
	fsync := flag.String("fsync", "group", "WAL fsync policy: group (per commit batch: commits queue behind the running fsync and share the next) | off (OS page cache only)")
	ckptEvery := flag.Int("ckpt-every", 4096, "with -data-dir: checkpoint a shard after this many WAL records, highest pending-value shard first, and trim the WAL below the checkpoints (must be at least 1)")
	metricsAddr := flag.String("metrics-addr", "", "HTTP listen address serving GET /metrics (Prometheus text exposition of the server's telemetry registry), GET /debug/events (the flight recorder's retained events) and /debug/pprof (empty = off)")
	logLevel := flag.String("log-level", "info", "structured-log verbosity on stderr: debug | info | warn | error")
	clusterSelf := flag.String("cluster-self", "", "this node's advertised client address, as peers should dial it; enables the cluster failover monitor (lease heartbeats, elections, fencing epochs)")
	clusterPeers := flag.String("cluster-peers", "", "comma-separated client addresses of the other cluster members")
	clusterLease := flag.Duration("cluster-lease", 750*time.Millisecond, "failover lease: how long the primary may go unreachable before replicas run an election")
	replSync := flag.Bool("repl-sync", false, "primary: semi-synchronous replication — hold each commit's OK until a replica acknowledged its log records (degrades to async past -repl-sync-timeout; counted in STATS repl_sync_degraded)")
	replSyncTimeout := flag.Duration("repl-sync-timeout", 5*time.Second, "with -repl-sync: longest a verdict waits for a replica ack before degrading to asynchronous")
	flag.Parse()

	if *dataDir != "" && *ckptEvery < 1 {
		// Checkpoints are what trim the WAL: without them a durable
		// server's log grows until the disk fills.
		fmt.Fprintf(os.Stderr, "sccserve: -ckpt-every %d: must be at least 1 with -data-dir\n", *ckptEvery)
		os.Exit(2)
	}
	lvl, err := parseLogLevel(*logLevel)
	if err != nil {
		log.Fatalf("sccserve: %v", err)
	}
	// All operational logging goes to stderr via slog; stdout stays
	// reserved for the machine-parsed "final:" summary line. Note
	// SetDefault also reroutes the stdlib log package through this
	// handler at INFO — anything that must survive -log-level warn (the
	// fail-stop path above all) has to log at ERROR explicitly.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))
	fatal := func(msg string, args ...any) {
		slog.Error(msg, args...)
		os.Exit(1)
	}

	var m engine.Mode
	switch strings.ToLower(*mode) {
	case "scc-2s", "scc2s", "scc":
		m = engine.SCC2S
	case "occ-bc", "occbc", "occ":
		m = engine.OCCBC
	default:
		fatal("sccserve: unknown -mode (want scc-2s or occ-bc)", "mode", *mode)
	}

	fsyncPolicy, err := durable.ParseFsyncPolicy(*fsync)
	if err != nil {
		fatal("sccserve: bad -fsync", "err", err)
	}
	// Fail-stop on a broken WAL, synchronously: the durability manager
	// invokes this the moment a sync fails, after the failing batch's
	// verdicts have already been converted to ERR in-line — so no OK ever
	// races the fault, and the process dies instead of accumulating
	// acknowledged-but-non-durable commits. (This replaces the old
	// once-a-second Err() poll, whose window let thousands of lying acks
	// through between fault and detection.)
	onWALError := func(err error) {
		fatal("sccserve: write-ahead log failed, refusing to acknowledge non-durable commits", "err", err)
	}
	srv, err := server.Open(server.Config{
		Shards: *shards,
		Mode:   m,
		Admission: server.AdmissionConfig{
			MaxConcurrent: *concurrency,
			MaxQueue:      *queue,
		},
		GroupCommit: engine.GroupCommit{Enabled: true},
		ReplicaOf:   *replicaOf,
		Repl: server.ReplOptions{
			Primary:     true,
			SyncAcks:    *replSync,
			SyncTimeout: *replSyncTimeout,
		},
		Cluster: server.ClusterConfig{
			Self:  *clusterSelf,
			Peers: strings.FieldsFunc(*clusterPeers, func(r rune) bool { return r == ',' || r == ' ' }),
			Lease: *clusterLease,
		},
		Durable: durable.Options{
			Dir:       *dataDir,
			Fsync:     fsyncPolicy,
			CkptEvery: *ckptEvery,
			OnError:   onWALError,
		},
	})
	if err != nil {
		fatal("sccserve: open", "err", err)
	}
	// The flight recorder's node name joins dumps from different
	// processes in one merged timeline, so make it the listen address.
	srv.Flight().SetNode(strings.ReplaceAll(*addr, " ", "_"))
	if d := srv.Durable(); d != nil {
		slog.Info("sccserve: durable", "dir", *dataDir, "fsync", fsyncPolicy.String(),
			"ckpt_every", *ckptEvery, "recovered_records", d.RecoveredIndex())
	}

	if *metricsAddr != "" {
		// /metrics joins net/http/pprof's /debug/pprof/* handlers on the
		// default mux: one diagnostic listener, kept off the data port.
		http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			srv.Metrics().Expose(w)
		})
		// /debug/events serves the flight recorder's retained window in
		// the same dump format the fault paths write to <data-dir>/flight.
		http.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if err := srv.Flight().WriteTo(w, "http"); err != nil {
				slog.Warn("sccserve: /debug/events", "err", err)
			}
		})
		mlis, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal("sccserve: metrics listener", "err", err)
		}
		slog.Info("sccserve: metrics", "addr", mlis.Addr().String())
		go func() {
			if err := http.Serve(mlis, nil); err != nil {
				slog.Error("sccserve: metrics listener failed", "err", err)
			}
		}()
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("sccserve: listen", "err", err)
	}
	slog.Info("sccserve: serving", "mode", m.String(), "shards", *shards, "addr", lis.Addr().String(),
		"replica_of", *replicaOf, "cluster_self", *clusterSelf, "cluster_peers", *clusterPeers,
		"slots", *concurrency, "queue", *queue)

	// SIGQUIT is the operator's black-box pull: dump the flight
	// recorder's retained window (to <data-dir>/flight when durable,
	// stderr otherwise) and keep serving (unlike the Go runtime's default
	// stack-dump-and-exit, which SIGABRT still gives).
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			srv.DumpFlight("sigquit")
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()

	select {
	case s := <-sig:
		slog.Info("sccserve: shutting down", "signal", s.String())
		srv.Close()
		<-done
	case err := <-done:
		if err != nil {
			fatal("sccserve: serve", "err", err)
		}
	}
	st := srv.Store().Stats()
	fmt.Printf("final: commits=%d fast=%d cross=%d cross_restarts=%d promotions=%d\n",
		st.TotalCommits(), st.FastPath, st.CrossCommits, st.CrossRestarts, st.Engine.Promotions)
}
