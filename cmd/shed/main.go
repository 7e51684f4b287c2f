// Command shed is the SHE daemon: a TCP server hosting many named
// sliding-window sketches behind a small RESP-like text protocol.
// Writes go through the sharded wrappers, so one hot sketch scales
// across cores; snapshots use the library's binary format, so sketches
// survive restarts mid-window.
//
// Quick start:
//
//	shed -debug 127.0.0.1:6390 -autosave /var/lib/shed &
//	printf 'SKETCH.CREATE flows bloom bits=1048576 window=65536 shards=8
//	SKETCH.INSERT flows alice
//	SKETCH.QUERY flows alice
//	SKETCH.QUERY flows carol
//	' | nc localhost 6380
//	+OK
//	:1
//	:1
//	:0
//
// The protocol has no authentication, so shed listens on loopback
// (127.0.0.1:6380) by default; exposing it to other hosts is an
// explicit opt-in via -listen, and should sit behind a firewall or a
// trusted network. SKETCH.SAVE/LOAD never accept client paths — they
// name files inside the -snapshots directory (or the -autosave
// directory if -snapshots is unset) and are refused when neither is
// configured.
//
// Counters are served at http://localhost:6390/debug/vars. SIGINT or
// SIGTERM shuts down gracefully: in-flight commands finish, and with
// -autosave set every sketch is snapshotted and restored on the next
// start. -autosave is best-effort; -wal DIR enables crash-safe
// durability instead: mutations are fsynced to a write-ahead log
// before they are acknowledged and replayed over the latest checkpoint
// at startup, so even kill -9 loses no acknowledged write. See
// internal/server for the full protocol and durability reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"she/internal/server"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:6380", "TCP address for the sketch protocol (no auth — exposing beyond loopback is an explicit opt-in)")
	debug := flag.String("debug", "", "HTTP address for /debug/vars, /metrics and (with -pprof) /debug/pprof (empty = disabled)")
	autosave := flag.String("autosave", "", "snapshot directory: loaded at startup, saved at shutdown (empty = disabled)")
	snapshots := flag.String("snapshots", "", "directory for SKETCH.SAVE/LOAD files (empty = use -autosave dir; both empty = commands disabled)")
	walDir := flag.String("wal", "", "write-ahead log directory: every acknowledged mutation is fsynced before the reply, so kill -9 loses nothing (empty = disabled; supersedes -autosave)")
	replicaOf := flag.String("replicaof", "", "start as a read-only replica of this primary (host:port); requires -wal. Promote at runtime with REPLICAOF NO ONE")
	syncReplicas := flag.Int("sync-replicas", 0, "semi-synchronous commits: acknowledge mutations only after this many replicas applied and fsynced them (0 = asynchronous replication)")
	syncReplicaTimeout := flag.Duration("sync-replica-timeout", 2*time.Second, "fail a semi-synchronous commit that gathers too few replica acks in this long")
	maxMemory := flag.String("max-memory", "", "memory budget over sketches, audit shadows and connection buffers, e.g. 512mb or 2gb; past it shed degrades (shed audits, drop slowlog, refuse creates, -ERR OOM on inserts) instead of dying (empty = unlimited)")
	maxInflight := flag.Int("max-inflight", 0, "admission control: maximum commands executing at once across all connections; excess commands wait up to -command-timeout then get -ERR BUSY (0 = unlimited)")
	commandTimeout := flag.Duration("command-timeout", time.Second, "how long a command may wait for an admission slot before -ERR BUSY (with -max-inflight)")
	replMaxLag := flag.String("repl-max-lag", "", "disconnect a replica whose acknowledged position lags the stream by more than this many WAL bytes, e.g. 64mb (empty = unlimited)")
	replRetry := flag.Duration("repl-retry", time.Second, "replica reconnect base interval; consecutive failures double it with jitter")
	replRetryMax := flag.Duration("repl-retry-max", 30*time.Second, "cap on the replica reconnect backoff")
	checkpointBytes := flag.Int64("wal-checkpoint-bytes", server.DefaultCheckpointBytes, "WAL size that triggers a snapshot-then-truncate checkpoint")
	drain := flag.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout")
	idle := flag.Duration("idle-timeout", 5*time.Minute, "close connections idle for this long (0 = never)")
	writeTimeout := flag.Duration("write-timeout", 10*time.Second, "per-flush reply write deadline (0 = none)")
	maxConns := flag.Int("max-conns", 1024, "maximum concurrent client connections (0 = unlimited)")
	slowMs := flag.Int64("slow-ms", 0, "log commands taking at least this many milliseconds to the SLOWLOG ring (0 = disabled)")
	auditSample := flag.Float64("audit-sample", 0, "online accuracy auditing: shadow this fraction of keys in an exact window and export she_audit_* error metrics (0 = disabled; try 0.001)")
	auditMaxKeys := flag.Int("audit-max-keys", 0, "cap on distinct shadowed keys per audited sketch (0 = default 65536)")
	traceSample := flag.Int("trace-sample", 0, "request tracing: trace 1 in this many commands end to end (parse, mutate, WAL, fsync, replication, follower ack) and serve them via TRACE GET (0 = disabled; try 256. Adjustable at runtime with TRACE SAMPLE)")
	trafficSample := flag.Int("traffic-sample", 0, "traffic self-telemetry: sample 1 in this many commands into per-sketch hot-key sketches and the MONITOR feed (0 = disabled; try 64)")
	enablePprof := flag.Bool("pprof", false, "serve Go profiles at /debug/pprof/ on the -debug listener: CPU profile, execution trace and the named runtime profiles")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "shed: -log-level: %v\n", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})).With("app", "shed")
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	if *auditSample < 0 || *auditSample > 1 {
		fmt.Fprintf(os.Stderr, "shed: -audit-sample %g out of range [0,1]\n", *auditSample)
		os.Exit(2)
	}
	if *traceSample < 0 || *trafficSample < 0 {
		fmt.Fprintln(os.Stderr, "shed: -trace-sample and -traffic-sample must be non-negative")
		os.Exit(2)
	}
	if *walDir != "" && *autosave != "" {
		logger.Warn("-wal supersedes -autosave; autosave dir will be neither loaded nor written",
			"autosave", *autosave)
	}
	if *replicaOf != "" && *walDir == "" {
		fmt.Fprintln(os.Stderr, "shed: -replicaof requires -wal (a replica's acks promise local durability)")
		os.Exit(2)
	}
	if *syncReplicas > 0 && *walDir == "" {
		fmt.Fprintln(os.Stderr, "shed: -sync-replicas requires -wal (replication streams the write-ahead log)")
		os.Exit(2)
	}
	if *enablePprof && *debug == "" {
		logger.Warn("-pprof has no effect without -debug")
	}
	maxMemoryBytes, err := parseSize(*maxMemory)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shed: -max-memory: %v\n", err)
		os.Exit(2)
	}
	replMaxLagBytes, err := parseSize(*replMaxLag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shed: -repl-max-lag: %v\n", err)
		os.Exit(2)
	}
	srv := server.New(server.Config{
		Listen:               *listen,
		DebugListen:          *debug,
		AutosaveDir:          *autosave,
		SnapshotDir:          *snapshots,
		IdleTimeout:          *idle,
		WriteTimeout:         *writeTimeout,
		MaxConns:             *maxConns,
		WALDir:               *walDir,
		CheckpointBytes:      *checkpointBytes,
		ReplicaOf:            *replicaOf,
		SyncReplicas:         *syncReplicas,
		SyncReplicaTimeout:   *syncReplicaTimeout,
		MaxMemory:            maxMemoryBytes,
		MaxInflight:          *maxInflight,
		CommandTimeout:       *commandTimeout,
		ReplicaMaxLagBytes:   replMaxLagBytes,
		ReplRetryInterval:    *replRetry,
		ReplMaxRetryInterval: *replRetryMax,
		SlowThreshold:        time.Duration(*slowMs) * time.Millisecond,
		AuditSample:          *auditSample,
		AuditMaxKeys:         *auditMaxKeys,
		TraceSample:          *traceSample,
		TrafficSample:        *trafficSample,
		EnablePprof:          *enablePprof,
		Logger:               logger,
	})
	if err := srv.Start(); err != nil {
		fatal("start failed", err)
	}
	logger.Info("listening", "addr", srv.Addr().String())
	if a := srv.DebugAddr(); a != nil {
		logger.Info("debug endpoints up",
			"vars", "http://"+a.String()+"/debug/vars",
			"metrics", "http://"+a.String()+"/metrics",
			"pprof", *enablePprof)
	}
	switch {
	case *walDir != "":
		logger.Info("wal enabled", "dir", *walDir, "sketches_recovered", srv.Registry().Len())
	case *autosave != "":
		logger.Info("autosave enabled", "dir", *autosave, "sketches_restored", srv.Registry().Len())
	}
	if *replicaOf != "" {
		logger.Info("replica mode", "primary", *replicaOf)
	}
	if *syncReplicas > 0 {
		logger.Info("semi-synchronous commits", "replicas", *syncReplicas, "timeout", syncReplicaTimeout.String())
	}
	if *auditSample > 0 {
		logger.Info("accuracy auditing enabled", "sample", *auditSample, "max_keys", *auditMaxKeys)
	}
	if *trafficSample > 0 {
		logger.Info("traffic self-telemetry enabled", "sample", *trafficSample)
	}
	if maxMemoryBytes > 0 || *maxInflight > 0 {
		logger.Info("overload protection enabled",
			"max_memory_bytes", maxMemoryBytes,
			"max_inflight", *maxInflight,
			"command_timeout", commandTimeout.String())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Info("shutting down", "drain", drain.String())
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fatal("shutdown failed", err)
	}
}

// parseSize parses a human-friendly byte size: a plain integer is
// bytes; a kb/mb/gb suffix (case-insensitive, also k/m/g) scales by
// powers of 1024. Empty means 0 (disabled).
func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" || s == "0" {
		return 0, nil
	}
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"kb", 1 << 10}, {"mb", 1 << 20}, {"gb", 1 << 30},
		{"k", 1 << 10}, {"m", 1 << 20}, {"g", 1 << 30},
		{"b", 1},
	} {
		if strings.HasSuffix(s, u.suffix) {
			s, mult = strings.TrimSuffix(s, u.suffix), u.mult
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid size %q (want e.g. 1073741824, 512mb or 2gb)", s)
	}
	if n > (1<<62)/mult {
		return 0, fmt.Errorf("size %q overflows", s)
	}
	return n * mult, nil
}
