#!/usr/bin/env sh
# Run the crash/fault matrix standalone: for every registered failpoint
# site, inject there mid-workload and check the committed-prefix
# contract — storage sites crash-and-recover through AeonG.open (the
# engine log's engine.wal.append / .sync / .truncate are the only WAL
# sites; the kv.* sites crash inside an engine whose history store
# flushes every GC epoch), migration.commit_batch also fires inside
# AeonG.open's replay, which runs a GC epoch every gc_interval replayed
# commits (TestReplayMigrationFaults: crash mode — a clean reopen lands
# where a clean open does; error mode — open succeeds and the epoch's
# transactions stay queued for the next), serving-layer socket
# sites (server.conn.read / server.conn.write) fault under error,
# delay, disconnect, short-read and torn-write modes with a live
# server and a retrying client; backup sites (backup.copy,
# backup.manifest, restore.replay) leave the archive absent-or-valid
# and rerunnable; snapshot-bootstrap sites (repl.snapshot.read,
# repl.snapshot.write) fault mid-resync and the replica still
# converges; the shared frame classifier (repro.common.framing) gets
# every WAL damage shape (torn header, torn payload, bad final
# checksum, bad interior checksum, checksum-valid undecodable payload)
# and the live scan, recovery, backup and archive verify must all
# classify it alike, while golden-bytes tests pin every frame and
# envelope byte for byte (tests/test_framing.py).  Part of the default
# test run too; this entry point exists for quick iteration on
# durability and serving code.
#
#   scripts/fault_matrix.sh [extra pytest args...]
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH=src exec python -m pytest -m fault_matrix -v "$@"
