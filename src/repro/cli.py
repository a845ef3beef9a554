"""An interactive shell for the temporal query language.

Run as ``python -m repro`` (optionally with ``--data DIR`` to open a
saved snapshot).  Queries execute against an embedded engine; results
print as aligned tables.  Dot-commands drive the engine itself:

========  =====================================================
command   effect
========  =====================================================
``.help``     list commands
``.now``      print the engine's next commit timestamp
``.gc``       run one garbage-collection (migration) epoch
``.storage``  print the storage report
``.metrics``  print operational counters (JSON; ``.metrics read_path``
              for one section)
``.explain Q``  print the operator tree for statement ``Q``
``.profile Q``  execute ``Q`` and print the per-operator profile
``.index L P``  create a label(+property) index
``.save DIR``   snapshot the engine to a directory
``.quit``     exit
========  =====================================================

Subcommands (``python -m repro <sub> ...`` / ``aeong <sub> ...``):
``verify DIR`` runs the offline integrity check, ``metrics DIR``
exports a saved database's metrics (Prometheus text, ``--json`` for
the registry dict), ``serve DIR`` starts the TCP serving layer over a
durable engine (see ``docs/SERVING.md``) — as a replica of another
node with ``--replica-of HOST:PORT``, semi-sync with
``--sync-replication``, and with a Prometheus endpoint via
``--metrics-port N`` (see ``docs/REPLICATION.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Iterable, Optional, TextIO

from repro.core.engine import AeonG
from repro.errors import ReproError
from repro.integrity import Scrubber

PROMPT = "aeong> "


def format_table(rows: list[dict[str, Any]]) -> str:
    """Render result rows as an aligned text table."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    rendered = [
        {column: _render_cell(row.get(column)) for column in columns}
        for row in rows
    ]
    widths = {
        column: max(len(column), *(len(row[column]) for row in rendered))
        for column in columns
    }
    header = " | ".join(column.ljust(widths[column]) for column in columns)
    separator = "-+-".join("-" * widths[column] for column in columns)
    body = [
        " | ".join(row[column].ljust(widths[column]) for column in columns)
        for row in rendered
    ]
    footer = f"({len(rows)} row{'s' if len(rows) != 1 else ''})"
    return "\n".join([header, separator, *body, footer])


def _render_cell(value: Any) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return value
    return repr(value)


class Shell:
    """One interactive session over an engine."""

    def __init__(self, engine: AeonG, out: TextIO) -> None:
        self.engine = engine
        self.out = out
        self.running = True

    def handle(self, line: str) -> None:
        """Process one input line (query or dot-command)."""
        line = line.strip()
        if not line:
            return
        if line.startswith("."):
            self._dot_command(line)
            return
        try:
            rows = self.engine.execute(line)
        except ReproError as exc:
            print(f"error: {exc}", file=self.out)
            return
        print(format_table(rows), file=self.out)

    def _dot_command(self, line: str) -> None:
        parts = line.split()
        command, args = parts[0], parts[1:]
        if command == ".help":
            print(_help_text(), file=self.out)
        elif command in (".explain", ".profile"):
            rest = line.split(None, 1)
            if len(rest) < 2 or not rest[1].strip():
                print(f"usage: {command} STATEMENT", file=self.out)
                return
            statement = rest[1].strip()
            try:
                if command == ".explain":
                    for plan_line in self.engine.explain_tree(statement):
                        print(plan_line, file=self.out)
                else:
                    profile = self.engine.profile(statement)
                    print(format_table(profile.table()), file=self.out)
            except ReproError as exc:
                print(f"error: {exc}", file=self.out)
        elif command == ".now":
            print(self.engine.now(), file=self.out)
        elif command == ".gc":
            reclaimed = self.engine.collect_garbage()
            print(f"reclaimed {reclaimed} undo deltas", file=self.out)
        elif command == ".storage":
            print(self.engine.storage_report(), file=self.out)
        elif command == ".metrics":
            import json

            metrics = self.engine.metrics()
            if args:
                section = metrics.get(args[0])
                if section is None:
                    print(
                        f"unknown metrics section {args[0]}; one of: "
                        + " ".join(sorted(metrics)),
                        file=self.out,
                    )
                    return
                metrics = {args[0]: section}
            print(json.dumps(metrics, indent=2, default=str), file=self.out)
        elif command == ".index":
            if not args:
                print("usage: .index LABEL [PROPERTY]", file=self.out)
                return
            try:
                if len(args) == 1:
                    self.engine.create_label_index(args[0])
                else:
                    self.engine.create_label_property_index(args[0], args[1])
                print("index created", file=self.out)
            except ReproError as exc:
                print(f"error: {exc}", file=self.out)
        elif command == ".save":
            if not args:
                print("usage: .save DIRECTORY", file=self.out)
                return
            try:
                self.engine.save(args[0])
                print(f"saved to {args[0]}", file=self.out)
            except ReproError as exc:
                print(f"error: {exc}", file=self.out)
        elif command in (".quit", ".exit"):
            self.running = False
        else:
            print(f"unknown command {command}; try .help", file=self.out)


def _help_text() -> str:
    return (
        "queries: any statement of the temporal query language, e.g.\n"
        "  CREATE (n:Person {name: 'Jack'})\n"
        "  MATCH (n:Person) RETURN n.name\n"
        "  MATCH (n:Person) TT SNAPSHOT 5 RETURN n\n"
        "  EXPLAIN MATCH (n:Person) RETURN n.name\n"
        "  PROFILE MATCH (n) TT SNAPSHOT 5 RETURN n\n"
        "commands: .help .now .gc .storage .metrics [SECTION] "
        ".explain Q .profile Q .index L [P] .save DIR .quit"
    )


def run(
    lines: Iterable[str],
    engine: Optional[AeonG] = None,
    out: TextIO = sys.stdout,
    interactive: bool = False,
) -> AeonG:
    """Feed ``lines`` to a shell; returns the engine (for tests)."""
    shell = Shell(engine if engine is not None else AeonG(), out)
    for line in lines:
        if interactive:
            print(f"{PROMPT}{line.rstrip()}", file=out)
        shell.handle(line)
        if not shell.running:
            break
    return shell.engine


def _open_database(path: str) -> AeonG:
    """Open an existing engine directory (``save()``, ``checkpoint()``
    or a durable engine's WAL) with :meth:`AeonG.open`; a missing path
    is an error, never created."""
    from pathlib import Path

    if not Path(path).is_dir():
        raise ReproError(f"{path} is not a database directory")
    return AeonG.open(path)


def _verify_main(argv: list[str]) -> int:
    """``aeong verify`` — offline integrity check (fsck) of a database.

    Exit status: 0 when the store verifies clean (warnings allowed),
    1 when error findings remain, 2 when the database cannot be opened.
    """
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro verify",
        description=(
            "Verify (and optionally repair) the history store of a saved "
            "AeonG database: record checksums, interval tiling, anchor "
            "replay, anchor cadence, and the current-store seam."
        ),
    )
    parser.add_argument(
        "path", help="database or (with --backup) archive directory"
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the full IntegrityReport as JSON",
    )
    parser.add_argument(
        "--repair", action="store_true",
        help="repair what can be repaired and checkpoint the result",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="treat warnings as failures (exit 1)",
    )
    parser.add_argument(
        "--backup", action="store_true", dest="as_backup",
        help="PATH is a backup archive: check its manifest, checksums, "
        "and WAL segment structure, then restore to a scratch "
        "directory and run the integrity scrubber over the result",
    )
    options = parser.parse_args(argv)
    if options.as_backup:
        return _verify_backup(options)
    try:
        engine = _open_database(options.path)
    except ReproError as exc:
        print(f"error: cannot open {options.path}: {exc}", file=sys.stderr)
        return 2
    try:
        report = Scrubber(engine, auto_repair=options.repair).scrub_full()
        if options.repair:
            engine.checkpoint()
        if options.as_json:
            print(json.dumps(report.as_dict(), indent=2))
        else:
            summary = report.as_dict()
            print(
                f"checked {summary['gids_checked']} objects, "
                f"{summary['records_checked']} records "
                f"({summary['checksums_verified']} checksummed, "
                f"{summary['legacy_records']} legacy)"
            )
            for finding in report.findings:
                repair = f" [{finding.repair}]" if finding.repair else ""
                print(
                    f"{finding.severity}: {finding.code} "
                    f"{finding.object_kind} gid={finding.gid} "
                    f"tt=[{finding.tt_start},{finding.tt_end}) "
                    f"{finding.detail}{repair}"
                )
            verdict = "clean" if report.ok else "FAILED"
            print(
                f"verify {verdict}: {len(report.errors())} error(s), "
                f"{len(report.warnings())} warning(s), "
                f"{summary['repairs_applied']} repair(s) applied"
            )
        if not report.ok:
            return 1
        if options.strict and report.warnings():
            return 1
        return 0
    finally:
        engine.close()


def _verify_backup(options) -> int:
    """``aeong verify --backup DEST`` — fsck a backup archive in place.

    Checks the manifest checksum, every archived file's size and
    crc32, and the WAL segments' frame structure; then restores the
    archive to a scratch directory and runs the full integrity
    scrubber over the result, so a backup is proven restorable without
    touching the operator's data directories.  Exit status matches
    ``verify``: 0 clean, 1 findings, 2 archive unreadable.
    """
    import json
    import shutil
    import tempfile

    from repro.backup import restore_backup, verify_backup

    try:
        manifest, findings = verify_backup(options.path)
    except ReproError as exc:
        print(
            f"error: cannot read backup {options.path}: {exc}",
            file=sys.stderr,
        )
        return 2
    for finding in findings:
        print(
            f"{finding['severity']}: {finding['code']} "
            f"{finding['name']} {finding['detail']}"
        )
    if findings:
        print(f"verify FAILED: {len(findings)} archive error(s)")
        return 1
    scratch = tempfile.mkdtemp(prefix="aeong-verify-backup-")
    target = f"{scratch}/restored"
    try:
        restore_backup(options.path, target)
        engine = AeonG.open(target)
        try:
            report = Scrubber(engine).scrub_full()
            summary = report.as_dict()
        finally:
            engine.close()
    except ReproError as exc:
        print(f"error: backup does not restore: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if options.as_json:
        print(
            json.dumps(
                {"manifest": manifest, "scrub": summary}, indent=2
            )
        )
    else:
        print(
            f"archive ok: watermark {manifest['watermark']}, "
            f"{len(manifest['files'])} file(s), "
            f"{len(manifest['segments'])} WAL segment(s), "
            f"{manifest['backups']} backup run(s)"
        )
        verdict = "clean" if report.ok else "FAILED"
        print(
            f"restored scrub {verdict}: {len(report.errors())} error(s), "
            f"{len(report.warnings())} warning(s)"
        )
    if not report.ok:
        return 1
    if options.strict and report.warnings():
        return 1
    return 0


def _backup_main(argv: list[str]) -> int:
    """``aeong backup DIR DEST`` — online backup of a durability dir.

    Exit status: 0 on success, 1 when the backup fails, 2 when the
    source is not a durability directory.
    """
    import json

    from repro.backup import create_backup

    parser = argparse.ArgumentParser(
        prog="python -m repro backup",
        description=(
            "Capture an online, checksummed backup of a running (or "
            "stopped) engine's durability directory: checkpoint copy + "
            "WAL suffix + CRC-verified MANIFEST.  With --incremental, "
            "append the WAL delta since the archive's watermark."
        ),
    )
    parser.add_argument("source", help="the engine's durability directory")
    parser.add_argument("dest", help="archive directory to create/extend")
    parser.add_argument(
        "--incremental", action="store_true",
        help="extend an existing archive instead of creating a new one",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the BackupReport as JSON",
    )
    options = parser.parse_args(argv)
    from pathlib import Path

    if not (Path(options.source) / "engine.wal").exists():
        print(
            f"error: {options.source} has no engine.wal — not a "
            "durability directory",
            file=sys.stderr,
        )
        return 2
    try:
        report = create_backup(
            options.source, options.dest, incremental=options.incremental
        )
    except ReproError as exc:
        print(f"error: backup failed: {exc}", file=sys.stderr)
        return 1
    if options.as_json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        kind = "incremental" if report.incremental else "full"
        print(
            f"{kind} backup complete: watermark {report.watermark}, "
            f"{report.files_copied} file(s), {report.bytes_copied} bytes, "
            f"{report.wal_records_archived} WAL record(s) archived"
        )
    return 0


def _restore_main(argv: list[str]) -> int:
    """``aeong restore DEST DIR [--as-of TS]`` — restore an archive.

    Exit status: 0 on success, 1 when the restore fails (damaged
    archive, timestamp outside coverage, target exists), 2 when the
    archive cannot be read.
    """
    import json

    from repro.backup import read_manifest, restore_backup

    parser = argparse.ArgumentParser(
        prog="python -m repro restore",
        description=(
            "Restore a backup archive into a fresh durability "
            "directory, optionally at a past commit timestamp "
            "(point-in-time recovery: newest checkpoint at or below "
            "TS, archived WAL replayed up to TS)."
        ),
    )
    parser.add_argument("archive", help="backup archive directory")
    parser.add_argument("target", help="durability directory to create")
    parser.add_argument(
        "--as-of", type=int, default=None, metavar="TS", dest="as_of",
        help="restore the state as of commit timestamp TS "
        "(default: the archive watermark)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the RestoreReport as JSON",
    )
    options = parser.parse_args(argv)
    try:
        read_manifest(options.archive)
    except ReproError as exc:
        print(
            f"error: cannot read backup {options.archive}: {exc}",
            file=sys.stderr,
        )
        return 2
    try:
        report = restore_backup(
            options.archive, options.target, as_of=options.as_of
        )
    except ReproError as exc:
        print(f"error: restore failed: {exc}", file=sys.stderr)
        return 1
    if options.as_json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(
            f"restored to {options.target} as of ts {report.as_of}: "
            f"checkpoint fence {report.checkpoint_fence}, "
            f"{report.records_replayed} WAL record(s) replayed, "
            f"{report.bytes_restored} bytes"
        )
    return 0


def _metrics_main(argv: list[str]) -> int:
    """``aeong metrics`` — export a saved database's metrics.

    Prints the Prometheus text exposition by default, or the full
    registry snapshot (counters, histograms, every ``metrics()``
    section) as JSON with ``--json``.  Exit status 2 when the database
    cannot be opened.
    """
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro metrics",
        description=(
            "Export the metrics registry of a saved AeonG database "
            "(Prometheus text format, or JSON with --json)."
        ),
    )
    parser.add_argument("path", help="database directory")
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the registry snapshot as JSON",
    )
    options = parser.parse_args(argv)
    try:
        engine = _open_database(options.path)
    except ReproError as exc:
        print(f"error: cannot open {options.path}: {exc}", file=sys.stderr)
        return 2
    try:
        from repro.backup import metrics_sections

        engine.observability.registry.register_provider(metrics_sections)
        if options.as_json:
            snapshot = engine.observability.registry.as_dict()
            print(json.dumps(snapshot, indent=2, default=str))
        else:
            print(engine.metrics_text(), end="")
        return 0
    finally:
        engine.close()


def _serve_main(argv: list[str]) -> int:
    """``aeong serve`` — run the TCP serving layer over a database.

    Opens (or creates) a durable engine at ``DIR`` — replaying its WAL
    and printing the recovery summary — binds the asyncio server, and
    serves until SIGTERM/SIGINT triggers a graceful drain.  Protocol
    and operational behavior are specified in ``docs/SERVING.md``.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Serve an AeonG database over TCP (length-prefixed JSON "
            "protocol) until SIGTERM/SIGINT drains it."
        ),
    )
    parser.add_argument("path", help="durability directory (created if new)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 picks a free port and prints it)",
    )
    parser.add_argument(
        "--max-connections", type=int, default=64,
        help="connections past this are shed with a retryable error",
    )
    parser.add_argument(
        "--drain-grace", type=float, default=5.0,
        help="seconds a drain waits for in-flight sessions",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="also serve GET /metrics (Prometheus text) over HTTP on "
        "this port (0 picks a free port and prints it)",
    )
    replication = parser.add_argument_group(
        "replication (docs/REPLICATION.md)"
    )
    replication.add_argument(
        "--replica-of", metavar="HOST:PORT", default=None,
        help="start as a replica streaming the WAL of the primary at "
        "HOST:PORT; serves reads, rejects writes with NOT_PRIMARY",
    )
    replication.add_argument(
        "--replica-id", default="replica-1",
        help="this replica's identity on the primary (default %(default)s)",
    )
    replication.add_argument(
        "--lease-timeout", type=float, default=2.0, metavar="SECONDS",
        help="replica promotes itself after this long without a "
        "successful fetch (default %(default)s)",
    )
    replication.add_argument(
        "--poll-interval", type=float, default=0.2, metavar="SECONDS",
        help="replica long-poll interval against the primary "
        "(default %(default)s)",
    )
    replication.add_argument(
        "--no-auto-promote", action="store_true",
        help="on lease expiry, keep retrying instead of promoting",
    )
    replication.add_argument(
        "--sync-replication", action="store_true",
        help="primary holds each commit ack until a replica applied it "
        "(semi-synchronous; no-op while no replica is registered)",
    )
    options = parser.parse_args(argv)
    from repro.server.app import ServerConfig, serve

    try:
        serve(
            options.path,
            config=ServerConfig(
                host=options.host,
                port=options.port,
                max_connections=options.max_connections,
                drain_grace=options.drain_grace,
            ),
            replica_of=options.replica_of,
            replica_id=options.replica_id,
            lease_timeout=options.lease_timeout,
            poll_interval=options.poll_interval,
            auto_promote=not options.no_auto_promote,
            sync_replication=options.sync_replication,
            metrics_port=options.metrics_port,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "verify":
        return _verify_main(argv[1:])
    if argv and argv[0] == "metrics":
        return _metrics_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "backup":
        return _backup_main(argv[1:])
    if argv and argv[0] == "restore":
        return _restore_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Interactive shell for the AeonG temporal graph database",
    )
    parser.add_argument(
        "--data", metavar="DIR", help="open a database directory"
    )
    parser.add_argument(
        "--query", "-q", action="append", default=[],
        help="execute one statement and exit (repeatable)",
    )
    parser.add_argument(
        "--no-temporal", action="store_true",
        help="run the vanilla (TGDB-noT) configuration",
    )
    options = parser.parse_args(argv)
    try:
        if options.data:
            engine = _open_database(options.data)
        else:
            engine = AeonG(temporal=not options.no_temporal)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if options.query:
            run(options.query, engine)
            return 0
        print("AeonG temporal graph shell — .help for help, .quit to exit")
        shell = Shell(engine, sys.stdout)
        while shell.running:
            try:
                line = input(PROMPT)
            except EOFError:
                break
            shell.handle(line)
    except KeyboardInterrupt:
        pass
    finally:
        engine.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
