"""CLI shell tests: query execution, dot-commands, table rendering."""

from __future__ import annotations

import io
import subprocess
import sys

from repro import AeonG
from repro.cli import Shell, format_table, run


def _capture(lines, engine=None):
    out = io.StringIO()
    engine = run(lines, engine=engine, out=out)
    return out.getvalue(), engine


class TestFormatTable:
    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_alignment_and_footer(self):
        text = format_table(
            [{"name": "Jack", "age": 30}, {"name": "Jo", "age": None}]
        )
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "null" in lines[3]
        assert lines[-1] == "(2 rows)"

    def test_singular_footer(self):
        text = format_table([{"x": 1}])
        assert text.splitlines()[-1] == "(1 row)"

    def test_booleans_render_lowercase(self):
        text = format_table([{"flag": True}])
        assert "true" in text


class TestShell:
    def test_create_and_match(self):
        output, _ = _capture(
            [
                "CREATE (n:Person {name: 'Jack'})",
                "MATCH (n:Person) RETURN n.name",
            ]
        )
        assert "Jack" in output
        assert "(1 row)" in output

    def test_error_reported_not_raised(self):
        output, _ = _capture(["MATCH ((("])
        assert output.startswith("error:")

    def test_dot_now_and_gc(self):
        output, _ = _capture(
            ["CREATE (n:X)", ".now", ".gc"]
        )
        assert "reclaimed" in output

    def test_dot_storage(self):
        output, _ = _capture(["CREATE (n:X {p: 1})", ".storage"])
        assert "current=" in output

    def test_dot_index(self):
        output, engine = _capture(
            ["CREATE (n:Person {name: 'A'})", ".index Person name"]
        )
        assert "index created" in output
        assert engine.storage.indexes.has_label_property_index("Person", "name")

    def test_dot_index_usage(self):
        output, _ = _capture([".index"])
        assert "usage" in output

    def test_dot_explain(self):
        output, _ = _capture(
            ["CREATE (n:Person {name: 'Jack'})",
             ".explain MATCH (p:Person) RETURN p.name"]
        )
        assert "Produce(p.name)" in output
        assert "└─ NodeScan(p:Person)" in output

    def test_dot_profile(self):
        output, _ = _capture(
            ["CREATE (n:Person {name: 'Jack'})",
             ".profile MATCH (p:Person) RETURN p.name"]
        )
        assert "operator" in output and "Total" in output

    def test_explain_profile_as_statements(self):
        output, _ = _capture(
            ["CREATE (n:Person {name: 'Jack'})",
             "EXPLAIN MATCH (p:Person) RETURN p.name",
             "PROFILE MATCH (p:Person) RETURN p.name"]
        )
        assert "NodeScan(p:Person)" in output and "Total" in output

    def test_explain_profile_usage(self):
        output, _ = _capture([".explain", ".profile"])
        assert output.count("usage:") == 2

    def test_unknown_command(self):
        output, _ = _capture([".frobnicate"])
        assert "unknown command" in output

    def test_quit_stops_processing(self):
        output, _ = _capture([".quit", "CREATE (n:X)", "MATCH (n) RETURN n"])
        assert "(no rows)" not in output and "row" not in output

    def test_help(self):
        output, _ = _capture([".help"])
        assert "TT SNAPSHOT" in output

    def test_save_roundtrip(self, tmp_path):
        target = tmp_path / "snap"
        output, _ = _capture(
            ["CREATE (n:Person {name: 'Saved'})", f".save {target}"]
        )
        assert "saved to" in output
        loaded = AeonG.open(target)
        rows = loaded.execute("MATCH (n:Person) RETURN n.name")
        assert rows == [{"n.name": "Saved"}]

    def test_blank_lines_ignored(self):
        out = io.StringIO()
        shell = Shell(AeonG(), out)
        shell.handle("   ")
        assert out.getvalue() == ""


class TestSubprocess:
    def test_python_dash_m_repro_query_mode(self):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "-q",
                "CREATE (n:City {name: 'Oslo'})",
                "-q",
                "MATCH (n:City) RETURN n.name",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert "Oslo" in result.stdout

    def test_data_dir_journals_across_processes(self, tmp_path):
        def shell(statement):
            return subprocess.run(
                [sys.executable, "-m", "repro", "--data", str(tmp_path),
                 "-q", statement],
                capture_output=True,
                text=True,
                timeout=60,
            )

        assert shell("CREATE (n:City {name: 'Oslo'})").returncode == 0
        result = shell("MATCH (n:City) RETURN n.name")
        assert result.returncode == 0
        assert "Oslo" in result.stdout

    def test_bad_snapshot_path_fails_cleanly(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--data", "/nonexistent/x"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 1
        assert "error:" in result.stderr
