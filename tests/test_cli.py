"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def facts_file(tmp_path):
    path = tmp_path / "facts.dl"
    path.write_text(
        """
        descendant(ann, bob).
        descendant(bob, cal).
        person(ann). person(bob). person(cal).
        """
    )
    return str(path)


@pytest.fixture
def query_file(tmp_path):
    path = tmp_path / "query.gl"
    path.write_text(
        """
        define (P1) -[anc-of]-> (P3) {
            (P1) -[descendant+]-> (P3);
        }
        """
    )
    return str(path)


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.dl"
    path.write_text(
        """
        sg(X, X) :- person(X).
        sg(X, Y) :- parent(X, Z), sg(Z, W), parent(Y, W).
        """
    )
    return str(path)


class TestCommands:
    def test_figure_by_number(self, capsys):
        assert main(["figure", "3"]) == 0
        out = capsys.readouterr().out
        assert "descendant-tc" in out

    def test_figure_by_name(self, capsys):
        assert main(["figure", "fig08"]) == 0
        assert "same generation" in capsys.readouterr().out

    def test_figure_unknown(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_query(self, capsys, query_file, facts_file):
        assert main(["query", query_file, facts_file]) == 0
        out = capsys.readouterr().out
        assert "anc-of (3 tuples)" in out
        assert "ann  cal" in out

    def test_no_command_selects_an_evaluator(self, query_file, facts_file):
        # The columnar core serves everything; the naive walker is the
        # specification the tests compare it with, not an option.
        for argv in (
            ["query", query_file, facts_file],
            ["datalog", query_file],
            ["call", "graphlog", query_file],
            ["explain", query_file],
        ):
            with pytest.raises(SystemExit):
                main([*argv, "--method", "naive"])

    def test_datalog(self, capsys, tmp_path, facts_file):
        program = tmp_path / "p.dl"
        program.write_text("anc(X, Y) :- descendant(X, Y).\nanc(X, Y) :- descendant(X, Z), anc(Z, Y).\n")
        assert main(["datalog", str(program), "--data", facts_file]) == 0
        assert "anc (3 tuples)" in capsys.readouterr().out

    def test_datalog_inline_facts(self, capsys, tmp_path):
        program = tmp_path / "p.dl"
        program.write_text("e(a, b).\nr(X, Y) :- e(X, Y).\n")
        assert main(["datalog", str(program)]) == 0
        assert "r (1 tuples)" in capsys.readouterr().out

    def test_translate(self, capsys, program_file):
        assert main(["translate", program_file]) == 0
        out = capsys.readouterr().out
        assert "e(c, c, c, X, X, sg)" in out

    def test_rpq(self, capsys, facts_file):
        assert main(["rpq", "descendant+", facts_file]) == 0
        assert "pairs matching" in capsys.readouterr().out

    def test_rpq_with_source(self, capsys, facts_file):
        assert main(["rpq", "descendant+", facts_file, "--source", "ann"]) == 0
        out = capsys.readouterr().out
        assert "bob" in out and "cal" in out

    def test_dot(self, capsys, query_file):
        assert main(["dot", query_file]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_facts_file_with_rule_rejected(self, tmp_path, query_file):
        bad = tmp_path / "bad.dl"
        bad.write_text("p(X) :- q(X).")
        with pytest.raises(SystemExit):
            main(["query", query_file, str(bad)])


class TestNewCommands:
    def test_optimize(self, capsys, tmp_path):
        program = tmp_path / "p.dl"
        program.write_text(
            "v(X, Y) :- a(X, Z), b(Z, Y).\nout(X, Y) :- v(X, Y), c(Y).\n"
        )
        assert main(["optimize", str(program), "--roots", "out"]) == 0
        out = capsys.readouterr().out
        assert "v(" not in out  # the view was inlined away
        assert "out(X, Y)" in out

    def test_magic(self, capsys, tmp_path, facts_file):
        program = tmp_path / "p.dl"
        program.write_text(
            "anc(X, Y) :- descendant(X, Y).\n"
            "anc(X, Y) :- descendant(X, Z), anc(Z, Y).\n"
        )
        assert main(["magic", str(program), "anc(ann, Y)", "--data", facts_file]) == 0
        out = capsys.readouterr().out
        assert "2 answers" in out
        assert "facts derived:" in out

    def test_export(self, capsys, tmp_path, facts_file):
        out_path = tmp_path / "g.json"
        assert main(["export", facts_file, str(out_path)]) == 0
        from repro.io import load_graph

        graph = load_graph(out_path)
        assert graph.edge_count() == 2  # two descendant edges


class TestTelemetryCommands:
    @pytest.fixture()
    def live_server(self):
        from repro.service.server import ServiceConfig, ServiceServer

        srv = ServiceServer(
            config=ServiceConfig(port=0, workers=2, timeout=10.0, slow_ms=0.0)
        ).start_background()
        yield srv
        srv.stop()

    def test_top_single_iteration(self, capsys, live_server):
        from repro.service.client import ServiceClient

        with ServiceClient(port=live_server.port) as c:
            c.update(edges=[["a", "link", "b"]])
            c.datalog("hop(X, Y) :- link(X, Y).", predicate="hop")
            c.update(edges=[["b", "link", "c"]])
            # The first re-read after a commit dropped it: maintained from here.
            c.datalog("hop(X, Y) :- link(X, Y).", predicate="hop")
        assert main(
            ["top", "--port", str(live_server.port), "--iterations", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "repro top — version 2" in out
        assert "requests" in out and "caches" in out
        assert "(delta-reuse 0, maintained 1)" in out
        assert "link" in out  # churned predicate made the ranking
        assert "slowlog" in out
        assert "\x1b[" not in out  # no ANSI clears when stdout is captured

    def test_call_slowlog(self, capsys, live_server):
        import json

        from repro.service.client import ServiceClient

        with ServiceClient(port=live_server.port) as c:
            c.datalog("hop(X, Y) :- link(X, Y).", predicate="hop")
        assert main(
            [
                "call",
                "slowlog",
                "--port",
                str(live_server.port),
                "--limit",
                "5",
            ]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["stats"]["enabled"] is True
        assert doc["result"]["entries"]
        assert doc["result"]["entries"][0]["request_id"]

    def test_metrics_port_serves_exposition(self):
        import urllib.request

        from repro.service.server import ServiceConfig, ServiceServer

        srv = ServiceServer(
            config=ServiceConfig(port=0, workers=2, metrics_port=0)
        ).start_background()
        try:
            assert srv.metrics_port
            body = (
                urllib.request.urlopen(
                    f"http://127.0.0.1:{srv.metrics_port}/metrics", timeout=5
                )
                .read()
                .decode()
            )
            assert "repro_store_version 0" in body
        finally:
            srv.stop()

    def test_log_flags_configure_handler(self, tmp_path, facts_file):
        import logging

        package_logger = logging.getLogger("repro")
        before = list(package_logger.handlers)
        try:
            out_path = tmp_path / "g.json"
            args = ["--log-json", "--log-level", "debug", "export", facts_file, str(out_path)]
            assert main(args) == 0
            added = [
                h for h in package_logger.handlers
                if getattr(h, "_repro_cli_handler", False)
            ]
            assert len(added) == 1
            assert package_logger.level == logging.DEBUG
        finally:
            package_logger.handlers = before
            package_logger.setLevel(logging.NOTSET)


def test_steady_malloc_is_harmless_to_call():
    """`repro serve` pins two glibc thresholds before it starts; off glibc
    the call must be a silent no-op, on glibc it must leave the process
    able to allocate on both sides of the new thresholds."""
    from repro.cli import _steady_malloc

    assert _steady_malloc() is None
    assert _steady_malloc() is None
    blocks = [bytes(size) for size in (64 << 10, 256 << 10, 3 << 20)]
    assert [len(block) for block in blocks] == [64 << 10, 256 << 10, 3 << 20]
