"""Tests for scripts/ledger.py, the benchmark trajectory table."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _ledger():
    spec = importlib.util.spec_from_file_location(
        "ledger", os.path.join(ROOT, "scripts", "ledger.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench(directory, pr, seed, p50, dred):
    run = {
        "workload": "commit_stream",
        "end_to_end": {"ops_per_s": 350.4, "latency_p50_ms": p50, "latency_p90_ms": 3.5},
        "per_layer": {
            "dred.self_ms_per_op": dred,
            "store.self_ms_per_op": 0.31,
            "server.self_ms_per_op": 0.12,
        },
    }
    doc = {
        "command": f"python3 bench/run.py --seed {seed}",
        "fingerprint": {"seed": seed},
        "runs": [run],
    }
    with open(os.path.join(directory, f"BENCH_{pr}.json"), "w") as handle:
        json.dump(doc, handle)


def test_table_columns_in_pr_order_and_odd_seed_flagged(tmp_path, capsys):
    for pr, seed, p50, dred in ((9, 7, 2.9, 1.54), (10, 75, 2.8, 1.4), (8, 7, 3.1, 1.6)):
        _bench(tmp_path, pr, seed, p50, dred)
    (tmp_path / "BENCH_notes.json").write_text("{}")  # not a ledger file
    assert _ledger().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "| workload | metric | BENCH_8 | BENCH_9 | BENCH_10 |"
    rows = [line for line in lines if line.startswith("| `commit_stream`")]
    assert rows == ["| `commit_stream` | ops/s · p50 · p90 ms | "
                    "350 · 3.10 · 3.50 | 350 · 2.90 · 3.50 | 350 · 2.80 · 3.50 |"]
    assert "| | `dred.self` · `store.self` · `server.self` ms/op | " \
        "1.60 · 0.31 · 0.12 | 1.54 · 0.31 · 0.12 | 1.40 · 0.31 · 0.12 |" in lines
    assert any(line.startswith("| `hot_read` | ops/s") and "– · – · –" in line
               for line in lines)
    assert [line for line in lines if not line.startswith("|")] == [
        "BENCH_10.json: seed 75, the others 7",
        "BENCH_10.json: command 'python3 bench/run.py --seed 75', "
        "the others 'python3 bench/run.py --seed 7'",
    ]


def test_the_committed_ledger_prints(capsys):
    assert _ledger().main([ROOT]) == 0
    out = capsys.readouterr().out
    assert "| `commit_stream` |" in out
    assert "BENCH_18.json: seed 75" in out
