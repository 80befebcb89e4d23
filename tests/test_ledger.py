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
    assert "| | `dred.self` · `store.self` · `server.self` ms/op (raw, not speed-scaled) | " \
        "1.60 · 0.31 · 0.12 | 1.54 · 0.31 · 0.12 | 1.40 · 0.31 · 0.12 |" in lines
    assert any(line.startswith("| `hot_read` | ops/s") and "– · – · –" in line
               for line in lines)
    assert [line for line in lines if not line.startswith("|")] == [
        "BENCH_10.json: seed 75, the others 7",
        "BENCH_10.json: command 'python3 bench/run.py --seed 75', "
        "the others 'python3 bench/run.py --seed 7'",
    ]


def test_routed_mixed_gets_its_cache_layer_row(tmp_path, capsys):
    for pr, evaluations, reuse in ((24, 0.723, 0.0), (25, 0.54, 1.112)):
        run = {
            "workload": "routed_mixed",
            "end_to_end": {"ops_per_s": 557.0, "latency_p50_ms": 0.76, "latency_p90_ms": 4.69},
            "per_layer": {
                "engine.evaluations_per_op": evaluations,
                "cache.invalidations_per_commit": 7.231 if pr == 24 else 5.406,
                "cache.delta_reuse_ratio": reuse,
            },
        }
        doc = {"command": "python3 bench/run.py --seed 7", "fingerprint": {"seed": 7}, "runs": [run]}
        (tmp_path / f"BENCH_{pr}.json").write_text(json.dumps(doc))
    assert _ledger().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    label = (
        "`engine.evaluations_per_op` · `cache.invalidations_per_commit` · "
        "`cache.delta_reuse_ratio`"
    )
    routed = lines.index("| `routed_mixed` | ops/s · p50 · p90 ms | "
                         "557 · 0.76 · 4.69 | 557 · 0.76 · 4.69 |")
    assert lines[routed + 3] == f"| | {label} | 0.72 · 7.23 · 0.00 | 0.54 · 5.41 · 1.11 |"
    # The row belongs to routed_mixed alone.
    assert sum(label in line for line in lines) == 1


def test_the_committed_ledger_prints(capsys):
    assert _ledger().main([ROOT]) == 0
    out = capsys.readouterr().out
    assert "| `commit_stream` |" in out
    assert "BENCH_18.json: seed 75" in out


def test_each_workload_gets_the_traced_rows_it_is_read_by(tmp_path, capsys):
    layers = {
        "hot_read": {"trace.unaccounted_share": 0.198},
        "cold_eval": {
            "columnar.self_ms_per_op": 1.254,
            "prepared.self_ms_per_op": 0.318,
            "trace.unaccounted_share": 0.071,
        },
        "commit_stream": {"trace.unaccounted_share": 0.334},
        "routed_mixed": {
            "client.write_p50_ms": 1.834,
            "proc.replica_cpu_ms_per_op": 0.531,
            "proc.router_cpu_ms_per_op": 0.418,
        },
    }
    runs = [
        {"workload": workload, "end_to_end": {}, "per_layer": per_layer}
        for workload, per_layer in layers.items()
    ]
    doc = {"command": "python3 bench/run.py --seed 7", "fingerprint": {"seed": 7}, "runs": runs}
    (tmp_path / "BENCH_25.json").write_text(json.dumps(doc))
    assert _ledger().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()

    def block(workload):
        """The table lines of *workload*'s rows."""
        first = next(i for i, line in enumerate(lines) if line.startswith(f"| `{workload}` |"))
        rest = (i for i, line in enumerate(lines) if i > first and line.startswith("| `"))
        return lines[first:next(rest, len(lines))]

    # Every workload's share of time no traced layer accounts for.
    assert "| | `trace.unaccounted_share` | 0.20 |" in block("hot_read")
    assert "| | `trace.unaccounted_share` | 0.07 |" in block("cold_eval")
    assert "| | `trace.unaccounted_share` | 0.33 |" in block("commit_stream")
    assert "| | `trace.unaccounted_share` | – |" in block("routed_mixed")
    assert (
        "| | `columnar.self` · `prepared.self` ms/op (raw, not speed-scaled) | 1.25 · 0.32 |"
        in block("cold_eval")
    )
    assert (
        "| | `client.write_p50_ms` · `proc.replica_cpu_ms_per_op` · "
        "`proc.router_cpu_ms_per_op` (raw, not speed-scaled) | 1.83 · 0.53 · 0.42 |"
        in block("routed_mixed")
    )
    assert len(block("commit_stream")) == 3  # the rows every workload gets


def test_each_file_gets_its_speed_and_raw_rows_say_so(tmp_path, capsys):
    for pr, speeds in ((27, (0.81, 0.86, 0.83)), (28, (0.52,)), (29, ())):
        runs = [
            {
                "workload": "hot_read",
                "end_to_end": {"ops_per_s": 4000.0, "latency_p50_ms": 0.12, "latency_p90_ms": 0.3},
                "per_layer": {"client.speed": speed, "server.self_ms_per_op": 0.05},
            }
            for speed in speeds
        ]
        doc = {"command": "python3 bench/run.py", "fingerprint": {"seed": 7}, "runs": runs}
        (tmp_path / f"BENCH_{pr}.json").write_text(json.dumps(doc))
    assert _ledger().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # The median over every run of the file, whatever the workload.
    speed = "| all four | `client.speed` (probe, 1.0 = reference box) | 0.83 | 0.52 | – |"
    assert lines[-1] == speed
    # Speed-scaled rows keep their label; raw per-layer times are marked.
    assert lines[2].startswith("| `hot_read` | ops/s · p50 · p90 ms | 4000 · 0.12 · 0.30 |")
    assert lines[3].startswith(
        "| | `dred.self` · `store.self` · `server.self` ms/op (raw, not speed-scaled) |"
    )
    assert "| | `trace.unaccounted_share` | – | – | – |" in lines  # a share, not a time
