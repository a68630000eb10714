"""Smoke test of the gated benchmark (collected by the tier-1 suite).

Runs all five workloads on a 2 % catalog with a handful of ops and checks
the contract between ``BENCHMARK.json``, the metric catalogue and what a
run prints; plus the self-tests of the oracle, the child-server launcher
and the comparison tool.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bench import compare, config, gen, metrics
from bench.harness import Sample, verify
from bench.ops import Op, Select
from bench.oracle import Oracle, digest_answer

ROOT = Path(__file__).resolve().parents[2]
SCALE = "0.02"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: units of metrics that count work and must repeat exactly
COUNT_UNITS = {"count", "share", "ratio", "B", "B/row"}
#: workloads with one client and one process doing the counting
REPEATABLE = ("scan_sweep", "cone_search", "ingest_mix")
#: counts the scheduler has a say in: the two scans of an INTERSECT join
#: the shared sweep when their threads happen to start
TIMING_DEPENDENT = {"machines.sweep_sharing_factor"}


def _launch(out, workload, trace, ops, seed=5):
    command = [
        sys.executable, "-m", "bench",
        "--workload", workload, "--seed", str(seed), "--ops", str(ops),
        "--trace", str(trace), "--scale", SCALE, "--out", str(out),
    ]  # fmt: skip
    # A session of its own, so what the run leaves behind can be found.
    return subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )  # fmt: skip


def _session_members(session):
    """Pids of the processes (zombies too) in ``session``, from /proc."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # ended while we walked the list
        # pid (comm) state ppid pgrp session ...
        if int(stat.rpartition(")")[2].split()[3]) == session:
            members.append(int(entry))
    return members


def _finish(process):
    stdout, stderr = process.communicate(timeout=120)
    assert process.returncode == 0, stderr[-3000:]
    # Nothing the run started (child server, shard processes,
    # multiprocessing's resource tracker) is there once it has exited.
    assert _session_members(process.pid) == []
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Final JSON lines of every workload, untraced and traced (and the
    repeatable workloads traced a second time), three processes at a time."""
    out = tmp_path_factory.mktemp("bench-out")
    # Generate the small catalog once, so parallel runs only read it.
    first = _finish(_launch(out / "a", "scan_sweep", 0, 6))
    jobs = [(w, 0, "a") for w in config.WORKLOADS if w != "scan_sweep"]
    jobs += [(w, 1, "a") for w in config.WORKLOADS]
    jobs += [(w, 1, "b") for w in REPEATABLE]
    results = {("scan_sweep", 0, "a"): first}
    pending = iter(jobs)
    for batch in iter(lambda: list(itertools.islice(pending, 3)), []):
        started = [
            (job, _launch(out / job[2], job[0], job[1], 8 if job[1] else 6))
            for job in batch
        ]
        for job, process in started:
            results[job] = _finish(process)
    return out, results


def test_benchmark_json_matches_the_catalogue():
    contract = metrics.contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert [w["name"] for w in contract["workloads"]] == list(config.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])
    catalogue = {m.name: m for m in metrics.END_TO_END + metrics.PER_LAYER}
    names = []
    for kind in ("end_to_end", "per_layer"):
        for entry in contract[kind]:
            metric = catalogue[entry["name"]]
            names.append(entry["name"])
            assert NAME.fullmatch(entry["name"]) and UNIT.fullmatch(entry["unit"])
            assert (entry["unit"], entry["better"]) == (metric.unit, metric.better)
            # One list serves all five workloads: only metrics measured
            # on every workload may be in it.
            assert metric.workloads is None, entry["name"]
            if kind == "end_to_end":
                assert entry["bound"] == metric.bound and 0 < entry["bound"] <= 0.25
    assert len(names) == len(set(names))
    assert any(e["name"] == "setup_s" for e in contract["end_to_end"])


def test_every_contract_metric_is_emitted_with_its_unit(runs):
    _out, results = runs
    contract = metrics.contract()
    for (workload, trace, _tag), final in results.items():
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["correct"] is True and final["failed"] == 0, workload
        assert final["attempted"] >= 1
        wanted = contract["per_layer" if trace else "end_to_end"]
        assert list(final["metrics"]) == [m["name"] for m in wanted], workload
        for entry in wanted:
            emitted = final["metrics"][entry["name"]]
            assert emitted["unit"] == entry["unit"]
            assert isinstance(emitted["value"], float)
            if not trace:
                assert emitted["value"] > 0, (workload, entry["name"])


def test_every_printed_name_is_in_the_catalogue(runs):
    out, _results = runs
    catalogue = {m.name: m for m in metrics.END_TO_END + metrics.PER_LAYER}
    for path in out.glob("*/*-trace*.json"):
        record = json.loads(path.read_text())
        for name, entry in {**record["end_to_end"], **record["per_layer"]}.items():
            assert NAME.fullmatch(name) and entry["unit"] == catalogue[name].unit
            limited = catalogue[name].workloads
            assert limited is None or record["workload"] in limited, name
        if record["trace"]:
            assert (path.parent / f"trace-{record['workload']}.json").exists()
            assert abs(sum(record["self_time_share"].values()) - 1.0) < 1e-6


def test_counts_repeat_exactly_for_the_same_seed(runs):
    _out, results = runs
    units = {m["name"]: m["unit"] for m in metrics.contract()["per_layer"]}
    for workload in REPEATABLE:
        first = results[workload, 1, "a"]["metrics"]
        again = results[workload, 1, "b"]["metrics"]
        for name, unit in units.items():
            if unit in COUNT_UNITS and name not in TIMING_DEPENDENT:
                assert first[name]["value"] == again[name]["value"], (workload, name)


def test_no_child_process_or_listener_outlives_the_run(runs):
    out, _results = runs
    record = json.loads((out / "a" / "remote_tenants-seed5-trace1.json").read_text())
    assert record["children"], "remote_tenants ran no child server"
    for child in record["children"]:
        with pytest.raises(ProcessLookupError):
            os.kill(child["pid"], 0)
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", child["port"]), timeout=1).close()


def test_two_seeds_generate_different_query_texts():
    def texts(seed, workload):
        rng = gen.make_rng(seed, workload)
        stream = {
            "scan_sweep": gen.scan_sweep,
            "cone_search": gen.cone_search,
            "cluster_gather": gen.cluster_gather,
        }[workload](rng)
        return [op.text for op in itertools.islice(stream, 24)]

    for workload in ("scan_sweep", "cone_search", "cluster_gather"):
        assert texts(1, workload) == texts(1, workload)
        assert texts(1, workload) != texts(2, workload)
    catalog = [op.text for op in gen.remote_texts(gen.make_rng(1, "remote_tenants"))]
    other = [op.text for op in gen.remote_texts(gen.make_rng(2, "remote_tenants"))]
    assert len(catalog) == config.REMOTE_TEXTS and catalog != other


def test_oracle_flags_a_corrupted_result():
    rng = np.random.default_rng(3)
    n = 5000
    z = rng.uniform(-1, 1, n)
    phi = rng.uniform(0, 2 * np.pi, n)
    data = np.zeros(
        n,
        dtype=[("objid", "i8"), ("cx", "f8"), ("cy", "f8"), ("cz", "f8"),
               ("mag_r", "f4"), ("objtype", "u1")],
    )  # fmt: skip
    data["objid"] = np.arange(n) * 7 + 1
    data["cx"], data["cy"], data["cz"] = (
        np.sqrt(1 - z * z) * np.cos(phi), np.sqrt(1 - z * z) * np.sin(phi), z,
    )  # fmt: skip
    data["mag_r"] = rng.uniform(15, 22, n).astype("f4")
    data["objtype"] = rng.integers(1, 4, n)
    oracle = Oracle(data)
    ops = [
        Op("cone", (Select(region=("circle", 40.0, 10.0, 25.0)),)),
        Op("topk", (Select(cuts=(("mag_r", "<", 20.0),), order=("mag_r", "objid"), limit=20),)),
        Op("rect", (Select(region=("rect", 350.0, 20.0, -10.0, 30.0)),)),
    ]

    def answered(op, rows):
        sample = Sample(op=op, op_id=0)
        sample.digest = digest_answer(op, [{"objid": data["objid"][rows]}])
        return sample

    samples = [answered(op, oracle.select_rows(op.selects[0])) for op in ops]
    assert all(len(oracle.select_rows(op.selects[0])) > 5 for op in ops)
    assert verify(samples, oracle) == 0
    # Drop one row of the first answer and swap two rows of the ordered one.
    rows = oracle.select_rows(ops[0].selects[0])
    swapped = oracle.select_rows(ops[1].selects[0]).copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    corrupted = [answered(ops[0], rows[1:]), answered(ops[1], swapped), samples[2]]
    for sample in corrupted:
        sample.correct = None
    assert verify(corrupted, oracle) == 2


def _write_runs(directory, values, workload="cone_search"):
    directory.mkdir()
    for seed, value in enumerate(values):
        record = {
            "workload": workload,
            "end_to_end": {
                "latency_ms_p50": {"value": value, "unit": "ms"},
                "failed_share": {"value": 0.0, "unit": "share"},
            },
        }
        (directory / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))


def test_compare_verdicts(tmp_path, capsys):
    _write_runs(tmp_path / "a", [100, 101, 102, 103, 104])
    _write_runs(tmp_path / "same", [103, 104, 105, 106, 107])
    _write_runs(tmp_path / "worse", [140, 141, 142, 143, 144])
    _write_runs(tmp_path / "noisy", [80, 100, 120, 140, 160])
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "same")]) == 0
    assert " same" in capsys.readouterr().out
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "worse")]) == 1
    assert " worse" in capsys.readouterr().out
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "noisy")]) == 0
    assert " unresolved" in capsys.readouterr().out
