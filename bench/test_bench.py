"""Tests of the benchmark itself: small-size runs of every workload, and one
deliberately corrupted artifact per output check.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import struct

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

SEED = 5


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """Each workload at small size, untraced, with its artifacts kept."""
    out = {}
    for w in workloads.WORKLOADS:
        work = tmp_path_factory.mktemp(w)
        result, _ = run.run(w, SEED, 0.0, False, workloads.SMALL, work=work, keep=True)
        out[w] = result, {op.name: op for op in workloads.plan(w, SEED, workloads.SMALL, work / "inputs", work / "out")}
    return out


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_run_end_to_end(small_runs, workload):
    result, _ = small_runs[workload]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == len(small_runs[workload][1])
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_run_traced(tmp_path, workload):
    result, _ = run.run(workload, SEED, 0.0, True, workloads.SMALL, work=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(tracing.PER_LAYER)
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans["rounds"] and all(len(s) == 4 for s in spans["rounds"][0])
    heavy = {"image-pipeline": "counting_env.render_calls", "tabular-chain": "bisim.lfp_iterations",
             "random-mdp": "relation.complement_is_transitive_calls"}[workload]
    assert result["metrics"][heavy]["value"] > 0


def test_tracing_restores_the_program():
    from bisimlab import bisim, cli

    before = (bisim.apply_F, cli.write_relation_csv, bisim.PairRelation.complement_is_transitive)
    with tracing.installed(tracing.Tracer()):
        assert bisim.apply_F is not before[0] and cli.write_relation_csv is not before[1]
    assert (bisim.apply_F, cli.write_relation_csv, bisim.PairRelation.complement_is_transitive) == before


# --- corruptions: each check must reject a damaged artifact ---


def _rewrite_sidecar(path, frames):
    offsets = np.cumsum([0] + [len(f) for f in frames[:-1]]).astype("<u8")
    path.write_bytes(b"BSLI" + struct.pack("<IQ", 1, len(frames)) + offsets.tobytes() + b"".join(frames))


def swap_frames_of_different_counts(out):
    ds = checks.read_bslb(out / "dataset.bslb")
    frames = checks.read_bsli(out / "frames.bsli")
    k = int(np.nonzero(ds["sources"] != ds["sources"][0])[0][0])
    frames[0], frames[2 * k] = frames[2 * k], frames[0]
    _rewrite_sidecar(out / "frames.bsli", frames)


def break_a_successor(out):
    raw = bytearray((out / "dataset.bslb").read_bytes())
    struct.pack_into("<I", raw, 28 + 8, 7 if struct.unpack_from("<I", raw, 28 + 8)[0] != 7 else 6)
    (out / "dataset.bslb").write_bytes(bytes(raw))


def _edit_lines(path, edit):
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("".join(line + "\n" for line in lines))


def nan_loss(out):
    def edit(lines):
        row = json.loads(lines[-1])
        row["aux_loss"] = float("nan")
        lines[-1] = json.dumps(row)
    _edit_lines(out / "metrics.jsonl", edit)


def perturb_a_distance(out):
    path = out / "distances.csv"
    mat = np.loadtxt(path, delimiter=",")
    mat[0, -1] = mat[-1, 0] = mat[0, -1] * 1.01
    np.savetxt(path, mat, fmt="%.9g", delimiter=",")


def _edit_json(name, key, change):
    def corrupt(out):
        data = json.loads((out / name).read_text())
        data[key] = change(data[key])
        (out / name).write_text(json.dumps(data))
    corrupt.__name__ = f"change_{key}"
    return corrupt


def merge_two_blocks(out):
    def edit(lines):
        rows = [line.split(",") for line in lines[1:]]
        first, second = rows[0][1], next(blk for _, blk in rows if blk != rows[0][1])
        lines[1:] = [f"{obs},{first if blk == second else blk}" for obs, blk in rows]
    _edit_lines(out / "partition.csv", edit)


def drop_a_relation_row(out):
    _edit_lines(out / "relation.csv", lambda lines: lines.pop(len(lines) // 2))


CORRUPTIONS = [
    ("image-pipeline", "collect", swap_frames_of_different_counts),
    ("image-pipeline", "collect", break_a_successor),
    ("image-pipeline", "train", nan_loss),
    ("image-pipeline", "analyze", perturb_a_distance),
    ("image-pipeline", "analyze", _edit_json("analysis.json", "explained_variance", lambda v: [v[0] + 1e-3, v[1]])),
    ("image-pipeline", "verify", _edit_json("collapse_report.json", "min_cross_class_distance", lambda v: v * 1.001)),
    ("tabular-chain", "verify", _edit_json("collapse_report.json", "pairs_checked", lambda v: v - 1)),
    ("tabular-chain", "bisim-refine", merge_two_blocks),
    ("tabular-chain", "bisim-naive", drop_a_relation_row),
    ("random-mdp", "bisim", merge_two_blocks),
    ("random-mdp", "bisim", drop_a_relation_row),
    ("random-mdp", "empirical-bisim", drop_a_relation_row),
    ("random-mdp", "empirical-bisim", _edit_json("summary.json", "transitive_complement", lambda v: False)),
]


@pytest.mark.parametrize("workload,op_name,corrupt", CORRUPTIONS,
                         ids=[f"{w}-{o}-{c.__name__}" for w, o, c in CORRUPTIONS])
def test_check_rejects_corrupted_artifact(small_runs, tmp_path, workload, op_name, corrupt):
    op = small_runs[workload][1][op_name]
    op.check(op.out, 0)  # the intact artifact passes
    bad = tmp_path / op_name
    shutil.copytree(op.out, bad)
    corrupt(bad)
    with pytest.raises(checks.CheckError):
        op.check(bad, 0)


def test_gradient_check_rejects_a_wrong_gradient(small_runs, monkeypatch):
    import bisimlab.nn

    op = small_runs["tabular-chain"][1]["train"]
    original = bisimlab.nn.loss_and_grads

    def scaled(*args, **kwargs):
        report, grads = original(*args, **kwargs)
        return report, {k: 1.01 * g for k, g in grads.items()}

    monkeypatch.setattr(bisimlab.nn, "loss_and_grads", scaled)
    with pytest.raises(checks.CheckError, match="finite difference"):
        op.check(op.out, 0)
