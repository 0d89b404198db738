"""Traced mode: spans around the public functions of each bisimlab module.

Wrappers defined here replace the functions in every loaded bisimlab module
(and the methods on their classes) for the length of one traced round, so
nothing inside src/ is edited or traced from within. Each call records a span
(name, start, end, parent); a few calls also record a count or a size taken
from their arguments or result, outside the span's timed interval.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

# module -> wrapped attributes; the span name is "<module>.<attribute>"
TARGETS = {
    "counting_env": ("collect_dataset", "render", "CollectedData.ppm_frames"),
    "dataset": ("save_frame_sidecar", "load_frame_sidecar", "parse_ppm", "load_dataset",
                "TransitionDataset.validate"),
    "mdp": ("load_mdp_json",),
    "bisim": ("partition_refine_with_rounds", "least_fixed_point", "quotient", "apply_F",
              "build_co_observed_index", "empirical_lfp", "empirical_apply_F"),
    "relation": ("write_relation_csv", "PairRelation.complement_is_transitive"),
    "nn": ("loss_and_grads", "joint_loss", "encode", "predict_next", "aux_predict", "decode"),
    "optim": ("adam_step",),
    "train": ("train", "save_checkpoint"),
    "analysis": ("verify_no_collapse", "median_pairwise_distance", "pairwise_distances", "pca_2d",
                 "nearest_centroid_accuracy", "collapse_ratio", "write_distance_csv", "write_heatmap_ppm"),
    "cli": ("cmd_bisim", "cmd_empirical_bisim", "cmd_collect", "cmd_train", "cmd_analyze", "cmd_verify",
            "_write_manifest"),
}


def _relation_file(a, _):
    path = Path(a["args"].out_dir) / "relation.csv"
    return path.read_bytes().count(b"\n") - 1, path.stat().st_size


def _model_shape(a, _):
    params, batch_size = a["params"], len(a["batch"].obs)

    def products(layers):
        return sum(2 * batch_size * layer.W.data.shape[0] * layer.W.data.shape[1] for layer in layers)

    dyn, aux, dec = (a.get(k, True) for k in ("dyn_loss_enabled", "aux_enabled", "decoder_enabled"))
    forward = (products(params.encoder) * (2 if dyn else 1) + (products(params.dynamics) if dyn else 0)
               + (products(params.aux_head) if aux else 0) + (products(params.decoder_probe) if dec else 0))
    sizes = [p.data.size for _, p in params.named_parameters()]
    decoder = sum(layer.W.data.size + layer.b.data.size for layer in params.decoder_probe)
    # the tape takes a weight-gradient and an input-gradient product per forward product
    return sum(sizes), decoder, 3 * forward


# what a call records besides its span: f(bound arguments, result)
NOTES = {
    "dataset.save_frame_sidecar": lambda a, r: os.path.getsize(a["path"]),
    "dataset.load_dataset": lambda a, r: len(r),
    "bisim.partition_refine_with_rounds": lambda a, r: r[1],
    "bisim.least_fixed_point": lambda a, r: r[1],
    "bisim.apply_F": lambda a, r: a["rel"].bits.size,
    "bisim.empirical_apply_F": lambda a, r: a["rel"].bits.size,
    "relation.PairRelation.complement_is_transitive": lambda a, r: a["self"].bits.size,
    "relation.write_relation_csv": lambda a, r: a["rel"].bits.size,
    "cli.cmd_bisim": _relation_file,
    "cli.cmd_empirical_bisim": _relation_file,
    "nn.loss_and_grads": _model_shape,
    "optim.adam_step": lambda a, r: len(a["grads"]),
    "train.save_checkpoint": lambda a, r: os.path.getsize(a["path"]),
    "analysis.verify_no_collapse": lambda a, r: r.pairs_checked,
    "analysis.write_distance_csv": lambda a, r: os.path.getsize(a["path"]),
}
# per-step calls whose note is the same every step: record the first only,
# so that the note's cost stays out of the step times
FIRST_ONLY = {"nn.loss_and_grads", "optim.adam_step"}


@dataclass
class Tracer:
    """Spans of one round, kept in memory: [name, start, end, parent index]."""

    spans: list[list] = field(default_factory=list)
    notes: dict[str, list] = field(default_factory=lambda: defaultdict(list))
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            if note is not None and not (name in FIRST_ONLY and self.notes[name]):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.notes[name].append(note(bound.arguments, result))
            return result

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every target for its traced wrapper; restore the originals after."""
    importlib.import_module("bisimlab.cli")
    modules = [m for k, m in sys.modules.items() if k == "bisimlab" or k.startswith("bisimlab.")]
    undo = []
    try:
        for short, attrs in TARGETS.items():
            module = sys.modules[f"bisimlab.{short}"]
            for attr in attrs:
                owner_name, _, member = attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    undo.append((owner, member, owner.__dict__[member]))
                    setattr(owner, member, tracer.wrap(f"{short}.{attr}", owner.__dict__[member]))
                    continue
                original = getattr(module, member)
                wrapper = tracer.wrap(f"{short}.{attr}", original)
                for mod in modules:  # also rebind names imported with `from ... import`
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


# --- per-layer metrics of one workload ---

MS = 1e3

PER_LAYER = {  # name -> unit, in the order BENCHMARK.json lists them
    "counting_env.collect_dataset_s": "s", "counting_env.render_s": "s", "counting_env.render_calls": "count",
    "counting_env.ppm_frames_s": "s",
    "dataset.sidecar_write_s": "s", "dataset.sidecar_read_s": "s", "dataset.ppm_parse_s": "s",
    "dataset.ppm_parse_calls": "count", "dataset.sidecar_mb": "MB", "dataset.load_dataset_s": "s",
    "dataset.validate_s": "s", "dataset.records": "count",
    "mdp.load_mdp_json_s": "s",
    "bisim.refine_s": "s", "bisim.refine_rounds": "count", "bisim.lfp_s": "s", "bisim.quotient_s": "s",
    "bisim.lfp_iterations": "count", "bisim.apply_F_s": "s", "bisim.apply_F_calls": "count",
    "bisim.index_s": "s", "bisim.empirical_lfp_s": "s", "bisim.empirical_apply_F_calls": "count",
    "relation.write_relation_csv_s": "s", "relation.pairs_written": "count", "relation.csv_mb": "MB",
    "relation.complement_is_transitive_s": "s", "relation.complement_is_transitive_calls": "count",
    "relation.matrix_mb": "MB",
    "nn.joint_loss_ms": "ms", "nn.encode_ms": "ms", "nn.predict_next_ms": "ms", "nn.aux_predict_ms": "ms",
    "nn.decode_ms": "ms", "autodiff.backward_ms": "ms", "nn.params": "count", "nn.decoder_params": "count",
    "nn.matmul_flops_per_step": "count",
    "optim.adam_ms": "ms", "optim.arrays_per_step": "count",
    "train.step_ms": "ms", "train.step_ms_p99": "ms", "train.steps": "count", "train.gather_ms": "ms",
    "train.eval_ms": "ms", "train.evals": "count", "train.data_s": "s", "train.checkpoint_s": "s",
    "train.checkpoint_mb": "MB",
    "analysis.verify_no_collapse_s": "s", "analysis.median_pairwise_distance_s": "s",
    "analysis.pairs_checked": "count", "analysis.pairwise_distances_s": "s", "analysis.pca_s": "s",
    "analysis.nearest_centroid_s": "s", "analysis.collapse_ratio_s": "s", "analysis.write_distance_csv_s": "s",
    "analysis.write_heatmap_s": "s", "analysis.distance_csv_mb": "MB",
    "cli.startup_s": "s", "cli.manifest_s": "s",
    "trace.overhead_s": "s",
}

# name -> span whose total time per round it reports
TOTALS = {
    "counting_env.collect_dataset_s": "counting_env.collect_dataset", "counting_env.render_s": "counting_env.render",
    "counting_env.ppm_frames_s": "counting_env.CollectedData.ppm_frames",
    "dataset.sidecar_write_s": "dataset.save_frame_sidecar", "dataset.sidecar_read_s": "dataset.load_frame_sidecar",
    "dataset.ppm_parse_s": "dataset.parse_ppm", "dataset.load_dataset_s": "dataset.load_dataset",
    "dataset.validate_s": "dataset.TransitionDataset.validate", "mdp.load_mdp_json_s": "mdp.load_mdp_json",
    "bisim.refine_s": "bisim.partition_refine_with_rounds", "bisim.lfp_s": "bisim.least_fixed_point",
    "bisim.quotient_s": "bisim.quotient", "bisim.apply_F_s": "bisim.apply_F",
    "bisim.index_s": "bisim.build_co_observed_index", "bisim.empirical_lfp_s": "bisim.empirical_lfp",
    "relation.write_relation_csv_s": "relation.write_relation_csv",
    "relation.complement_is_transitive_s": "relation.PairRelation.complement_is_transitive",
    "train.checkpoint_s": "train.save_checkpoint",
    "analysis.verify_no_collapse_s": "analysis.verify_no_collapse",
    "analysis.median_pairwise_distance_s": "analysis.median_pairwise_distance",
    "analysis.pairwise_distances_s": "analysis.pairwise_distances", "analysis.pca_s": "analysis.pca_2d",
    "analysis.nearest_centroid_s": "analysis.nearest_centroid_accuracy",
    "analysis.collapse_ratio_s": "analysis.collapse_ratio", "analysis.write_distance_csv_s": "analysis.write_distance_csv",
    "analysis.write_heatmap_s": "analysis.write_heatmap_ppm", "cli.manifest_s": "cli._write_manifest",
}

# name -> span whose calls per round it counts
CALLS = {
    "counting_env.render_calls": "counting_env.render", "dataset.ppm_parse_calls": "dataset.parse_ppm",
    "bisim.apply_F_calls": "bisim.apply_F", "bisim.empirical_apply_F_calls": "bisim.empirical_apply_F",
    "relation.complement_is_transitive_calls": "relation.PairRelation.complement_is_transitive",
}

STEP = "nn.loss_and_grads"
IN_STEP = {"nn.joint_loss_ms": "nn.joint_loss", "nn.encode_ms": "nn.encode", "nn.predict_next_ms": "nn.predict_next",
           "nn.aux_predict_ms": "nn.aux_predict", "nn.decode_ms": "nn.decode"}


def round_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Per-round values, and per-step samples (ms) to pool across rounds."""
    spans, notes = tracer.spans, tracer.notes
    dur = [end - start for _, start, end, _ in spans]
    total, calls = defaultdict(float), defaultdict(int)
    for (name, *_), d in zip(spans, dur):
        total[name] += d
        calls[name] += 1
    value = {k: total[span] for k, span in TOTALS.items()}
    value.update({k: float(calls[span]) for k, span in CALLS.items()})
    value["dataset.sidecar_mb"] = sum(notes["dataset.save_frame_sidecar"]) / 1e6
    value["dataset.records"] = float(sum(notes["dataset.load_dataset"]))
    value["bisim.refine_rounds"] = float(sum(notes["bisim.partition_refine_with_rounds"]))
    value["bisim.lfp_iterations"] = float(sum(notes["bisim.least_fixed_point"]))
    relation_files = notes["cli.cmd_bisim"] + notes["cli.cmd_empirical_bisim"]
    value["relation.pairs_written"] = float(sum(rows for rows, _ in relation_files))
    value["relation.csv_mb"] = sum(size for _, size in relation_files) / 1e6
    matrices = [x for k in ("bisim.apply_F", "bisim.empirical_apply_F", "relation.write_relation_csv",
                            "relation.PairRelation.complement_is_transitive") for x in notes[k]]
    value["relation.matrix_mb"] = max(matrices, default=0) / 1e6
    shape = notes[STEP][0] if notes[STEP] else (0, 0, 0)
    value["nn.params"], value["nn.decoder_params"], value["nn.matmul_flops_per_step"] = map(float, shape)
    value["optim.arrays_per_step"] = float(notes["optim.adam_step"][0]) if notes["optim.adam_step"] else 0.0
    value["train.checkpoint_mb"] = sum(notes["train.save_checkpoint"]) / 1e6
    value["analysis.pairs_checked"] = float(sum(notes["analysis.verify_no_collapse"]))
    value["analysis.distance_csv_mb"] = sum(notes["analysis.write_distance_csv"]) / 1e6

    # one training step: from one loss_and_grads start to the next within a train() call
    samples = defaultdict(list)
    step_of = {}
    for i, (name, _, _, parent) in enumerate(spans):
        step_of[i] = i if name == STEP else step_of.get(parent)
    inside = defaultdict(lambda: defaultdict(float))
    for i, (name, *_) in enumerate(spans):
        if step_of[i] is not None and step_of[i] != i:
            inside[name][step_of[i]] += dur[i]
    children = defaultdict(list)
    for i, (name, _, _, parent) in enumerate(spans):
        children[parent].append(i)
    value["train.data_s"], value["train.evals"] = 0.0, 0.0
    for t, (name, start, _, parent) in enumerate(spans):
        if name != "train.train":
            continue
        if parent >= 0 and spans[parent][0] == "cli.cmd_train":
            value["train.data_s"] += start - spans[parent][1]
        kids = children[t]
        steps = [i for i in kids if spans[i][0] == STEP]
        adams = [i for i in kids if spans[i][0] == "optim.adam_step"]
        for s in steps:
            for metric, span in IN_STEP.items():
                samples[metric].append(inside[span][s] * MS)
            samples["autodiff.backward_ms"].append((dur[s] - inside["nn.joint_loss"][s]) * MS)
        samples["optim.adam_ms"] += [dur[a] * MS for a in adams]
        for s, nxt, a in zip(steps, steps[1:], adams):
            step = spans[nxt][1] - spans[s][1]
            samples["train.step_ms"].append(step * MS)
            samples["train.gather_ms"].append((step - dur[s] - dur[a]) * MS)
        # an evaluation encodes the held-out batch, then scores centroid accuracy
        evals = [i for i in kids if spans[i][0] in ("nn.encode", "analysis.nearest_centroid_accuracy")]
        samples["train.eval_ms"] += [(dur[a] + dur[b]) * MS for a, b in zip(evals[0::2], evals[1::2])]
        value["train.evals"] += len(evals) // 2
    return value, samples


def layer_metrics(rounds: list[Tracer], startup_s: float, overhead_s: float) -> dict[str, float]:
    """Medians over traced rounds; per-step figures pool every step of every round."""
    per_round = [round_metrics(t) for t in rounds]
    out = {k: statistics.median(v[k] for v, _ in per_round) for k in per_round[0][0]}
    pooled = defaultdict(list)
    for _, samples in per_round:
        for k, xs in samples.items():
            pooled[k] += xs
    for k in (*IN_STEP, "autodiff.backward_ms", "optim.adam_ms", "train.step_ms", "train.gather_ms", "train.eval_ms"):
        out[k] = statistics.median(pooled[k]) if pooled[k] else 0.0
    steps = sorted(pooled["train.step_ms"])
    out["train.step_ms_p99"] = steps[min(len(steps) - 1, int(0.99 * len(steps)))] if steps else 0.0
    out["train.steps"] = float(len(steps))
    out["cli.startup_s"] = startup_s
    out["trace.overhead_s"] = overhead_s
    return {k: out[k] for k in PER_LAYER}


def spans_record(rounds: list[Tracer], origin: float) -> dict:
    return {
        "fields": ["name", "start_s", "end_s", "parent"],
        "rounds": [[[n, round(s - origin, 7), round(e - origin, 7), p] for n, s, e, p in t.spans] for t in rounds],
    }
