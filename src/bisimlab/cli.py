"""Command-line entry point: reproducible experiment pipelines.

Subcommands: bisim, empirical-bisim, collect, train, analyze, verify. Every
run writes a manifest.json with the resolved config, seed, and sha256 hashes
of the artifacts it produced. Exit codes: 0 success, 2 validation error,
3 verification failed, 4 divergence.

The front end runs on a small part of the standard library. Importing this
module, --help, argparse's usage errors and the flag checks made before any
input is read run `presets` and no other bisimlab module, import argparse,
gc, math, sys and pathlib, and never import numpy. So the handlers reach the
library through its lazily registered modules (`dataset.load_dataset`: a
name imported from `dataset` would run that module here), the helpers that
build arrays import numpy in their bodies, and json, hashlib, dataclasses
and typing are imported where an output is written or a --config file is
read. Each command imports numpy when it first reaches another module.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from pathlib import Path

from bisimlab import analysis, bisim, counting_env, dataset, mdp, nn, presets, relation, train as training

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFY_FAILED = 3
EXIT_DIVERGENCE = 4


def __getattr__(name: str):
    # bench/test_bench.py reads cli.write_relation_csv, and must get a wrapper installed in relation
    if name == "write_relation_csv":
        return relation.write_relation_csv
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _sha256(path: Path) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):  # a whole relation.csv, O(|O|^2) bytes, would be a second copy
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, config: dict, artifacts: list[Path]) -> None:
    import json

    manifest = {
        "config": config,
        "artifacts": {p.name: _sha256(p) for p in sorted(artifacts)},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _report(summary: dict, path: Path | None = None) -> None:
    """Print the summary as one JSON line, and write it indented to `path` when one is given."""
    import json

    if path is not None:
        path.write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary))


def _input_error(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_VALIDATION


def _load_mdp(args) -> mdp.DeterministicMDP:
    """The --counting or --mdp MDP; ValueError, before numpy loads, unless exactly one of them is given."""
    if args.counting and args.mdp is not None:
        raise ValueError("--mdp and --counting each name an MDP; give one")
    if args.counting:
        return mdp.counting_abstract_mdp(*args.counting)
    if args.mdp is None:
        raise ValueError("one of --mdp / --counting is required")
    return mdp.load_mdp_json(args.mdp)


def _check_aux_tol(value: float) -> None:
    """ValueError unless --aux-tol is a finite number >= 0."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"--aux-tol must be a finite number >= 0, not {value!r}")


def _check_sample_size(value: int) -> None:
    """ValueError unless --sample-size is at least 1."""
    if value < 1:
        raise ValueError(f"--sample-size must be >= 1, not {value}")


def cmd_bisim(args) -> int:
    try:
        _check_aux_tol(args.aux_tol)
        task = _load_mdp(args)
    except (ValueError, OSError) as exc:
        return _input_error(exc)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.engine == "naive":
        rel, iterations, _ = bisim.least_fixed_point(task, args.aux_tol)
        part = bisim.quotient(rel, task, args.aux_tol)
    else:
        part, iterations = bisim.partition_refine_with_rounds(task, args.aux_tol)
        rel = bisim.partition_to_relation(part)
    verified = bisim.is_fixed_point(task, part, args.aux_tol)
    rel_path, part_path = out / "relation.csv", out / "partition.csv"
    relation.write_relation_csv(rel, str(rel_path))
    relation.write_partition_csv(part, str(part_path))
    summary = {
        "num_blocks": part.num_blocks,
        "iterations": iterations,
        "fixed_point_verified": bool(verified),
        "num_pairs": rel.count(),
        "engine": args.engine,
    }
    summary_path = out / "summary.json"
    _report(summary, summary_path)
    _write_manifest(out, {"command": "bisim", "engine": args.engine, "aux_tol": args.aux_tol,
                          "counting": args.counting, "mdp": args.mdp},
                    [rel_path, part_path, summary_path])
    return EXIT_OK


def cmd_empirical_bisim(args) -> int:
    try:
        _check_aux_tol(args.aux_tol)
        ds = dataset.load_dataset(args.dataset)
        r_star_d, index = bisim.empirical_lfp(ds, args.aux_tol)
    except (OSError, ValueError) as exc:
        return _input_error(exc)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rel_path = out / "relation.csv"
    relation.write_relation_csv(r_star_d, str(rel_path), index.obs_ids)
    summary = {
        "num_sources": index.num_sources,
        "pairs_in_R": r_star_d.count(),
        "transitive_complement": r_star_d.complement_is_transitive(),
    }
    summary_path = out / "summary.json"
    _report(summary, summary_path)
    _write_manifest(out, {"command": "empirical-bisim", "dataset": args.dataset,
                          "aux_tol": args.aux_tol}, [rel_path, summary_path])
    return EXIT_OK


def cmd_collect(args) -> int:
    try:
        config = counting_env.CountingEnvConfig(max_count=args.max_count, target_n=args.target_n,
                                                image_size=args.image_size, channels=args.channels, seed=args.seed)
        collected = counting_env.collect_dataset(config, steps=args.steps, action_repeat=args.action_repeat)
    except ValueError as exc:
        return _input_error(exc)
    from dataclasses import asdict

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds_path, frames_path = out / "dataset.bslb", out / "frames.bsli"
    dataset.save_dataset(collected.dataset, str(ds_path))
    dataset.save_frame_sidecar(collected.ppm_frames(), str(frames_path))
    _write_manifest(out, {"command": "collect", "env": asdict(config),
                          "steps": args.steps, "action_repeat": args.action_repeat,
                          "seed": args.seed}, [ds_path, frames_path])
    _report({"records": len(collected.dataset)})
    return EXIT_OK


def _load_collected(dataset_path: str, channels: int) -> counting_env.CollectedData:
    """The dataset and its frames.bsli; OSError or ValueError when either is missing or malformed,
    or the dataset holds no records."""
    import numpy as np

    ds = dataset.load_dataset(dataset_path)
    if not len(ds):
        raise ValueError(f"{dataset_path}: holds no records")
    errors = ds.validate()
    if errors:
        raise ValueError(f"{dataset_path}: " + "; ".join(errors))
    frames_path = str(Path(dataset_path).with_name("frames.bsli"))
    blobs = dataset.load_frame_sidecar(frames_path)
    if len(blobs) != 2 * len(ds):
        raise ValueError(f"{frames_path}: {len(blobs)} frames for {len(ds)} records")
    src = np.stack([dataset.parse_ppm(blobs[2 * k], channels) for k in range(len(ds))])
    succ = np.stack([dataset.parse_ppm(blobs[2 * k + 1], channels) for k in range(len(ds))])
    return counting_env.CollectedData(dataset=ds, source_frames=src, successor_frames=succ)


def cmd_train(args) -> int:
    flags = {"steps": args.steps, "c_p": args.c_p, "latent_dim": args.latent_dim, "aux_mode": args.aux,
             "dyn_loss_enabled": False if args.no_dyn_loss else None}
    overrides = {**args.config_extras, **{k: v for k, v in flags.items() if v is not None}}
    try:
        if args.dataset is not None and args.preset == "tabular_counting":
            raise ValueError("--dataset holds image records, and the tabular_counting preset trains on one-hot states")
        config = presets.preset_train_config(args.preset, args.seed, **overrides)
        if args.dataset is not None:  # frames decoded with the channels the presets collect
            collected = _load_collected(args.dataset, presets.IMAGE_CHANNELS)
            data = training.collected_train_data(collected)
        else:
            data = presets.preset_data(args.preset, args.seed)
    except (OSError, ValueError) as exc:
        return _input_error(exc)
    try:
        result = training.train(config, data)
    except training.DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt_path, metrics_path = out / "checkpoint.pjpa", out / "metrics.jsonl"
    echo = nn.model_config_echo(result.best_params, config)
    nn.save_checkpoint(result.best_params, echo, str(ckpt_path))
    result.write_metrics_jsonl(str(metrics_path))
    _write_manifest(out, {"command": "train", "preset": args.preset, "seed": args.seed,
                          "train_config": echo["train_config"]},
                    [ckpt_path, metrics_path])
    _report({"best_centroid_acc": result.best_centroid_acc, "best_step": result.best_step,
             "best_eval_dyn_loss": result.best_eval.dyn_loss, "best_eval_aux_loss": result.best_eval.aux_loss,
             "final": result.metrics[-1] if result.metrics else None})
    return EXIT_OK


def _embeddings_for_checkpoint(args, params) -> tuple[analysis.EmbeddingSet, dataset.TransitionDataset | None]:
    """Latents of min(--sample-size, n) of the n one-hot states or --dataset
    source frames, drawn with --seed, and the dataset (None for a one-hot
    checkpoint); OSError or ValueError when the dataset is given to a one-hot
    checkpoint, or is absent, missing or malformed for an image one."""
    import numpy as np

    ds = None
    if params.config.obs_kind == "onehot":
        if args.dataset is not None:
            raise ValueError("a one-hot checkpoint embeds every state and reads no --dataset")
        n = params.config.obs_shape[0]
        obs, labels = np.eye(n), np.arange(n)
    elif args.dataset is None:
        raise ValueError("image checkpoints need --dataset")
    else:
        collected = _load_collected(args.dataset, params.config.obs_shape[0])
        ds = collected.dataset
        obs, labels = collected.source_frames, ds.sources
    idx = np.random.default_rng(args.seed).choice(len(labels), size=min(args.sample_size, len(labels)), replace=False)
    sample = obs[idx] if ds is None else obs[idx] / 255.0
    return analysis.EmbeddingSet(vectors=nn.encode(params, sample), labels=labels[idx]), ds


def cmd_analyze(args) -> int:
    try:
        _check_sample_size(args.sample_size)
        params, _ = nn.load_checkpoint(args.checkpoint)
        embs, _ = _embeddings_for_checkpoint(args, params)
        proj, fractions, _ = analysis.pca_2d(embs)
    except (OSError, ValueError) as exc:
        return _input_error(exc)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dm = analysis.pairwise_distances(embs)
    pca_path, dist_path, heat_path = out / "pca.csv", out / "distances.csv", out / "heatmap.ppm"
    analysis.write_pca_csv(proj, embs.labels, str(pca_path))
    analysis.write_distance_csv(dm, str(dist_path))
    analysis.write_heatmap_ppm(dm, str(heat_path))
    summary = {
        "nearest_centroid_accuracy": analysis.nearest_centroid_accuracy(embs.vectors, embs.labels),
        "collapse_ratio": analysis.collapse_ratio(embs.vectors, embs.labels),
        "explained_variance": fractions.tolist(),
    }
    summary_path = out / "analysis.json"
    _report(summary, summary_path)
    _write_manifest(out, {"command": "analyze", "checkpoint": args.checkpoint,
                          "dataset": args.dataset, "seed": args.seed},
                    [pca_path, dist_path, heat_path, summary_path])
    return EXIT_OK


def _check_fits_mdp(params, ds: dataset.TransitionDataset | None, task: mdp.DeterministicMDP) -> None:
    """ValueError unless the checkpoint's observations are the MDP's: a one-hot
    checkpoint must encode its |O| states, and a dataset must declare its |O|,
    |A| and aux width and hold, in every record, the MDP's successor and the
    source's aux."""
    import numpy as np

    if ds is None:
        if params.config.obs_shape[0] != task.num_observations:
            raise ValueError(f"checkpoint encodes {params.config.obs_shape[0]} one-hot observations, "
                             f"the MDP has {task.num_observations}")
        return
    have = (ds.num_observations, ds.num_actions, ds.aux_dim)
    want = (task.num_observations, task.num_actions, task.aux_dim)
    if have != want:
        raise ValueError(f"the dataset has |O|, |A|, aux width {have}, the MDP {want}")
    successors, aux = task.transition[ds.sources, ds.actions], task.aux[ds.sources]
    wrong = np.flatnonzero((ds.successors != successors) | (ds.aux != aux).any(axis=1))
    if wrong.size:
        k = wrong[0]
        raise ValueError(f"dataset record {k} ({ds.sources[k]}, {ds.actions[k]}) goes to {ds.successors[k]} with aux "
                         f"{ds.aux[k].tolist()}, where the MDP goes to {successors[k]} with aux {aux[k].tolist()}")


def _eps_collapse(value) -> float | None:
    """None for "auto" (verify_no_collapse then derives it), else a finite number >= 0."""
    if value == "auto":
        return None
    try:
        eps = float(value)
    except (TypeError, ValueError):
        eps = math.nan
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"--eps-collapse must be auto or a finite number >= 0, not {value!r}")
    return eps


def cmd_verify(args) -> int:
    try:
        eps_collapse = _eps_collapse(args.eps_collapse)
        _check_sample_size(args.sample_size)
        task = _load_mdp(args)
        params, _ = nn.load_checkpoint(args.checkpoint)
        embs, ds = _embeddings_for_checkpoint(args, params)
        _check_fits_mdp(params, ds, task)
        part = bisim.partition_refine(task)
        report = analysis.verify_no_collapse(embs, part, eps_collapse)
        if part.num_blocks > 1 and not report.pairs_checked:
            raise ValueError(f"no pair of the {len(embs)} sampled embeddings lies in different blocks of the MDP's "
                             f"{part.num_blocks}, so none would be checked; raise --sample-size")
    except (OSError, ValueError) as exc:
        return _input_error(exc)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "collapse_report.json"
    report_path.write_text(report.to_json())
    _write_manifest(out, {"command": "verify", "checkpoint": args.checkpoint,
                          "eps_collapse": args.eps_collapse, "counting": args.counting,
                          "mdp": args.mdp, "seed": args.seed}, [report_path])
    print(report.to_json())
    return EXIT_OK if report.verdict == "pass" else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bisimlab")
    parser.add_argument("--config", help="JSON config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", default="out")

    p = sub.add_parser("bisim", help="exact largest bisimulation of a tabular MDP")
    p.add_argument("--out-dir", default="out")
    p.add_argument("--mdp", help="MDP JSON file")
    p.add_argument("--counting", nargs=2, type=int, metavar=("MAX_COUNT", "TARGET_N"))
    p.add_argument("--engine", choices=("naive", "refine"), default="refine")
    p.add_argument("--aux-tol", type=float, default=0.0)
    p.set_defaults(func=cmd_bisim)

    p = sub.add_parser("empirical-bisim", help="empirical largest bisimulation of a dataset")
    p.add_argument("--out-dir", default="out")
    p.add_argument("--dataset", required=True)
    p.add_argument("--aux-tol", type=float, default=0.0)
    p.set_defaults(func=cmd_empirical_bisim)

    p = sub.add_parser("collect", help="roll a random policy in the counting environment")
    add_common(p)
    p.add_argument("--steps", type=int, default=presets.IMAGE_COLLECT_STEPS)
    p.add_argument("--action-repeat", type=int, default=presets.IMAGE_ACTION_REPEAT)
    p.add_argument("--max-count", type=int, default=presets.MAX_COUNT)
    p.add_argument("--target-n", type=int, default=presets.TARGET_N)
    p.add_argument("--image-size", type=int, default=presets.IMAGE_SIZE)
    p.add_argument("--channels", type=int, default=presets.IMAGE_CHANNELS)
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("train", help="train a preset")
    add_common(p)
    p.add_argument("--preset", choices=presets.PRESET_NAMES, default="tabular_counting")
    p.add_argument("--steps", type=int)
    p.add_argument("--c-p", type=float)
    p.add_argument("--latent-dim", type=int)
    p.add_argument("--aux", help="reward | random:<dim> | none")
    p.add_argument("--no-dyn-loss", action="store_true")
    p.add_argument("--dataset", help="pre-collected dataset.bslb (frames.bsli beside it)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("analyze", help="embedding diagnostics for a checkpoint")
    add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset")
    p.add_argument("--sample-size", type=int, default=256)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="no-collapse check against a computed bisimulation")
    add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mdp")
    p.add_argument("--counting", nargs=2, type=int, metavar=("MAX_COUNT", "TARGET_N"))
    p.add_argument("--dataset")
    p.add_argument("--sample-size", type=int, default=256)
    p.add_argument("--eps-collapse", default="auto")
    p.set_defaults(func=cmd_verify)
    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str] | None,
                       args: argparse.Namespace) -> argparse.Namespace:
    """Parse again with the --config file's keys as the chosen subcommand's
    defaults, so flags given on the command line win. Keys that name no flag
    of any subcommand are checked against TrainConfig (read only then, so a
    file of flags alone runs no training module), and the TrainConfig fields
    among them are kept in `config_extras` for train, lists as tuples.
    ValueError on a key that is neither a flag of any subcommand nor a
    TrainConfig field, and on a value of the wrong JSON type for its flag or
    TrainConfig field."""
    import json
    import typing

    values = json.loads(Path(args.config).read_text())
    if not isinstance(values, dict):
        raise ValueError(f"{args.config}: not a JSON object")
    values = {key.replace("-", "_"): value for key, value in values.items()}
    (subparsers,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {a.dest for a in sub._actions if a.dest != "help"} for name, sub in subparsers.items()}
    own, any_flag = flags[args.command], set().union(*flags.values())
    fields = typing.get_type_hints(training.TrainConfig) if set(values) - any_flag else {}
    unknown = sorted(set(values) - any_flag - set(fields))
    if unknown:
        raise ValueError(f"{args.config}: unknown keys {', '.join(unknown)}")
    for action in subparsers[args.command]._actions:
        if action.dest not in values:
            continue
        if action.choices and values[action.dest] not in action.choices:
            raise ValueError(f"{args.config}: {action.dest} must be one of {', '.join(action.choices)}")
        _check_flag(args.config, action, values[action.dest])
    subparsers[args.command].set_defaults(**{k: v for k, v in values.items() if k in own})
    args = parser.parse_args(argv)
    args.config_extras = {k: _typed(args.config, k, v, fields[k]) for k, v in values.items()
                          if k in fields and k not in own}
    return args


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is no number


# a flag's or TrainConfig field's type -> what its config-file value must be, and how errors name it
_JSON_TYPES = {
    int: (_is_int, "an integer"),
    float: (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
    tuple[int, ...]: (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
}


def _typed(path: str, key: str, value, kind):
    """A config-file value for a flag or TrainConfig field of type `kind`
    (None: no type to check), a list made a tuple; ValueError when its JSON
    type does not fit."""
    import json

    if kind is None:
        return value
    fits, name = _JSON_TYPES[kind]
    if not fits(value):
        raise ValueError(f"{path}: {key} must be {name}, got {json.dumps(value)}")
    return tuple(value) if isinstance(value, list) else value


# untyped flags that take a number as well as a string ("auto" or an eps)
_UNTYPED_FLAGS = {"eps_collapse": float}


def _check_flag(path: str, action: argparse.Action, value) -> None:
    """ValueError when a config-file value does not fit its flag: true or
    false for a switch, a list of `nargs` values of the flag's type for a
    flag that takes several, else a value of its type (a string, or what
    _UNTYPED_FLAGS names, for an untyped flag). A string for a typed flag is left to argparse to convert,
    and null stands for a flag whose default is None."""
    import json

    if value is None and action.default is None:
        return
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        _typed(path, action.dest, value, bool)
    elif action.nargs is None:
        if not isinstance(value, str):
            _typed(path, action.dest, value, action.type or _UNTYPED_FLAGS.get(action.dest, str))
    elif not (isinstance(value, list) and len(value) == action.nargs):
        raise ValueError(f"{path}: {action.dest} must be a list of {action.nargs} values, got {json.dumps(value)}")
    else:
        for item in value:
            _typed(path, action.dest, item, action.type or str)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.config_extras = {}
    if args.config:
        try:
            args = _apply_config_file(parser, argv, args)
        except (OSError, ValueError) as exc:
            return _input_error(exc)
    return args.func(args)


def run() -> None:
    """The process entry of `python -m bisimlab.cli` and of the `bisimlab` script.

    Exits with main()'s code. On every way out (a returned code, argparse's
    SystemExit, an uncaught exception) it first freezes the live heap, so the
    full collections the interpreter runs at teardown skip it: once numpy is
    loaded, each such walk over objects that are not garbage costs about 5 ms.
    main() itself never freezes, since a caller that runs it many times in one
    process would never free frozen garbage.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
