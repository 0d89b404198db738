import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import bisimlab
from bisimlab import cli, nn
from bisimlab.cli import main
from bisimlab.dataset import TransitionDataset, load_dataset, load_frame_sidecar, save_dataset, save_frame_sidecar
from bisimlab.mdp import DeterministicMDP, counting_abstract_mdp, random_mdp, save_mdp_json
from bisimlab.train import collected_train_data


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bisim_counting(tmp_path, capsys):
    out = str(tmp_path / "out")
    code, stdout, _ = run(["bisim", "--counting", "8", "4", "--out-dir", out], capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert summary["num_blocks"] == 9
    assert summary["num_pairs"] == 72
    assert summary["fixed_point_verified"] is True
    for name in ("relation.csv", "partition.csv", "summary.json", "manifest.json"):
        assert os.path.exists(os.path.join(out, name))
    part_lines = open(os.path.join(out, "partition.csv")).read().splitlines()
    assert part_lines[0] == "observation_id,block_id"
    assert len(part_lines) == 10


def test_bisim_engines_agree(tmp_path, capsys):
    rng = np.random.default_rng(5)
    mdp = random_mdp(12, 3, 2, rng)
    # spread aux values, which --aux-tol 0.5 joins through chains: 6 blocks, against 12 at tol 0
    spread = random_mdp(12, 1, 2, rng)
    aux = np.round(rng.random((12, 1)) * 3.0, 2)
    spread = dataclasses.replace(spread, aux=aux, reward=aux[:, 0].copy())
    for name, m, tol in (("exact", mdp, "0"), ("tol", spread, "0.5")):
        path = str(tmp_path / f"{name}.json")
        save_mdp_json(m, path)
        outs = {}
        for engine in ("naive", "refine"):
            out = str(tmp_path / name / engine)
            code, stdout, _ = run(
                ["bisim", "--mdp", path, "--engine", engine, "--aux-tol", tol, "--out-dir", out], capsys
            )
            assert code == 0
            outs[engine] = (
                json.loads(stdout),
                open(os.path.join(out, "relation.csv")).read(),
                open(os.path.join(out, "partition.csv")).read(),
            )
            assert outs[engine][0]["fixed_point_verified"] is True
            assert outs[engine][0]["num_blocks"] == {"exact": 12, "tol": 6}[name]
        assert outs["naive"][0]["num_pairs"] == outs["refine"][0]["num_pairs"]
        assert outs["naive"][1] == outs["refine"][1]
        assert outs["naive"][2] == outs["refine"][2]


def test_bisim_requires_source(tmp_path, capsys):
    code, _, err = run(["bisim", "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "required" in err


def test_bisim_bad_mdp_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["bisim", "--mdp", str(bad), "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert not (tmp_path / "out").exists()


def test_bisim_missing_mdp_file_exits_2(tmp_path, capsys):
    code, _, err = run(["bisim", "--mdp", str(tmp_path / "absent.json"), "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_collect_then_empirical_bisim(tmp_path, capsys):
    data_dir = str(tmp_path / "data")
    code, stdout, _ = run(
        ["collect", "--steps", "200", "--image-size", "16", "--out-dir", data_dir], capsys
    )
    assert code == 0
    assert json.loads(stdout)["records"] == 200

    out = str(tmp_path / "emp")
    code, stdout, _ = run(
        ["empirical-bisim", "--dataset", os.path.join(data_dir, "dataset.bslb"),
         "--out-dir", out], capsys
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["num_sources"] >= 2
    assert summary["pairs_in_R"] >= 0
    first = open(os.path.join(out, "relation.csv")).read().splitlines()[0]
    assert first == "i,j"


def test_collect_is_reproducible(tmp_path, capsys):
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _, _ = run(
            ["collect", "--steps", "50", "--image-size", "16",
             "--seed", "3", "--out-dir", str(out)], capsys
        )
        assert code == 0
        digests.append(hashlib.sha256((out / "dataset.bslb").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


# sha256 of (dataset.bslb, frames.bsli) for `collect --steps 300 --seed <seed> --channels <channels>`;
# a change to the collector that moves any draw, count or pixel moves them
COLLECT_DIGESTS = {
    (0, 1): ("976363f48bc3f8f776571a8442d6ceb12e0f5a54f047756b59f21c416c5f70e1",
             "481e7d443413aa8d63c8e57955bd145f51d5e75c7b71bdf8159d7fc1682f1f93"),
    (0, 3): ("976363f48bc3f8f776571a8442d6ceb12e0f5a54f047756b59f21c416c5f70e1",
             "c0e0824ec5c959dbb045c10a3983dcf55adc660c43c24bc8d1e9808816f3d69f"),
    (5, 1): ("5d2e5bbdfab030d5a7a298ab93754a330e493114c608374721b043282061a3ad",
             "c7a2f23bfd99c67891082fff90f4d3a6b0638c107aca73c14d2f281a35e94bb7"),
    (5, 3): ("5d2e5bbdfab030d5a7a298ab93754a330e493114c608374721b043282061a3ad",
             "027e5c96d6772acc9686c5e1ee71256bde4c800c8caf57a3fbe38a834e0e4b9d"),
}


@pytest.mark.parametrize("seed, channels", list(COLLECT_DIGESTS))
def test_collect_writes_the_pinned_bytes(tmp_path, capsys, seed, channels):
    out = tmp_path / "data"
    code, _, _ = run(["collect", "--steps", "300", "--seed", str(seed), "--channels", str(channels),
                      "--out-dir", str(out)], capsys)
    assert code == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("dataset.bslb", "frames.bsli"))
    assert digests == COLLECT_DIGESTS[seed, channels]


def test_empirical_bisim_missing_dataset(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["empirical-bisim", "--out-dir", str(tmp_path)])


def test_train_analyze_verify_tabular(tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    code, stdout, _ = run(
        ["train", "--preset", "tabular_counting", "--steps", "300", "--out-dir", run_dir],
        capsys,
    )
    assert code == 0
    payload = json.loads(stdout)
    assert 0.0 <= payload["best_centroid_acc"] <= 1.0
    ckpt = os.path.join(run_dir, "checkpoint.pjpa")
    assert os.path.exists(ckpt)
    metrics = [json.loads(l) for l in open(os.path.join(run_dir, "metrics.jsonl"))]
    assert metrics[-1]["step"] == 300
    assert list(metrics[-1]) == ["step", "dyn_loss", "aux_loss", "total", "decoder_loss", "centroid_acc"]

    an_dir = str(tmp_path / "analysis")
    code, stdout, _ = run(["analyze", "--checkpoint", ckpt, "--out-dir", an_dir], capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert set(summary) == {"nearest_centroid_accuracy", "collapse_ratio", "explained_variance"}
    for name in ("pca.csv", "distances.csv", "heatmap.ppm", "analysis.json"):
        assert os.path.exists(os.path.join(an_dir, name))

    # an undertrained model at a tight epsilon should fail verification (exit 3)
    v_dir = str(tmp_path / "verify")
    code, stdout, _ = run(
        ["verify", "--checkpoint", ckpt, "--counting", "8", "4",
         "--eps-collapse", "1000.0", "--out-dir", v_dir], capsys
    )
    assert code == 3
    report = json.loads(open(os.path.join(v_dir, "collapse_report.json")).read())
    assert report["verdict"] == "fail"
    assert report["pairs_checked"] == 36

    # and pass at epsilon 0 (all distances are >= 0, none strictly below)
    code, stdout, _ = run(
        ["verify", "--checkpoint", ckpt, "--counting", "8", "4",
         "--eps-collapse", "0.0", "--out-dir", v_dir], capsys
    )
    assert code == 0


def test_train_summary_names_the_saved_step_and_its_losses(tmp_path, capsys):
    from bisimlab.train import tabular_train_data

    run_dir = tmp_path / "run"
    code, stdout, _ = run(["train", "--preset", "tabular_counting", "--steps", "1200", "--out-dir", str(run_dir)],
                          capsys)
    assert code == 0
    summary = json.loads(stdout)
    # evaluations run at steps 500, 1000 and 1200; the checkpoint holds the first that reached the best accuracy
    rows = {row["step"]: row for row in map(json.loads, (run_dir / "metrics.jsonl").read_text().splitlines())}
    assert summary["best_step"] == next(step for step in (500, 1000, 1200)
                                        if rows[step]["centroid_acc"] == summary["best_centroid_acc"])
    # the losses are the checkpoint's, averaged over an evaluation sample of the 18 (state, action) records
    params, _ = nn.load_checkpoint(str(run_dir / "checkpoint.pjpa"))
    data = tabular_train_data(counting_abstract_mdp(8, 4))
    z = nn.encode(params, data.obs)
    dyn = np.mean((nn.predict_next(params, z, data.actions) - nn.encode(params, data.next_obs)) ** 2, axis=1)
    aux = np.mean((nn.aux_predict(params, z) - data.reward_aux) ** 2, axis=1)
    for key, per_record in (("best_eval_dyn_loss", dyn), ("best_eval_aux_loss", aux)):
        assert per_record.min() <= summary[key] <= per_record.max()


def test_train_divergence_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"base_lr": 1e120}))
    code, _, err = run(
        ["--config", str(cfg), "train", "--preset", "tabular_counting",
         "--steps", "50", "--out-dir", str(tmp_path / "out")], capsys
    )
    assert code == 4
    assert "diverged" in err
    assert not (tmp_path / "out").exists()


def test_train_reruns_identical(tmp_path, capsys):
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _, _ = run(
            ["train", "--preset", "tabular_counting", "--steps", "100",
             "--out-dir", str(out)], capsys
        )
        assert code == 0
        digests.append(
            (
                hashlib.sha256((out / "checkpoint.pjpa").read_bytes()).hexdigest(),
                (out / "metrics.jsonl").read_text(),
            )
        )
    assert digests[0] == digests[1]


def test_manifest_hashes(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = run(["bisim", "--counting", "2", "1", "--out-dir", str(out)], capsys)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for name, digest in manifest["artifacts"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert actual == digest


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"engine": "naive", "aux_tol": 0.0}))
    out = str(tmp_path / "out")
    code, stdout, _ = run(
        ["--config", str(cfg), "bisim", "--counting", "2", "1", "--out-dir", out], capsys
    )
    assert code == 0
    assert json.loads(stdout)["engine"] == "naive"
    # an explicit flag wins over the config file
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps({"steps": 80}))
    run_dir = str(tmp_path / "run")
    code, stdout, _ = run(
        ["--config", str(cfg2), "train", "--preset", "tabular_counting",
         "--steps", "40", "--out-dir", run_dir], capsys
    )
    assert code == 0
    metrics = [json.loads(l) for l in open(os.path.join(run_dir, "metrics.jsonl"))]
    assert metrics[-1]["step"] == 40


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# records the BLAS thread variables at the moment numpy is first imported,
# which is inside a command: importing the CLI does not import numpy
NUMPY_IMPORT_SPY = f"""
import json, os, sys
seen = {{}}
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({{v: os.environ.get(v) for v in {THREAD_VARS!r}}})
assert "numpy" not in sys.modules
sys.meta_path.insert(0, Spy())
from bisimlab.cli import main
assert main(["bisim", "--counting", "2", "1", "--out-dir", sys.argv[1]]) == 0
print(json.dumps(seen))
"""


def python_with_src(code: str, *args: str, env: dict | None = None):
    """The JSON on the last stdout line of a fresh interpreter running `code`
    with this checkout's bisimlab importable."""
    env = dict(os.environ if env is None else env)
    src = str(Path(bisimlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_thread_cap_env(tmp_path):
    # OpenBLAS reads its thread count when numpy loads, so BISIMLAB_THREADS
    # must be copied into the BLAS variables before that first import
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["BISIMLAB_THREADS"] = "1"
    assert python_with_src(NUMPY_IMPORT_SPY, str(tmp_path / "out"), env=env) == {v: "1" for v in THREAD_VARS}


# runs each argv through main in one fresh interpreter; after each: its exit code, and which of
# numpy and the standard library's heavier modules are loaded. The probe reads its argvs with ast
# and imports json only to print, once every run is done.
FRONT_END_PROBE = """
import ast, sys
from bisimlab.cli import main

def loaded():
    return [name for name in ("numpy", "json", "hashlib", "dataclasses") if name in sys.modules]

runs = [("import", None, loaded())]
for argv in ast.literal_eval(sys.argv[1]):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    runs.append((argv, code, loaded()))
import json
print(json.dumps(runs))
"""


# flags checked before any input is read: the checkpoint named here does not exist
FLAG_CHECKS_BEFORE_INPUT = [
    ["verify", "--checkpoint", "x.pjpa", "--counting", "8", "4", "--eps-collapse", "-1"],
    ["verify", "--checkpoint", "x.pjpa", "--counting", "8", "4", "--sample-size", "0"],
    ["analyze", "--checkpoint", "x.pjpa", "--sample-size", "0"],
]


def test_front_end_runs_without_numpy(tmp_path):
    # --help, usage errors and flag checks need no array and write no JSON: a cold start pays
    # for neither numpy nor json, hashlib or dataclasses
    out = str(tmp_path / "out")
    helps = [["--help"]] + [[command, "--help"] for command in
                            ("bisim", "empirical-bisim", "collect", "train", "analyze", "verify")]
    errors = [["train", "--preset", "nope", "--out-dir", out], ["bisim", "--out-dir", out],
              ["bisim", "--counting", "8", "4", "--aux-tol", "-1", "--out-dir", out],
              ["verify", "--checkpoint", "x.pjpa", "--out-dir", out],
              ["bisim", "--mdp", "x.json", "--counting", "8", "4", "--out-dir", out],
              ["train", "--preset", "tabular_counting", "--dataset", "x.bslb", "--out-dir", out],
              *([*argv, "--out-dir", out] for argv in FLAG_CHECKS_BEFORE_INPUT)]
    runs = python_with_src(FRONT_END_PROBE, repr(helps + errors))
    assert runs == [["import", None, []]] + [[argv, 0, []] for argv in helps] + \
        [[argv, 2, []] for argv in errors]
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", FLAG_CHECKS_BEFORE_INPUT)
def test_flag_checked_before_any_input_exits_2_naming_it(tmp_path, capsys, argv):
    code, _, err = run([*argv, "--out-dir", str(tmp_path / "out")], capsys)
    flag = argv[-2]
    assert code == 2
    assert err.startswith(f"error: {flag} must be"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["bisim", "--counting", "8", "4", "--seed", "1"],
                                  ["empirical-bisim", "--dataset", "x.bslb", "--seed", "1"],
                                  ["train", "--collect-steps", "600"]])
def test_flag_that_nothing_reads_is_a_usage_error(tmp_path, capsys, argv):
    # bisim and empirical-bisim draw nothing at random; collect --steps then train --dataset sets the pixels
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: bisimlab") and f"unrecognized arguments: {' '.join(argv[-2:])}" in err
    assert not (tmp_path / "out").exists()


def test_config_file_seed_is_left_to_the_commands_that_read_it(tmp_path):
    # a key of another subcommand's flag is neither an error nor a reason to run the training modules
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"seed": 3}))
    code, ran = python_with_src(MODULES_RUN_PROBE, "--config", str(cfg), "bisim", "--counting", "8", "4",
                                "--out-dir", str(tmp_path / "out"))
    assert code == 0
    assert set(ran) == FRONT_END | {"bisim", "mdp", "relation"}


def test_collect_defaults_are_the_image_presets_collection(tmp_path, capsys, monkeypatch):
    # the parser reads the presets' values, so collect then train --dataset trains on the presets' pixels
    monkeypatch.setattr(bisimlab.presets, "IMAGE_COLLECT_STEPS", 30)
    monkeypatch.setattr(bisimlab.presets, "IMAGE_ACTION_REPEAT", 2)
    out = tmp_path / "data"
    code, stdout, _ = run(["collect", "--image-size", "8", "--out-dir", str(out)], capsys)
    assert code == 0
    assert json.loads(stdout)["records"] == 30
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["steps"], config["action_repeat"]) == (30, 2)


@pytest.mark.parametrize("argv", [["analyze", "--sample-size", "0"],
                                  ["verify", "--counting", "8", "4", "--sample-size", "0"]])
def test_sample_size_below_1_exits_2_on_a_one_hot_checkpoint(tmp_path, capsys, tabular_checkpoint, argv):
    code, _, err = run([*argv, "--checkpoint", str(tabular_checkpoint), "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err == "error: --sample-size must be >= 1, not 0\n"
    assert not (tmp_path / "out").exists()


def test_one_hot_checkpoint_samples_its_states_with_sample_size_and_seed(tmp_path, capsys, tabular_checkpoint):
    # the draw an image checkpoint's --dataset frames get, over the 9 states
    drawn = {}
    for seed in (5, 6):
        out = tmp_path / f"seed{seed}"
        code, _, _ = run(["analyze", "--checkpoint", str(tabular_checkpoint), "--sample-size", "3", "--seed", str(seed),
                          "--out-dir", str(out)], capsys)
        assert code == 0
        labels = np.loadtxt(out / "pca.csv", delimiter=",", skiprows=1)[:, 2]
        drawn[seed] = sorted(labels.astype(int).tolist())
        assert drawn[seed] == sorted(np.random.default_rng(seed).choice(9, size=3, replace=False).tolist())
        assert len((out / "distances.csv").read_text().splitlines()) == 3
    assert drawn[5] != drawn[6]


def test_default_collect_feeds_train_visible_objects(tmp_path, capsys, monkeypatch):
    # collect's default channel count must match what train --dataset decodes,
    # or colored objects that miss the red plane come out as blank frames
    data_dir = tmp_path / "data"
    code, _, _ = run(["collect", "--steps", "120", "--out-dir", str(data_dir)], capsys)
    assert code == 0
    seen = []

    def spy(collected):
        seen.append(collected)
        return collected_train_data(collected)

    monkeypatch.setattr(bisimlab.train, "collected_train_data", spy)
    code, _, _ = run(["train", "--preset", "reward_aux", "--dataset", str(data_dir / "dataset.bslb"),
                      "--steps", "2", "--out-dir", str(tmp_path / "run")], capsys)
    assert code == 0
    (collected,) = seen
    for frames, counts in ((collected.source_frames, collected.dataset.sources),
                           (collected.successor_frames, collected.dataset.successors)):
        lit = frames.reshape(len(frames), -1).max(axis=1) > 0
        assert np.all(lit[counts > 0])
        assert not np.any(lit[counts == 0])


@pytest.fixture
def tabular_checkpoint(tmp_path):
    from bisimlab.fixtures import perfect_fit_params
    from bisimlab.train import TrainConfig, model_config_echo, save_checkpoint

    params = perfect_fit_params(counting_abstract_mdp(8, 4))
    path = tmp_path / "checkpoint.pjpa"
    save_checkpoint(params, model_config_echo(params, TrainConfig(steps=1)), str(path))
    return path


@pytest.mark.parametrize("damage", ["missing", "magic", "truncated", "trailing", "echo", "latent-dim-0",
                                    "hidden-width-0"])
@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_bad_checkpoint_exits_2(tmp_path, capsys, tabular_checkpoint, command, damage):
    raw = tabular_checkpoint.read_bytes()
    bad = tmp_path / "bad.pjpa"
    if damage == "magic":
        bad.write_bytes(b"NOPE" + raw[4:])
    elif damage == "truncated":
        assert len(raw) > 300
        bad.write_bytes(raw[:300])
    elif damage == "trailing":
        bad.write_bytes(raw + b"\x00\x00")
    elif damage == "echo":
        bad.write_bytes(raw[:12] + b"X" + raw[13:])
    elif damage in ("latent-dim-0", "hidden-width-0"):  # zero-size layers, with tensors of the shapes they imply
        _, echo = nn.load_checkpoint(str(tabular_checkpoint))
        sizes = echo["model_config"]
        sizes.update({"latent-dim-0": {"latent_dim": 0}, "hidden-width-0": {"encoder_hidden": [0]}}[damage])
        shapes = nn.param_shapes(SimpleNamespace(obs_dim=math.prod(sizes["obs_shape"]), **sizes))
        nn.save_checkpoint({name: np.zeros(shape) for name, shape in shapes.items()}, echo, str(bad))
    argv = [command, "--checkpoint", str(bad), "--out-dir", str(tmp_path / "out")]
    if command == "verify":
        argv += ["--counting", "8", "4"]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: ")
    if damage in ("latent-dim-0", "hidden-width-0"):
        assert "bad model config" in err
    assert not (tmp_path / "out").exists()


def test_verify_fails_a_checkpoint_that_maps_every_observation_to_one_point(tmp_path, capsys):
    from bisimlab.fixtures import perfect_fit_params
    from bisimlab.train import TrainConfig

    params = perfect_fit_params(counting_abstract_mdp(8, 4))
    params["encoder.0.W"][:] = 0.0
    path = tmp_path / "collapsed.pjpa"
    nn.save_checkpoint(params, nn.model_config_echo(params, TrainConfig(steps=1)), str(path))
    code, stdout, _ = run(["verify", "--checkpoint", str(path), "--counting", "8", "4",
                           "--out-dir", str(tmp_path / "out")], capsys)
    report = json.loads(stdout)
    assert code == 3
    assert report["eps_collapse"] == 0.0 and report["min_cross_class_distance"] == 0.0
    assert report["num_violations"] == report["pairs_checked"] == 36


@pytest.mark.parametrize("counting", [("3", "1"), ("20", "1")])
def test_verify_one_hot_checkpoint_that_does_not_fit_exits_2(tmp_path, capsys, tabular_checkpoint, counting):
    # the checkpoint encodes the 9 observations of --counting 8 4
    argv = ["verify", "--checkpoint", str(tabular_checkpoint), "--counting", *counting,
            "--out-dir", str(tmp_path / "out")]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: checkpoint encodes 9 one-hot observations")
    assert not (tmp_path / "out").exists()


def test_verify_reads_the_partition_not_the_fixed_point(tmp_path, capsys, tabular_checkpoint, monkeypatch):
    def least_fixed_point(*args, **kwargs):
        raise AssertionError("verify computed R* with least_fixed_point")

    monkeypatch.setattr(cli.bisim, "least_fixed_point", least_fixed_point)
    code, stdout, _ = run(["verify", "--checkpoint", str(tabular_checkpoint), "--counting", "8", "4",
                           "--eps-collapse", "1e-9", "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 0
    assert json.loads(stdout)["pairs_checked"] == 36


@pytest.mark.parametrize("key", ["num_actions", "reward", "transition"])
def test_bisim_mdp_missing_key_exits_2(tmp_path, capsys, key):
    path = tmp_path / "mdp.json"
    save_mdp_json(random_mdp(6, 2, 2, np.random.default_rng(0)), str(path))
    payload = json.loads(path.read_text())
    del payload[key]
    path.write_text(json.dumps(payload))
    code, _, err = run(["bisim", "--mdp", str(path), "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err.startswith("error: ") and key in err
    assert not (tmp_path / "out").exists()


# ids that are not JSON integers: int() would truncate [1.7, 0.2] to [1, 0]
@pytest.mark.parametrize("key, value", [
    ("transition", [1.7, 0.2]),
    ("transition", [1, True]),
    ("num_observations", 2.9),
    ("num_actions", True),
    ("reward", ["0", "1e3"]),  # and reals that are not JSON numbers
])
def test_bisim_mdp_non_integer_id_exits_2(tmp_path, capsys, key, value):
    payload = {"num_observations": 2, "num_actions": 1, "transition": [1, 0], "aux": [[0.0], [1.0]],
               "reward": [0.0, 1.0], "initial_dist": [0.5, 0.5], key: value}
    path = tmp_path / "mdp.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(["bisim", "--mdp", str(path), "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err.startswith(f"error: invalid MDP file {path}: {key} must be")
    assert not (tmp_path / "out").exists()


@pytest.fixture
def collected_dir(tmp_path, capsys):
    code, _, _ = run(["collect", "--steps", "20", "--image-size", "8", "--out-dir", str(tmp_path / "data")], capsys)
    assert code == 0
    return tmp_path / "data"


@pytest.mark.parametrize("damage", ["missing", "short-header", "short-payload", "trailing", "aux-width-0"])
def test_empirical_bisim_bad_dataset_exits_2(tmp_path, capsys, collected_dir, damage):
    raw = (collected_dir / "dataset.bslb").read_bytes()
    bad = tmp_path / "bad.bslb"
    if damage == "aux-width-0":  # d_p = 0, each record its 12 id bytes alone: no source would carry an aux
        count = int.from_bytes(raw[20:28], "little")
        ids = np.frombuffer(raw, dtype="<u4", offset=28).reshape(count, -1)[:, :3]
        bad.write_bytes(raw[:16] + bytes(4) + raw[20:28] + ids.tobytes())
    elif damage == "short-header":
        bad.write_bytes(raw[:20])
    elif damage == "short-payload":
        bad.write_bytes(raw[:-1])
    elif damage == "trailing":
        bad.write_bytes(raw + bytes(7))
    code, _, err = run(["empirical-bisim", "--dataset", str(bad), "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def _image_checkpoint(tmp_path, capsys, dataset):
    code, _, _ = run(["train", "--preset", "reward_aux", "--dataset", str(dataset), "--steps", "2",
                      "--out-dir", str(tmp_path / "train")], capsys)
    assert code == 0
    return tmp_path / "train" / "checkpoint.pjpa"


@pytest.mark.parametrize("damage", ["missing", "truncated", "trailing", "no-frames", "few-frames",
                                    "action-out-of-range", "ppm-maxval", "color-frames", "sidecar-leading-junk"])
@pytest.mark.parametrize("command", ["train", "analyze", "verify"])
def test_bad_collected_dataset_exits_2(tmp_path, capsys, collected_dir, command, damage):
    dataset = collected_dir / "dataset.bslb"
    sidecar = collected_dir / "frames.bsli"
    if command != "train":
        ckpt = _image_checkpoint(tmp_path, capsys, dataset)
    if damage == "missing":
        dataset = collected_dir / "absent.bslb"
    elif damage == "truncated":
        dataset.write_bytes(dataset.read_bytes()[:40])
    elif damage == "trailing":
        dataset.write_bytes(dataset.read_bytes() + bytes(7))
    elif damage == "no-frames":
        sidecar.unlink()
    elif damage == "few-frames":
        save_frame_sidecar(load_frame_sidecar(str(sidecar))[:-2], str(sidecar))
    elif damage == "action-out-of-range":  # the header says |A| = 2
        ds = load_dataset(str(dataset))
        ds.actions[3] = 5
        save_dataset(ds, str(dataset))
    elif damage == "ppm-maxval":
        frames = load_frame_sidecar(str(sidecar))
        frames[0] = frames[0].replace(b"\n255\n", b"\n1\n", 1)
        save_frame_sidecar(frames, str(sidecar))
    elif damage == "color-frames":  # the same records in color, which a gray decode would cut to their red plane
        code, _, _ = run(["collect", "--steps", "20", "--image-size", "8", "--channels", "3",
                          "--out-dir", str(tmp_path / "color")], capsys)
        assert code == 0
        sidecar.write_bytes((tmp_path / "color" / "frames.bsli").read_bytes())
    else:  # four bytes before the first frame, every offset moved past them
        raw = sidecar.read_bytes()
        count = int.from_bytes(raw[8:16], "little")
        offsets = np.frombuffer(raw, dtype="<u8", count=count, offset=16) + np.uint64(4)
        sidecar.write_bytes(raw[:16] + offsets.astype("<u8").tobytes() + b"junk" + raw[16 + 8 * count:])
    out = ["--out-dir", str(tmp_path / "out")]
    if command == "train":
        argv = ["train", "--preset", "reward_aux", "--dataset", str(dataset), "--steps", "2", *out]
    else:
        argv = [command, "--checkpoint", str(ckpt), "--dataset", str(dataset), *out]
        if command == "verify":
            argv += ["--counting", "8", "4"]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_verify_image_sources_outside_the_mdp_exit_2(tmp_path, capsys, collected_dir):
    dataset = collected_dir / "dataset.bslb"
    ckpt = _image_checkpoint(tmp_path, capsys, dataset)
    top = int(load_dataset(str(dataset)).sources.max())
    assert top >= 2  # --counting needs a target count of at least 1
    code, _, err = run(["verify", "--checkpoint", str(ckpt), "--dataset", str(dataset), "--counting", str(top - 1), "1",
                        "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err == f"error: the dataset has |O|, |A|, aux width (9, 2, 1), the MDP ({top}, 2, 1)\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("collect, task, message", [
    # 4 counts, aux at count 1, checked against the 9-count task: every sampled label is in range
    (["--max-count", "3", "--target-n", "1"], ["--counting", "8", "4"],
     "error: the dataset has |O|, |A|, aux width (4, 2, 1), the MDP (9, 2, 1)\n"),
    (["--target-n", "2"], ["--counting", "8", "4"], "error: dataset record "),
    (["--target-n", "4"], ["--mdp", "swapped.json"], "error: dataset record "),
])
def test_verify_dataset_of_another_task_exits_2(tmp_path, capsys, collect, task, message):
    data = tmp_path / "data"
    code, _, _ = run(["collect", *collect, "--image-size", "8", "--steps", "60", "--out-dir", str(data)], capsys)
    assert code == 0
    counting = counting_abstract_mdp(8, 4)  # the same counts and aux, with inc and dec swapped
    save_mdp_json(dataclasses.replace(counting, transition=counting.transition[:, ::-1].copy()),
                  str(tmp_path / "swapped.json"))
    ckpt = _image_checkpoint(tmp_path, capsys, data / "dataset.bslb")
    task = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in task]
    code, stdout, err = run(["verify", "--checkpoint", str(ckpt), "--dataset", str(data / "dataset.bslb"), *task,
                             "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_verify_with_no_pair_to_check_writes_json(tmp_path, capsys, tabular_checkpoint):
    # nine self-looping states with one aux value form one block: no cross-block
    # pair, so there is no minimum distance (null, not NaN), and the pass is vacuous
    n = 9
    task = DeterministicMDP(n, 2, np.repeat(np.arange(n)[:, None], 2, axis=1), np.zeros((n, 1)), np.zeros(n),
                            np.full(n, 1.0 / n))
    save_mdp_json(task, str(tmp_path / "mdp.json"))
    out = tmp_path / "out"
    code, stdout, _ = run(["verify", "--checkpoint", str(tabular_checkpoint), "--mdp", str(tmp_path / "mdp.json"),
                           "--eps-collapse", "0.1", "--out-dir", str(out)], capsys)
    assert code == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    for text in (stdout, (out / "collapse_report.json").read_text()):
        report = json.loads(text, parse_constant=reject)
        assert report["pairs_checked"] == 0 and report["verdict"] == "pass"
        assert report["min_cross_class_distance"] is None
        assert report["max_within_class_distance"] > 0


def test_verify_sample_with_no_pair_to_check_exits_2(tmp_path, capsys, collected_dir):
    # the counting MDP has several blocks, but one sampled frame makes no pair
    dataset = collected_dir / "dataset.bslb"
    ckpt = _image_checkpoint(tmp_path, capsys, dataset)
    code, stdout, err = run(["verify", "--checkpoint", str(ckpt), "--counting", "8", "4", "--dataset", str(dataset),
                             "--sample-size", "1", "--eps-collapse", "0.1", "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2 and stdout == ""
    assert err == ("error: no pair of the 1 sampled embeddings lies in different blocks of the MDP's 9, "
                   "so none would be checked; raise --sample-size\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "analyze", "verify"])
def test_dataset_with_no_records_exits_2(tmp_path, capsys, collected_dir, command):
    dataset = collected_dir / "dataset.bslb"
    ckpt = _image_checkpoint(tmp_path, capsys, dataset) if command != "train" else None
    save_dataset(TransitionDataset(9, 2, [], [], [], np.zeros((0, 1))), str(dataset))
    if command == "train":
        argv = ["train", "--preset", "reward_aux", "--steps", "2"]
    else:
        argv = [command, "--checkpoint", str(ckpt), *(["--counting", "8", "4"] if command == "verify" else [])]
    code, _, err = run([*argv, "--dataset", str(dataset), "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err == f"error: {dataset}: holds no records\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_one_hot_checkpoint_with_dataset_exits_2(tmp_path, capsys, tabular_checkpoint, command):
    # the dataset does not exist: a command that ignored the flag would never notice
    argv = [command, "--checkpoint", str(tabular_checkpoint), "--dataset", str(tmp_path / "absent.bslb"),
            *(["--counting", "8", "4"] if command == "verify" else []), "--out-dir", str(tmp_path / "out")]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err == "error: a one-hot checkpoint embeds every state and reads no --dataset\n"
    assert not (tmp_path / "out").exists()


def test_train_tabular_preset_with_dataset_exits_2(tmp_path, capsys, collected_dir):
    # the image records would train a model of the tabular preset's widths, recorded as tabular_counting
    argv = ["train", "--preset", "tabular_counting", "--dataset", str(collected_dir / "dataset.bslb"), "--steps", "2"]
    code, _, err = run([*argv, "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err == "error: --dataset holds image records, and the tabular_counting preset trains on one-hot states\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["bisim", "verify"])
@pytest.mark.parametrize("source", ["flags", "config"])
def test_both_mdp_and_counting_exit_2(tmp_path, capsys, tabular_checkpoint, command, source):
    # the MDP file does not exist: a command that let --counting win would never open it
    mdp_path = str(tmp_path / "absent.json")
    argv = [command, *(["--checkpoint", str(tabular_checkpoint)] if command == "verify" else [])]
    if source == "flags":
        argv += ["--mdp", mdp_path, "--counting", "8", "4"]
    else:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"mdp": mdp_path, "counting": [8, 4]}))
        argv = ["--config", str(cfg), *argv]
    code, _, err = run([*argv, "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err == "error: --mdp and --counting each name an MDP; give one\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_image_checkpoint_without_dataset_exits_2(tmp_path, capsys, collected_dir, command):
    ckpt = _image_checkpoint(tmp_path, capsys, collected_dir / "dataset.bslb")
    argv = [command, "--checkpoint", str(ckpt), "--out-dir", str(tmp_path / "out")]
    if command == "verify":
        argv += ["--counting", "8", "4"]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err == "error: image checkpoints need --dataset\n"
    assert not (tmp_path / "out").exists()


def test_config_file_sets_the_chosen_subcommand_defaults(tmp_path, capsys):
    # collect's own default is 6000; train's --steps default (None) must not hide the file's value
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"steps": 50}))
    code, stdout, _ = run(["--config", str(cfg), "collect", "--image-size", "8", "--out-dir", str(tmp_path / "c")],
                          capsys)
    assert code == 0
    assert json.loads(stdout)["records"] == 50


def test_explicit_flag_equal_to_its_default_beats_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"seed": 5}))
    outs = {}
    for name, prefix in (("file", ["--config", str(cfg)]), ("plain", [])):
        out = tmp_path / name
        code, _, _ = run([*prefix, "train", "--seed", "0", "--steps", "20", "--out-dir", str(out)], capsys)
        assert code == 0
        outs[name] = (out / "checkpoint.pjpa").read_bytes()
        assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 0
    assert outs["file"] == outs["plain"]


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    # Adam's constants are optim's module constants, the evaluation sample is train.EVAL_SIZE, and
    # train uses every record, so none of them is a TrainConfig field
    for key, value in (("stpes", 20), ("encoder_lr_scale", -0.3), ("adam_eps", 0.0), ("adam_beta1", 1.0),
                       ("adam_beta2", -0.1), ("eval_size", 16), ("replay_capacity", 10_000)):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({key: value}))
        code, _, err = run(["--config", str(cfg), "train", "--steps", "5", "--out-dir", str(tmp_path / "out")],
                           capsys)
        assert code == 2
        assert err == f"error: {cfg}: unknown keys {key}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["batch_size", "eval_every", "report_every"])
def test_config_file_non_positive_train_count_exits_2(tmp_path, capsys, key):
    cfg = tmp_path / "z.json"
    cfg.write_text(json.dumps({key: 0}))
    code, _, err = run(["--config", str(cfg), "train", "--steps", "3", "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err == f"error: {key} must be >= 1\n"


def test_config_file_value_outside_the_choices_exits_2(tmp_path, capsys):
    cfg = tmp_path / "e.json"
    cfg.write_text(json.dumps({"engine": "bogus"}))
    code, _, err = run(["--config", str(cfg), "bisim", "--counting", "2", "1", "--out-dir", str(tmp_path / "out")],
                       capsys)
    assert code == 2
    assert err == f"error: {cfg}: engine must be one of naive, refine\n"


def test_config_file_counting_list_equals_the_flag(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"counting": [3, 1]}))
    results = []
    for name, argv in (("file", ["--config", str(cfg), "bisim"]), ("flag", ["bisim", "--counting", "3", "1"])):
        out = tmp_path / name
        code, stdout, _ = run([*argv, "--out-dir", str(out)], capsys)
        assert code == 0
        results.append([stdout, *((out / f).read_bytes() for f in ("relation.csv", "partition.csv", "summary.json"))])
    assert results[0] == results[1]


@pytest.mark.parametrize("command, values, expected", [
    ("verify", {"counting": [8, 4]}, [8, 4]),
    ("verify", {"eps_collapse": 0.001}, 0.001),
    ("verify", {"eps_collapse": "auto"}, "auto"),
    ("verify", {"mdp": None}, None),
    ("train", {"no_dyn_loss": True}, True),
    ("train", {"steps": "5"}, 5),  # argparse converts a string default
    ("train", {"aux": "none"}, "none"),
])
def test_config_file_value_of_its_flags_type_is_taken(tmp_path, command, values, expected):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(values))
    parser = cli.build_parser()
    argv = ["--config", str(cfg), command, *(["--checkpoint", "c.pjpa"] if command == "verify" else [])]
    args = cli._apply_config_file(parser, argv, parser.parse_args(argv))
    assert getattr(args, *values) == expected


@pytest.mark.parametrize("command, values, message", [
    ("bisim", {"counting": [8]}, "counting must be a list of 2 values, got [8]"),
    ("bisim", {"counting": 8}, "counting must be a list of 2 values, got 8"),
    ("bisim", {"counting": [8, "4"]}, 'counting must be an integer, got "4"'),
    ("bisim", {"aux_tol": True}, "aux_tol must be a number, got true"),
    ("empirical-bisim", {"dataset": 5}, "dataset must be a string, got 5"),
    ("empirical-bisim", {"out_dir": None}, "out_dir must be a string, got null"),
    ("train", {"no_dyn_loss": "false"}, 'no_dyn_loss must be true or false, got "false"'),
    ("train", {"aux": ["reward"]}, 'aux must be a string, got ["reward"]'),
])
def test_config_file_value_of_the_wrong_type_for_its_flag_exits_2(tmp_path, capsys, command, values, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(values))
    argv = ["--config", str(cfg), command, *(["--dataset", "unused.bslb"] if command == "empirical-bisim" else [])]
    code, _, err = run([*argv, "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err == f"error: {cfg}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["bisim", "empirical-bisim"])
@pytest.mark.parametrize("flag, config, shown", [
    ("nan", None, "nan"),
    ("-1", None, "-1.0"),
    ("inf", None, "inf"),
    (None, math.nan, "nan"),
    (None, -1, "-1"),
    (None, math.inf, "inf"),
    (None, "-0.5", "-0.5"),  # argparse converts a string default
])
def test_aux_tol_outside_its_domain_exits_2(tmp_path, capsys, command, flag, config, shown):
    argv = [command, *(["--counting", "3", "1"] if command == "bisim" else ["--dataset", "unused.bslb"])]
    if flag is not None:
        argv.append(f"--aux-tol={flag}")
    else:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"aux_tol": config}))
        argv = ["--config", str(cfg), *argv]
    code, _, err = run([*argv, "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err == f"error: --aux-tol must be a finite number >= 0, not {shown}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--aux", "bogus"],
    ["train", "--aux", "random:0"],
    ["train", "--aux", "random:x"],
    ["train", "--c-p", "-1"],
    ["train", "--steps", "0"],
    ["collect", "--steps", "0"],
    ["collect", "--target-n", "9"],
    ["collect", "--image-size", "4"],
    ["verify", "--eps-collapse", "abc"],
    ["verify", "--eps-collapse", "-1"],
    ["verify", "--sample-size", "1"],
    ["verify", "--sample-size", "0"],
    ["analyze", "--sample-size", "1"],
    ["analyze", "--sample-size", "2"],
    # a leading dict is the --config file
    [{"eval_every": "5"}, "train"],
    [{"encoder_hidden": 64}, "train"],
    [{"encoder_hidden": [64, True]}, "train"],
    [{"decoder_enabled": 1}, "train"],
    [{"base_lr": None}, "train"],
    [{"latent_dim": 2.5}, "train"],
    [{"image_size": 16.5}, "collect"],
    # model widths below 1
    ["train", "--latent-dim", "-1"],
    ["train", "--latent-dim", "0"],
    [{"dynamics_hidden": -3}, "train"],
    [{"encoder_hidden": [0]}, "train"],
    # optimiser settings that are not finite or out of range
    ["train", "--c-p", "nan"],
    [{"base_lr": -1.0}, "train"],
    [{"base_lr": 0.0}, "train"],
    # a negative seed, which numpy's generator refuses
    ["train", "--seed", "-1"],
    [{"seed": -1}, "train"],
    # an action held for fewer than one step
    ["collect", "--action-repeat", "0"],
    ["collect", "--action-repeat", "-3"],
])
def test_malformed_value_exits_2(tmp_path, capsys, collected_dir, argv):
    if isinstance(argv[0], dict):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(argv[0]))
        argv = ["--config", str(cfg), *argv[1:]]
    command = next(a for a in argv if a in ("train", "collect", "analyze", "verify"))
    if command in ("analyze", "verify"):
        dataset = collected_dir / "dataset.bslb"
        argv = [*argv, "--checkpoint", str(_image_checkpoint(tmp_path, capsys, dataset)), "--dataset", str(dataset)]
        if command == "verify":
            argv += ["--counting", "8", "4"]
    elif command == "train" and "--steps" not in argv:
        argv = [*argv, "--steps", "3"]
    code, _, err = run([*argv, "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


SRC = str(Path(bisimlab.__file__).resolve().parents[1])
BENCH = str(Path(__file__).resolve().parents[1] / "bench")
TRAINING_STACK = ("nn", "optim", "train", "analysis", "counting_env")


def python(*args):
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def test_bisim_and_verify_do_not_load_numpy_ma(tmp_path, tabular_checkpoint):
    """numpy.ma takes 10-15 ms to import; neither command needs it. --help and the
    two bisim commands, with or without a --config file of bisim flags, also
    leave the training stack unrun, and a tabular verify runs no part of
    training (it reads the checkpoint through nn)."""
    mdp = counting_abstract_mdp(8, 4)
    src, act = np.divmod(np.arange(mdp.num_observations * mdp.num_actions), mdp.num_actions)
    dataset = tmp_path / "dataset.bslb"
    save_dataset(TransitionDataset(mdp.num_observations, mdp.num_actions, src, act,
                                   mdp.transition[src, act], mdp.aux[src]), str(dataset))
    flags_only = tmp_path / "flags.json"  # every key a bisim flag, so TrainConfig need not be read
    flags_only.write_text(json.dumps({"aux_tol": 0.0, "engine": "refine"}))
    script = (
        "import sys, types\n"
        "from bisimlab.cli import main\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        f"assert main(['bisim', '--counting', '8', '4', '--out-dir', {str(tmp_path / 'bisim')!r}]) == 0\n"
        f"assert main(['empirical-bisim', '--dataset', {str(dataset)!r},"
        f" '--out-dir', {str(tmp_path / 'empirical')!r}]) == 0\n"
        f"assert main(['--config', {str(flags_only)!r}, 'bisim', '--counting', '8', '4',"
        f" '--out-dir', {str(tmp_path / 'bisim-config')!r}]) == 0\n"
        # type() reads the class without the attribute access that would run a lazy module
        "ran = {name.removeprefix('bisimlab.') for name, module in sys.modules.items()\n"
        "       if name.startswith('bisimlab.') and type(module) is types.ModuleType}\n"
        f"assert not ran & set({TRAINING_STACK!r}), sorted(ran)\n"
        "assert {'cli', 'mdp', 'dataset', 'relation', 'bisim'} <= ran, sorted(ran)\n"
        f"assert main(['verify', '--checkpoint', {str(tabular_checkpoint)!r}, '--counting', '8', '4',"
        f" '--out-dir', {str(tmp_path / 'verify')!r}]) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
        "ran = {name.removeprefix('bisimlab.') for name, module in sys.modules.items()\n"
        "       if name.startswith('bisimlab.') and type(module) is types.ModuleType}\n"
        "assert not ran & {'train', 'optim', 'counting_env'}, sorted(ran)\n"
    )
    done = python("-c", script)
    assert done.returncode == 0, done.stderr


# runs one argv through main in a fresh interpreter; prints its exit code and the bisimlab modules that ran
MODULES_RUN_PROBE = """
import sys, types
from bisimlab.cli import main
code = main(sys.argv[1:])
# type() reads the class without the attribute access that would run a lazy module
ran = sorted(name.removeprefix("bisimlab.") for name, module in sys.modules.items()
             if name.startswith("bisimlab.") and type(module) is types.ModuleType)
import json
print(json.dumps([code, ran]))
"""

FRONT_END = {"cli", "presets"}


@pytest.mark.parametrize("argv, modules", [  # the README's table of the modules each command runs
    (["bisim", "--counting", "8", "4"], {"bisim", "mdp", "relation"}),
    (["train", "--preset", "tabular_counting", "--steps", "2"], {"train", "nn", "optim", "analysis", "mdp"}),
    (["verify", "--checkpoint", None, "--counting", "8", "4"], {"nn", "analysis", "bisim", "mdp", "relation"}),
])
def test_each_command_runs_only_the_modules_it_uses(tmp_path, tabular_checkpoint, argv, modules):
    argv = [str(tabular_checkpoint) if a is None else a for a in argv]
    code, ran = python_with_src(MODULES_RUN_PROBE, *argv, "--out-dir", str(tmp_path / "out"))
    assert code == 0
    assert set(ran) == FRONT_END | modules


def test_module_entry_point_runs_without_warnings():
    done = python("-W", "error", "-m", "bisimlab.cli", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: bisimlab")


def test_tracing_leaves_no_wrapper_bound_in_lazily_loaded_modules():
    """bench/tracing.py runs the lazy modules while it wraps functions; a module
    that imported a name only after it was wrapped would keep the wrapper."""
    script = (
        "import sys\n"
        f"sys.path.insert(0, {BENCH!r})\n"
        "import bisimlab\n"
        "import tracing\n"
        "for _ in range(2):\n"
        "    with tracing.installed(tracing.Tracer()):\n"
        "        pass\n"
        "def traced(value):\n"
        "    return getattr(getattr(value, '__code__', None), 'co_name', None) == 'traced'\n"
        "left = []\n"
        "for name, module in list(sys.modules.items()):\n"
        "    if name == 'bisimlab' or name.startswith('bisimlab.'):\n"
        "        for key, value in vars(module).items():\n"
        "            if traced(value):\n"
        "                left.append(f'{name}.{key}')\n"
        "            elif isinstance(value, type):\n"
        "                left += [f'{name}.{key}.{k}' for k, v in vars(value).items() if traced(v)]\n"
        "print(sorted(set(left)))\n"
    )
    done = python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
