"""Output checks for every benchmark operation, made apart from the program.

Each check reads the artifacts a CLI command wrote with this module's own
parsers and compares them against a computation written here: closed forms,
an independent partition refinement, a numpy forward pass of the saved
encoder, or a directional finite difference of an independent loss. No check
compares against a stored copy of earlier output. A check raises CheckError
when an artifact is wrong.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np


class CheckError(Exception):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


# --- parsers for the program's file formats ---


def read_bslb(path: Path) -> dict:
    """Transition dataset: magic, u32 version/|O|/|A|/d_p, u64 count, records."""
    raw = path.read_bytes()
    require(raw[:4] == b"BSLB", f"{path.name}: bad magic")
    _, num_obs, num_actions, aux_dim, count = struct.unpack_from("<IIIIQ", raw, 4)
    dtype = np.dtype([("s", "<u4"), ("a", "<u4"), ("t", "<u4"), ("p", "<f8", (aux_dim,))])
    require(len(raw) == 28 + count * dtype.itemsize, f"{path.name}: size does not match its count")
    rec = np.frombuffer(raw, dtype=dtype, offset=28)
    return {
        "num_obs": num_obs,
        "num_actions": num_actions,
        "sources": rec["s"].astype(np.int64),
        "actions": rec["a"].astype(np.int64),
        "successors": rec["t"].astype(np.int64),
        "aux": rec["p"].reshape(count, aux_dim).astype(np.float64),
    }


def read_bsli(path: Path) -> list[bytes]:
    """Frame sidecar: magic, u32 version, u64 count, u64 offsets, payload."""
    raw = path.read_bytes()
    require(raw[:4] == b"BSLI", f"{path.name}: bad magic")
    _, count = struct.unpack_from("<IQ", raw, 4)
    offsets = np.frombuffer(raw, dtype="<u8", count=count, offset=16).astype(np.int64)
    payload = raw[16 + 8 * count:]
    ends = np.append(offsets[1:], len(payload))
    return [payload[a:b] for a, b in zip(offsets.tolist(), ends.tolist())]


def gray_frame(blob: bytes) -> np.ndarray:
    """A P6 frame whose three planes are equal, as an [H, W] uint8 array."""
    magic, dims, maxval, pixels = blob.split(b"\n", 3)
    require(magic == b"P6" and maxval == b"255", "frame is not an 8-bit P6 image")
    w, h = (int(x) for x in dims.split())
    require(len(pixels) == w * h * 3, "frame size does not match its header")
    rgb = np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3)
    require(np.array_equal(rgb[..., 0], rgb[..., 1]) and np.array_equal(rgb[..., 0], rgb[..., 2]),
            "1-channel frame with unequal planes")
    return rgb[..., 0]


def read_pjpa(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Checkpoint: magic, u32 version, JSON echo, named little-endian f32 tensors."""
    raw = path.read_bytes()
    require(raw[:4] == b"PJPA", f"{path.name}: bad magic")
    _, blob_len = struct.unpack_from("<II", raw, 4)
    pos = 12 + blob_len
    echo = json.loads(raw[12:pos])
    (count,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", raw, pos)
        name = raw[pos + 2:pos + 2 + name_len].decode()
        pos += 2 + name_len
        ndim = raw[pos]
        shape = struct.unpack_from(f"<{ndim}I", raw, pos + 1)
        pos += 1 + 4 * ndim
        size = math.prod(shape)
        tensors[name] = np.frombuffer(raw, dtype="<f4", count=size, offset=pos).reshape(shape).astype(np.float64)
        pos += 4 * size
    require(pos == len(raw), f"{path.name}: trailing bytes")
    return echo, tensors


def read_pairs_csv(path: Path) -> np.ndarray:
    """`i,j` rows as an int array [rows, 2]."""
    raw = path.read_bytes()
    header, _, body = raw.partition(b"\n")
    require(header == b"i,j", f"{path.name}: bad header")
    rows = body.count(b"\n")
    flat = np.fromstring(body.replace(b",", b" ").decode(), dtype=np.int64, sep=" ")
    require(flat.size == 2 * rows, f"{path.name}: malformed rows")
    return flat.reshape(rows, 2)


def read_partition_csv(path: Path, n: int) -> np.ndarray:
    lines = path.read_text().splitlines()
    require(lines[0] == "observation_id,block_id", f"{path.name}: bad header")
    table = np.array([line.split(",") for line in lines[1:]], dtype=np.int64).reshape(-1, 2)
    require(np.array_equal(table[:, 0], np.arange(n)), f"{path.name}: observation ids are not 0..{n - 1}")
    return table[:, 1]


def read_mdp_json(path: Path) -> dict[str, np.ndarray]:
    payload = json.loads(path.read_text())
    n, na = payload["num_observations"], payload["num_actions"]
    return {"transition": np.asarray(payload["transition"], dtype=np.int64).reshape(n, na),
            "aux": np.asarray(payload["aux"])}


# --- independent models of the program's computations ---


def counting_chain(n: int, target: int) -> tuple[np.ndarray, np.ndarray]:
    """Transition table and aux of the count chain 0..n-1 (inc, dec, clamped)."""
    s = np.arange(n)
    return np.stack([np.minimum(s + 1, n - 1), np.maximum(s - 1, 0)], axis=1), (s == target).astype(float)


def coarsest_partition(transition: np.ndarray, aux: np.ndarray) -> np.ndarray:
    """Block label per observation of the coarsest aux-respecting partition
    closed under the transition function (signature refinement)."""
    aux = np.asarray(aux, dtype=float).reshape(len(transition), -1)
    labels = np.unique(aux, axis=0, return_inverse=True)[1].reshape(-1)
    while True:
        signature = np.column_stack([labels, labels[transition]])
        refined = np.unique(signature, axis=0, return_inverse=True)[1].reshape(-1)
        if refined.max() == labels.max():
            return labels
        labels = refined


def distinguished_pairs(block_of: np.ndarray) -> int:
    """Unordered pairs in different blocks: n(n-1)/2 - sum |B|(|B|-1)/2."""
    sizes = np.bincount(block_of)
    n = len(block_of)
    return n * (n - 1) // 2 - int(np.sum(sizes * (sizes - 1) // 2))


def _layers(tensors: dict, prefix: str) -> list[tuple[np.ndarray, np.ndarray]]:
    out, k = [], 0
    while f"{prefix}.{k}.W" in tensors:
        out.append((tensors[f"{prefix}.{k}.W"], tensors[f"{prefix}.{k}.b"]))
        k += 1
    return out


def mlp(layers, x: np.ndarray) -> np.ndarray:
    for k, (w, b) in enumerate(layers):
        x = x @ w + b
        if k + 1 < len(layers):
            x = np.maximum(x, 0.0)
    return x


def encoder_input(echo: dict, obs: np.ndarray) -> np.ndarray:
    flat = obs.reshape(len(obs), -1)
    return flat - 0.5 if echo["model_config"]["obs_kind"] == "image" else flat


def embed(echo: dict, tensors: dict, obs: np.ndarray) -> np.ndarray:
    return mlp(_layers(tensors, "encoder"), encoder_input(echo, obs))


def joint_objective(echo: dict, tensors: dict, batch: dict, decoder_latents: np.ndarray) -> float:
    """Dynamics MSE + c_p * aux MSE + decoder-probe MSE.

    The decoder probe reads `decoder_latents`, held fixed, which mirrors the
    probe's gradient barrier: its loss never reaches the encoder.
    """
    tc = echo["train_config"]
    obs, next_obs = batch["obs"], batch["next_obs"]
    z = mlp(_layers(tensors, "encoder"), encoder_input(echo, obs))
    total = 0.0
    if tc["dyn_loss_enabled"]:
        z_next = mlp(_layers(tensors, "encoder"), encoder_input(echo, next_obs))
        actions = np.eye(echo["model_config"]["num_actions"])[batch["actions"]]
        z_hat = mlp(_layers(tensors, "dynamics"), np.concatenate([z, actions], axis=1))
        total += np.mean((z_hat - z_next) ** 2)
    if tc["aux_mode"] != "none":
        total += tc["c_p"] * np.mean((mlp(_layers(tensors, "aux_head"), z) - batch["aux"]) ** 2)
    if tc["decoder_enabled"]:
        flat = obs.reshape(len(obs), -1)
        target = flat * 2.0 - 1.0 if echo["model_config"]["obs_kind"] == "image" else flat
        total += np.mean((mlp(_layers(tensors, "decoder_probe"), decoder_latents) - target) ** 2)
    return float(total)


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance of every row of `a` to every row of `b`."""
    return np.sqrt(np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2))


def close(a: float, b: float, rel: float = 1e-6, abs_: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


# --- checks, one per operation ---


def check_collect(out: Path, *, steps: int, max_count: int, target: int) -> None:
    ds = read_bslb(out / "dataset.bslb")
    s, a, t = ds["sources"], ds["actions"], ds["successors"]
    require(len(s) == steps and ds["num_obs"] == max_count + 1 and ds["num_actions"] == 2,
            "dataset has the wrong size")
    expected = np.where(a == 0, np.minimum(s + 1, max_count), np.maximum(s - 1, 0))
    require(np.array_equal(t, expected), "a record breaks the counting chain")
    require(np.array_equal(ds["aux"][:, 0], (s == target).astype(float)), "aux is not [count == target]")
    frames = read_bsli(out / "frames.bsli")
    require(len(frames) == 2 * steps, "sidecar does not hold a source and a successor frame per record")
    counts = np.stack([s, t], axis=1).reshape(-1)
    mass = np.array([int(gray_frame(f).sum(dtype=np.int64)) for f in frames]) / 255.0
    lit = counts > 0
    require(lit.any() and np.all(mass[~lit] == 0), "a frame with count 0 has pixels")
    unit = float(np.median(mass[lit] / counts[lit]))
    # every object carries the same pixel mass; square stencils round 0.4% heavier
    require(np.all(np.abs(mass - unit * counts) <= 0.01 * unit * counts),
            "a frame's pixel mass is not proportional to its count")


def check_train(out: Path, *, batch: dict, seed: int) -> None:
    echo, tensors = read_pjpa(out / "checkpoint.pjpa")
    rows = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    require(len(rows) >= 2, "fewer than two logged rows")
    keys = ("dyn_loss", "aux_loss", "total", "decoder_loss")
    require(all(math.isfinite(r[k]) for r in rows for k in keys), "a logged loss is not finite")
    c_p = echo["train_config"]["c_p"]
    require(all(close(r["total"], r["dyn_loss"] + c_p * r["aux_loss"], 1e-9) for r in rows),
            "logged total is not dyn_loss + c_p * aux_loss")
    # the dynamics and probe losses fall within any run; the total of the image
    # preset is 30x a single batch's aux loss, which is noise until thousands of steps
    for k in ("dyn_loss", "decoder_loss"):
        require(rows[-1][k] < rows[0][k], f"{k} did not fall")
    check_gradient(out / "checkpoint.pjpa", echo, tensors, batch, seed)


def check_gradient(path: Path, echo: dict, tensors: dict, batch: dict, seed: int) -> None:
    """The program's analytic gradient against a central difference of the
    independent objective, along one random unit direction."""
    from bisimlab.nn import Batch, loss_and_grads
    from bisimlab.train import load_checkpoint

    tc = echo["train_config"]
    params, _ = load_checkpoint(str(path))
    _, grads = loss_and_grads(
        params, Batch(obs=batch["obs"], actions=batch["actions"], next_obs=batch["next_obs"],
                      aux_targets=batch["aux"]),
        c_p=tc["c_p"], dyn_loss_enabled=tc["dyn_loss_enabled"], aux_enabled=tc["aux_mode"] != "none",
        decoder_enabled=tc["decoder_enabled"])
    rng = np.random.default_rng(seed)
    direction = {k: rng.standard_normal(v.shape) for k, v in tensors.items()}
    norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
    analytic = sum(float(np.sum(grads[k] * d)) for k, d in direction.items()) / norm
    latents = embed(echo, tensors, batch["obs"])
    h = 1e-6

    def at(sign: float) -> float:
        moved = {k: v + sign * h * direction[k] / norm for k, v in tensors.items()}
        return joint_objective(echo, moved, batch, latents)

    numeric = (at(1.0) - at(-1.0)) / (2 * h)
    require(close(analytic, numeric, 1e-4, 1e-9),
            f"directional derivative {analytic:.9g} vs finite difference {numeric:.9g}")


def check_analyze(out: Path, *, echo: dict, tensors: dict, obs: np.ndarray, labels: np.ndarray) -> None:
    v = embed(echo, tensors, obs)
    n = len(v)
    dist = distances(v, v)
    text = (out / "distances.csv").read_text()
    mat = np.fromstring(text.replace(",", " "), sep=" ")
    require(mat.size == n * n and text.count("\n") == n, "distance matrix is not N x N")
    mat = mat.reshape(n, n)
    require(np.array_equal(mat, mat.T) and not np.any(np.diagonal(mat)), "distance matrix is not symmetric")
    classes, sizes = np.unique(labels, return_counts=True)
    edges = np.concatenate([[0], np.cumsum(sizes)])
    # rows are sorted by label; within a class the sample order is the CLI's own
    for a, ca in enumerate(classes):
        for b, cb in enumerate(classes):
            got = np.sort(mat[edges[a]:edges[a + 1], edges[b]:edges[b + 1]], axis=None)
            want = np.sort(dist[np.ix_(labels == ca, labels == cb)], axis=None)
            require(np.allclose(got, want, rtol=1e-6, atol=1e-7), f"distances between classes {ca} and {cb} differ")
    summary = json.loads((out / "analysis.json").read_text())
    x = v - v.mean(axis=0)
    eig = np.linalg.eigh(x.T @ x / n)[0][::-1]
    fractions = eig[:2] / eig.sum()
    require(np.allclose(summary["explained_variance"], fractions, atol=1e-6), "explained variance differs")
    pca = np.loadtxt(out / "pca.csv", delimiter=",", skiprows=1, ndmin=2)
    require(pca.shape == (n, 3) and np.array_equal(np.sort(pca[:, 2]), np.sort(labels)), "pca.csv rows differ")
    require(np.allclose(np.mean(pca[:, :2] ** 2, axis=0), eig[:2], rtol=1e-5, atol=1e-9),
            "PCA projection variances are not the top eigenvalues")
    centroids = np.stack([v[labels == c].mean(axis=0) for c in classes])
    nearest = classes[np.argmin(distances(v, centroids), axis=1)]
    require(abs(summary["nearest_centroid_accuracy"] - np.mean(nearest == labels)) <= 1.0 / n + 1e-12,
            "nearest-centroid accuracy differs")
    within = sum(float(np.sum((v[labels == c] - centroids[k]) ** 2)) for k, c in enumerate(classes))
    total = float(np.sum(x ** 2))
    require(close(summary["collapse_ratio"], within / total if total else 1.0), "collapse ratio differs")
    require((out / "heatmap.ppm").read_bytes().startswith(f"P6\n{n} {n}\n255\n".encode()), "heatmap is not N x N")


def check_verify(out: Path, code: int, *, echo: dict, tensors: dict, obs: np.ndarray, labels: np.ndarray,
                 block_of: np.ndarray) -> None:
    """`block_of` maps each label (an MDP observation) to its bisimulation block."""
    report = json.loads((out / "collapse_report.json").read_text())
    v = embed(echo, tensors, obs)
    iu = np.triu_indices(len(v), k=1)
    d = distances(v, v)[iu]
    cross = block_of[labels[iu[0]]] != block_of[labels[iu[1]]]
    require(report["pairs_checked"] == int(cross.sum()), "pairs_checked differs")
    if cross.any():
        require(close(report["min_cross_class_distance"], float(d[cross].min())), "min cross-class distance differs")
    require(close(report["max_within_class_distance"], float(d[~cross].max()) if (~cross).any() else 0.0),
            "max within-class distance differs")
    eps = 1e-3 * float(np.median(d))
    require(close(report["eps_collapse"], eps), "eps_collapse differs")
    violations = int(np.sum(d[cross] < eps))
    require(report["num_violations"] == violations, "violation count differs")
    verdict = "pass" if violations == 0 else "fail"
    require(report["verdict"] == verdict and code == (0 if verdict == "pass" else 3),
            f"verdict {report['verdict']} with exit code {code}, expected {verdict}")


def check_bisim(out: Path, *, transition: np.ndarray, aux: np.ndarray, engine: str,
                singletons: bool = False) -> None:
    """Partition stable and as coarse as an independent refinement; relation
    rows exactly the pairs in different blocks. For a counting chain with the
    target at an end, the closed form is |O| singleton blocks."""
    n = len(transition)
    block_of = read_partition_csv(out / "partition.csv", n)
    num_blocks = len(np.unique(block_of))
    expected_blocks = n if singletons else int(coarsest_partition(transition, aux).max()) + 1
    require(num_blocks == expected_blocks, f"{num_blocks} blocks, expected {expected_blocks}")
    aux2 = np.asarray(aux, dtype=float).reshape(n, -1)
    signature = np.column_stack([block_of, aux2, block_of[transition]])
    require(len(np.unique(signature, axis=0)) == num_blocks,
            "a block's members differ in aux or in successor blocks")
    summary = json.loads((out / "summary.json").read_text())
    pairs = distinguished_pairs(block_of)
    require(summary["num_blocks"] == num_blocks and summary["num_pairs"] == 2 * pairs
            and summary["fixed_point_verified"] is True and summary["engine"] == engine, "summary differs")
    check_relation_rows(read_pairs_csv(out / "relation.csv"), block_of, pairs)


def check_relation_rows(rows: np.ndarray, block_of: np.ndarray, pairs: int) -> None:
    n = len(block_of)
    require(len(rows) == pairs, f"relation has {len(rows)} rows, expected {pairs}")
    if not len(rows):
        return
    i, j = rows[:, 0], rows[:, 1]
    require(np.all((0 <= i) & (i < j) & (j < n)), "relation row out of range or not i < j")
    require(np.all(np.diff(i * n + j) > 0), "relation rows are not sorted and distinct")
    require(np.all(block_of[i] != block_of[j]), "relation pairs two members of one block")


def check_empirical(out: Path, *, transition: np.ndarray, aux: np.ndarray, sources: np.ndarray) -> None:
    """Full coverage: R*_D is the exact R*, over the distinct sources."""
    block_of = coarsest_partition(transition, aux)
    pairs = distinguished_pairs(block_of)
    summary = json.loads((out / "summary.json").read_text())
    require(summary["num_sources"] == len(np.unique(sources)), "num_sources differs")
    require(summary["pairs_in_R"] == 2 * pairs, f"pairs_in_R {summary['pairs_in_R']}, expected {2 * pairs}")
    require(summary["transitive_complement"] is True, "complement reported not transitive")
    check_relation_rows(read_pairs_csv(out / "relation.csv"), block_of, pairs)
