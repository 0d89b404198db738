"""What the tools that compare a checkout with a baseline revision share:
a revision's files, extracted with `git archive`, and the summary of
repeated measurements."""

from __future__ import annotations

import io
import statistics
import subprocess
import tarfile
from pathlib import Path


def resolve(root: Path, rev: str) -> str:
    """The full commit hash that `rev` names in the repository at `root`."""
    return subprocess.run(["git", "-C", str(root), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          capture_output=True, text=True, check=True).stdout.strip()


def extract(root: Path, commit: str, paths: list[str], dest: Path) -> None:
    """Write the files under `paths` at `commit` into `dest`, as `git archive` stores them."""
    archive = subprocess.run(["git", "-C", str(root), "archive", commit, *paths], capture_output=True, check=True)
    dest.mkdir(parents=True, exist_ok=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest)


def summary(values: list[float]) -> dict[str, float]:
    """Median and quartiles; one value is all three."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}
