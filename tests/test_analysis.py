import numpy as np
import pytest

from bisimlab.analysis import (
    EmbeddingSet,
    collapse_ratio,
    distances,
    median_pairwise_distance,
    nearest_centroid_accuracy,
    pairwise_distances,
    pca_2d,
    verify_no_collapse,
    write_heatmap_ppm,
)
from bisimlab.dataset import parse_ppm
from bisimlab.relation import Partition


def test_pairwise_distances_known_values():
    vecs = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
    embs = EmbeddingSet(vectors=vecs, labels=np.zeros(3, dtype=np.int64))
    dm = pairwise_distances(embs)
    assert dm.matrix[0, 1] == pytest.approx(5.0)
    assert dm.matrix[0, 2] == pytest.approx(1.0)
    assert np.array_equal(dm.matrix, dm.matrix.T)
    assert np.all(np.diag(dm.matrix) == 0.0)


def test_pairwise_distances_sorted_by_label_ties_in_input_order():
    vecs = np.arange(10, dtype=np.float64).reshape(5, 2)
    embs = EmbeddingSet(vectors=vecs, labels=np.array([1, 0, 1, 0, 0]))
    dm = pairwise_distances(embs)
    assert dm.labels.tolist() == [0, 0, 0, 1, 1]
    # within each label block, rows keep their input order: 1, 3, 4 then 0, 2
    assert dm.order.tolist() == [1, 3, 4, 0, 2]


def test_pairwise_triangle_inequality():
    rng = np.random.default_rng(0)
    vecs = rng.standard_normal((20, 6))
    dm = pairwise_distances(EmbeddingSet(vectors=vecs, labels=np.zeros(20, dtype=np.int64)))
    m = dm.matrix
    lhs = m[:, :, None]
    rhs = m[:, None, :] + m[None, :, :]
    assert np.all(lhs <= rhs + 1e-9)


def test_distances_far_below_the_norm_keep_their_digits():
    # the Gram expansion |a|^2 + |b|^2 - 2ab returns 0 or about 1e-4 here
    vecs = np.array([[1e4, 0.0], [1e4 + 1e-6, 0.0]])
    dm = pairwise_distances(EmbeddingSet(vectors=vecs, labels=np.zeros(2, dtype=np.int64)))
    assert dm.matrix[0, 1] == pytest.approx(1e-6, rel=1e-3)
    assert median_pairwise_distance(vecs) == pytest.approx(1e-6, rel=1e-3)


@pytest.mark.parametrize("rows, cols, dim", [(1, 1, 1), (7, 3, 5), (300, 40, 16), (5, 3000, 32)])
def test_distances_equal_linalg_norm_bitwise(rows, cols, dim):
    # nearest_centroid_accuracy selects training checkpoints, so its
    # distances must stay those of np.linalg.norm to the last bit
    rng = np.random.default_rng(rows + cols + dim)
    a, b = rng.standard_normal((rows, dim)) * 3.0, rng.standard_normal((cols, dim))
    want = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    assert distances(a, b).tobytes() == want.tobytes()


def test_non_finite_embedding_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        EmbeddingSet(vectors=np.array([[np.nan, 0.0]]), labels=np.array([0]))


def test_pca_matches_eigh_oracle():
    rng = np.random.default_rng(1)
    # anisotropic cloud so the top two eigenvalues are well separated
    base = rng.standard_normal((200, 5)) * np.array([5.0, 3.0, 1.0, 0.5, 0.1])
    mix = rng.standard_normal((5, 5))
    x = base @ mix
    embs = EmbeddingSet(vectors=x, labels=np.zeros(200, dtype=np.int64))
    proj, fractions, comps = pca_2d(embs)

    xc = x - x.mean(axis=0)
    cov = (xc.T @ xc) / len(x)
    w, v = np.linalg.eigh(cov)
    top = v[:, ::-1][:, :2].T
    for k in range(2):
        ref = top[k]
        nz = np.nonzero(np.abs(ref) > 1e-12)[0]
        if ref[nz[0]] < 0:
            ref = -ref
        assert np.allclose(comps[k], ref, atol=1e-6)
    assert np.allclose(fractions, w[::-1][:2] / np.trace(cov), atol=1e-8)
    assert np.allclose(proj, xc @ comps.T)


def test_pca_components_orthonormal():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((50, 4)) * np.array([4.0, 2.0, 1.0, 0.5])
    _, _, comps = pca_2d(EmbeddingSet(vectors=x, labels=np.zeros(50, dtype=np.int64)))
    assert np.allclose(comps @ comps.T, np.eye(2), atol=1e-6)


def test_pca_collinear_data():
    t = np.linspace(-1.0, 1.0, 30)
    x = np.outer(t, np.array([1.0, 2.0, -1.0]))
    proj, fractions, _ = pca_2d(EmbeddingSet(vectors=x, labels=np.zeros(30, dtype=np.int64)))
    assert fractions[0] == pytest.approx(1.0, abs=1e-9)
    assert fractions[1] == pytest.approx(0.0, abs=1e-9)
    # all variance lives on the first axis
    assert np.allclose(proj[:, 1], 0.0, atol=1e-8)


def test_pca_constant_data():
    x = np.ones((10, 3))
    proj, fractions, _ = pca_2d(EmbeddingSet(vectors=x, labels=np.zeros(10, dtype=np.int64)))
    assert np.allclose(proj, 0.0)
    assert np.allclose(fractions, 0.0)


def test_pca_one_dimensional():
    x = np.array([[-1.0], [0.5], [2.0], [-1.5]])
    proj, fractions, comps = pca_2d(EmbeddingSet(vectors=x, labels=np.zeros(4, dtype=np.int64)))
    assert comps.tolist() == [[1.0], [0.0]]
    assert fractions.tolist() == pytest.approx([1.0, 0.0])
    assert np.allclose(proj[:, 0], x[:, 0] - x.mean()) and not proj[:, 1].any()


def test_pca_needs_three_points():
    with pytest.raises(ValueError):
        pca_2d(EmbeddingSet(vectors=np.zeros((2, 3)), labels=np.zeros(2, dtype=np.int64)))


def test_centroid_accuracy_perfect_and_scrambled():
    vecs = np.array([[0.0], [0.1], [5.0], [5.1]])
    labels = np.array([0, 0, 1, 1])
    assert nearest_centroid_accuracy(vecs, labels) == 1.0
    assert nearest_centroid_accuracy(vecs, np.array([0, 1, 0, 1])) == 0.5


def test_centroid_accuracy_outlier():
    # the outlier at 10 drags centroid 1 rightward but stays closest to it
    vecs = np.array([[0.0], [1.0], [2.0], [10.0]])
    labels = np.array([0, 0, 1, 1])
    assert nearest_centroid_accuracy(vecs, labels) == pytest.approx(0.75)


def test_centroid_accuracy_tie_breaks_to_smaller_label():
    vecs = np.array([[0.0], [0.0], [0.0]])
    labels = np.array([0, 1, 1])
    # everything is equidistant from both centroids, so all go to class 0
    assert nearest_centroid_accuracy(vecs, labels) == pytest.approx(1.0 / 3.0)


def test_collapse_ratio_closed_form():
    # two classes at centers 0 and c with symmetric offsets +-h:
    # within variance h^2, total variance h^2 + c^2/4
    h, c = 0.5, 4.0
    vecs = np.array([[-h], [h], [c - h], [c + h]])
    labels = np.array([0, 0, 1, 1])
    expected = h * h / (h * h + c * c / 4.0)
    assert collapse_ratio(vecs, labels) == pytest.approx(expected)


def test_collapse_ratio_extremes():
    vecs = np.array([[0.0], [0.0], [1.0], [1.0]])
    labels = np.array([0, 0, 1, 1])
    assert collapse_ratio(vecs, labels) == pytest.approx(0.0)
    assert collapse_ratio(np.zeros((4, 2)), labels) == 1.0
    one_class = np.array([0, 0, 0, 0])
    rng = np.random.default_rng(0)
    spread = rng.standard_normal((4, 2))
    assert collapse_ratio(spread, one_class) == pytest.approx(1.0)


def two_blocks():
    # observations 0, 1 vs 2, 3 are distinguishable
    return Partition(block_of=np.array([0, 0, 1, 1]), num_blocks=2)


def test_verify_no_collapse_pass_and_fail():
    part = two_blocks()
    good = EmbeddingSet(
        vectors=np.array([[0.0], [0.1], [5.0], [5.1]]),
        labels=np.arange(4),
    )
    report = verify_no_collapse(good, part, eps_collapse=1.0)
    assert report.verdict == "pass"
    assert report.pairs_checked == 4
    assert report.min_cross_class_distance == pytest.approx(4.9)
    assert report.max_within_class_distance == pytest.approx(0.1)

    bad = EmbeddingSet(
        vectors=np.array([[0.0], [0.1], [0.2], [5.1]]),
        labels=np.arange(4),
    )
    report = verify_no_collapse(bad, part, eps_collapse=1.0)
    assert report.verdict == "fail"
    assert {(i, j) for i, j, _ in report.violations} == {(0, 2), (1, 2)}


def test_verify_no_collapse_vacuous_on_empty_relation():
    embs = EmbeddingSet(vectors=np.zeros((3, 2)), labels=np.arange(3))
    # one block: R* is empty
    report = verify_no_collapse(embs, Partition(block_of=np.zeros(3), num_blocks=1), eps_collapse=1.0)
    assert report.verdict == "pass"
    assert report.pairs_checked == 0
    assert np.isnan(report.min_cross_class_distance)


def test_verify_no_collapse_eps_monotone():
    part = two_blocks()
    embs = EmbeddingSet(
        vectors=np.array([[0.0], [0.1], [2.0], [5.1]]),
        labels=np.arange(4),
    )
    small = verify_no_collapse(embs, part, eps_collapse=0.5)
    big = verify_no_collapse(embs, part, eps_collapse=3.0)
    assert len(small.violations) <= len(big.violations)
    assert small.verdict == "pass" and big.verdict == "fail"


def test_verify_coincident_latents_fail_under_auto_eps():
    # every latent is the same point: the median distance, and so the auto eps, is 0
    embs = EmbeddingSet(vectors=np.ones((4, 2)), labels=np.arange(4))
    report = verify_no_collapse(embs, two_blocks(), eps_collapse=None)
    assert report.eps_collapse == 0.0
    assert report.verdict == "fail"
    assert {(i, j) for i, j, _ in report.violations} == {(0, 2), (0, 3), (1, 2), (1, 3)}


def test_collapse_report_json():
    part = two_blocks()
    embs = EmbeddingSet(vectors=np.zeros((4, 1)), labels=np.arange(4))
    report = verify_no_collapse(embs, part, eps_collapse=1.0)
    import json

    payload = json.loads(report.to_json())
    assert payload["verdict"] == "fail"
    assert payload["num_violations"] == 4


def test_median_pairwise_distance():
    vecs = np.array([[0.0], [1.0], [3.0]])  # distances 1, 2, 3
    assert median_pairwise_distance(vecs) == pytest.approx(2.0)


def test_heatmap_ppm_boundaries(tmp_path):
    vecs = np.array([[0.0], [0.5], [4.0], [4.5]])
    dm = pairwise_distances(
        EmbeddingSet(vectors=vecs, labels=np.array([0, 0, 1, 1]))
    )
    path = str(tmp_path / "heat.ppm")
    write_heatmap_ppm(dm, path)
    with open(path, "rb") as fh:
        img = parse_ppm(fh.read(), channels=3)
    assert img.shape == (3, 4, 4)
    # boundary between the label blocks is drawn in red
    red = np.array([255, 0, 0], dtype=np.uint8)
    assert np.all(img[:, 2, :] == red[:, None])
    assert np.all(img[:, :, 2] == red[:, None])
