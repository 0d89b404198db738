import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisimlab.counting_env import CountingEnvConfig, collect_dataset
from bisimlab.dataset import (
    TransitionDataset,
    load_dataset,
    load_frame_sidecar,
    parse_ppm,
    ppm_bytes,
    save_dataset,
    save_frame_sidecar,
)


def sample_dataset():
    return TransitionDataset(
        num_observations=9,
        num_actions=2,
        sources=[0, 1, 4, 8],
        actions=[0, 1, 0, 1],
        successors=[1, 0, 5, 7],
        aux=[[0.0], [0.0], [1.0], [0.0]],
    )


def test_roundtrip(tmp_path):
    ds = sample_dataset()
    path = str(tmp_path / "data.bslb")
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded.num_observations == 9
    assert loaded.num_actions == 2
    assert np.array_equal(loaded.sources, ds.sources)
    assert np.array_equal(loaded.actions, ds.actions)
    assert np.array_equal(loaded.successors, ds.successors)
    assert np.array_equal(loaded.aux, ds.aux)


def test_header_magic(tmp_path):
    path = tmp_path / "data.bslb"
    save_dataset(sample_dataset(), str(path))
    assert path.read_bytes()[:4] == b"BSLB"
    bad = tmp_path / "bad.bslb"
    bad.write_bytes(b"NOPE" + b"\x00" * 24)
    with pytest.raises(ValueError, match="magic"):
        load_dataset(str(bad))


def test_vector_aux_roundtrip(tmp_path):
    ds = TransitionDataset(4, 1, [0, 1], [0, 0], [2, 3], np.arange(6.0).reshape(2, 3))
    path = str(tmp_path / "vec.bslb")
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded.aux_dim == 3
    assert np.array_equal(loaded.aux, ds.aux)


def test_validate_reports_out_of_range():
    ds = TransitionDataset(3, 1, [0, 5], [0, 0], [1, 1], [[0.0], [0.0]])
    assert any("out of range" in e for e in ds.validate())


def test_ppm_roundtrip_rgb():
    frame = np.random.default_rng(0).integers(0, 256, size=(3, 8, 6)).astype(np.uint8)
    blob = ppm_bytes(frame)
    assert blob.startswith(b"P6\n6 8\n255\n")
    assert np.array_equal(parse_ppm(blob, channels=3), frame)


def test_ppm_roundtrip_gray():
    frame = np.random.default_rng(1).integers(0, 256, size=(1, 5, 5)).astype(np.uint8)
    assert np.array_equal(parse_ppm(ppm_bytes(frame), channels=1), frame)


def test_sidecar_roundtrip(tmp_path):
    config = CountingEnvConfig(image_size=16, channels=3, seed=0)
    data = collect_dataset(config, steps=10, rng=np.random.default_rng(0))
    path = str(tmp_path / "frames.bsli")
    frames = data.ppm_frames()
    save_frame_sidecar(frames, path)
    loaded = load_frame_sidecar(path)
    assert loaded == frames
    # frame 2k is the source of record k, 2k+1 its successor
    assert np.array_equal(parse_ppm(loaded[0], channels=3), data.source_frames[0])
    assert np.array_equal(parse_ppm(loaded[1], channels=3), data.successor_frames[0])


@pytest.mark.parametrize("blob", [
    b"P6\n2 2\n1\n" + bytes(12),  # maxval 1
    b"P6\n0 5\n255\n",  # zero width
    b"P6\n5 0\n255\n",  # zero height
    b"P5\n2 2\n255\n" + bytes(4),  # gray PGM
    ppm_bytes(np.zeros((1, 2, 2), dtype=np.uint8)) + b"\x00",  # a pixel byte beyond w * h * 3
    ppm_bytes(np.zeros((1, 2, 2), dtype=np.uint8))[:-1],  # one short
])
def test_parse_ppm_rejects_what_ppm_bytes_never_writes(blob):
    with pytest.raises(ValueError):
        parse_ppm(blob, 1)


def _sidecar_frames():
    return [ppm_bytes(np.full((1, 3, 2), k, dtype=np.uint8)) for k in range(4)]


def test_sidecar_with_bytes_before_the_first_frame_raises(tmp_path):
    path = tmp_path / "frames.bsli"
    save_frame_sidecar(_sidecar_frames(), str(path))
    raw = path.read_bytes()
    offsets = np.frombuffer(raw, dtype="<u8", count=4, offset=16) + np.uint64(4)
    path.write_bytes(raw[:16] + offsets.astype("<u8").tobytes() + b"junk" + raw[16 + 8 * 4:])
    with pytest.raises(ValueError, match="4 bytes before the first frame"):
        load_frame_sidecar(str(path))


def test_bytes_after_the_last_sidecar_frame_fail_its_decoding(tmp_path):
    path = tmp_path / "frames.bsli"
    save_frame_sidecar(_sidecar_frames(), str(path))
    path.write_bytes(path.read_bytes() + b"junk")
    *frames, last = load_frame_sidecar(str(path))  # the last frame runs to the end of the file
    assert frames == _sidecar_frames()[:-1]
    with pytest.raises(ValueError, match="2x3 PPM with 22 pixel bytes, not 18"):
        parse_ppm(last, 1)


def _collected_files(tmp_path):
    """dataset.bslb and frames.bsli of a short real collect."""
    collected = collect_dataset(CountingEnvConfig(image_size=8, channels=1, seed=0), steps=12,
                                rng=np.random.default_rng(0))
    save_dataset(collected.dataset, str(tmp_path / "dataset.bslb"))
    save_frame_sidecar(collected.ppm_frames(), str(tmp_path / "frames.bsli"))
    return (tmp_path / "dataset.bslb").read_bytes(), (tmp_path / "frames.bsli").read_bytes()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_truncated_dataset_raises_value_error(tmp_path_factory, data):
    tmp_path = tmp_path_factory.mktemp("bslb")
    raw, _ = _collected_files(tmp_path)
    # every cut short of the whole file, and the whole file with bytes after the last record
    cut = st.integers(0, len(raw) - 1).map(lambda length: raw[:length])
    padded = st.binary(min_size=1, max_size=64).map(lambda tail: raw + tail)
    path = tmp_path / "cut.bslb"
    path.write_bytes(data.draw(st.one_of(cut, padded)))
    with pytest.raises(ValueError):
        load_dataset(str(path))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_truncated_sidecar_raises_value_error_or_short_frames(tmp_path_factory, data):
    tmp_path = tmp_path_factory.mktemp("bsli")
    _, raw = _collected_files(tmp_path)
    full = load_frame_sidecar(str(tmp_path / "frames.bsli"))
    length = data.draw(st.integers(0, len(raw) - 1))
    path = tmp_path / "cut.bsli"
    path.write_bytes(raw[:length])
    try:
        frames = load_frame_sidecar(str(path))
    except ValueError:
        return
    # a cut inside the frames leaves the offset table whole; only the tail frames shrink
    assert len(frames) == len(full) and frames != full
    with pytest.raises(ValueError):
        for blob in frames:
            parse_ppm(blob, 1)
