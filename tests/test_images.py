import struct
import warnings

import numpy as np
import pytest

from pdasgd.images import (
    IdxFormatError,
    ImageInstance,
    foreground_side,
    gen_synthetic_image,
    grid_cost_matrix,
    image_to_instance,
    load_csv_matrix,
    load_idx,
    load_image_file,
    load_pgm,
    save_csv_matrix,
)


def test_foreground_side_rounding():
    assert foreground_side(10) == 4  # floor(sqrt(20))
    assert foreground_side(8) == 3
    assert foreground_side(28) == 12


def test_gen_synthetic_image_basic():
    img = gen_synthetic_image(10, seed=7)
    assert img.pixels.shape == (10, 10)
    assert img.pixels.min() >= 0.0
    # the bright square must exist: some pixels above the background's max of 1
    assert (img.pixels > 1.0).sum() >= foreground_side(10) ** 2 * 0.5
    with pytest.raises(ValueError, match="too small"):
        gen_synthetic_image(2, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic_image(1, seed=0)


def test_gen_synthetic_image_deterministic():
    a = gen_synthetic_image(12, seed=99)
    b = gen_synthetic_image(12, seed=99)
    assert np.array_equal(a.pixels, b.pixels)
    c = gen_synthetic_image(12, seed=100)
    assert not np.array_equal(a.pixels, c.pixels)


def test_gen_synthetic_square_inside_bounds():
    for seed in range(50):
        img = gen_synthetic_image(9, seed=seed)
        bright = img.pixels > 1.0
        rows, cols = np.nonzero(bright)
        if rows.size == 0:
            continue
        assert rows.min() >= 0 and rows.max() < 9
        assert cols.min() >= 0 and cols.max() < 9


def test_foreground_mean_intensity_monte_carlo():
    fg = foreground_side(10)
    means = []
    for seed in range(1000):
        img = gen_synthetic_image(10, seed=seed)
        vals = img.pixels[img.pixels > 1.0]
        means.append(vals.mean() if vals.size else np.nan)
    overall = np.nanmean(means)
    # foreground ~ U[0,10); conditioning on >1 biases up slightly
    assert abs(overall - 5.5) < 0.2


def test_image_to_instance_point_mass_and_uniform():
    pixels = np.zeros((3, 3))
    pixels[1, 2] = 4.0
    dist, cost = image_to_instance(ImageInstance(pixels))
    expected = np.zeros(9)
    expected[1 * 3 + 2] = 1.0
    assert np.array_equal(dist.weights, expected)
    dist_u, _ = image_to_instance(ImageInstance(np.ones((3, 3))))
    assert np.allclose(dist_u.weights, 1 / 9)
    assert cost.n == 9


def test_grid_cost_two_by_two():
    cost = grid_cost_matrix(2, 2)
    # corner-to-corner squared distance is 2, normalized to 1
    assert cost.entries[0, 3] == pytest.approx(1.0)
    assert cost.entries[0, 1] == pytest.approx(0.5)
    assert cost.entries[0, 0] == 0.0
    assert cost.max_abs == 1.0


@pytest.mark.parametrize("height, width", [(1, 1), (1, 5), (3, 7), (5, 3), (8, 8), (16, 16), (20, 20)])
def test_grid_cost_is_bitwise_the_broadcast_formula(height, width):
    # the separable row and column squares against the (n, n, 2) difference
    # tensor summed over its last axis: integer squared distances, so exact
    rows, cols = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    coords = np.stack([rows.ravel(), cols.ravel()], axis=1).astype(np.float64)
    want = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
    if want.max() > 0:
        want = want / want.max()
    got = grid_cost_matrix(height, width).entries
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable


def _idx_bytes(count, h, w, payload=None):
    header = struct.pack(">IIII", 0x00000803, count, h, w)
    if payload is None:
        payload = bytes(range(count * h * w))[: count * h * w]
        payload = (payload * (count * h * w // max(len(payload), 1) + 1))[: count * h * w]
    return header + payload


def test_load_idx_roundtrip(tmp_path):
    data = np.arange(2 * 3 * 3, dtype=np.uint8)
    raw = struct.pack(">IIII", 0x00000803, 2, 3, 3) + data.tobytes()
    path = tmp_path / "imgs.idx"
    path.write_bytes(raw)
    images = load_idx(path)
    assert len(images) == 2
    assert images[0].pixels.shape == (3, 3)
    assert np.array_equal(images[1].pixels.ravel(), data[9:].astype(float))


def test_load_idx_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">IIII", 0x00000801, 1, 2, 2) + bytes(4))
    with pytest.raises(IdxFormatError, match="magic"):
        load_idx(path)


def test_load_idx_truncated_names_missing_bytes(tmp_path):
    path = tmp_path / "short.idx"
    path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 3, 3) + bytes(10))
    with pytest.raises(IdxFormatError, match="missing 8 bytes"):
        load_idx(path)


def test_load_idx_dimension_overflow(tmp_path):
    path = tmp_path / "huge.idx"
    path.write_bytes(struct.pack(">IIII", 0x00000803, 1 << 30, 1 << 20, 1 << 20) + bytes(16))
    with pytest.raises(IdxFormatError, match="dimensions"):
        load_idx(path)


def test_idx_file_decodes_its_first_frame_only(tmp_path):
    # before: load_image_file converted and checked every frame of the stack,
    # so a blank frame 2 failed the load of frame 0
    frames = np.arange(1, 13, dtype=np.uint8).reshape(3, 2, 2)
    frames[2] = 0
    path = tmp_path / "stack.idx"
    path.write_bytes(struct.pack(">IIII", 0x00000803, 3, 2, 2) + frames.tobytes())
    assert load_image_file(path).pixels.tobytes() == frames[0].astype(np.float64).tobytes()
    with pytest.raises(ValueError, match="^image must contain at least one positive pixel"):
        load_idx(path)


def test_csv_roundtrip(tmp_path):
    img = gen_synthetic_image(6, seed=3)
    path = tmp_path / "img.csv"
    save_csv_matrix(path, img.pixels)
    back = load_csv_matrix(path)
    assert np.array_equal(back, img.pixels)  # 17 significant digits round-trip
    again = load_image_file(path)
    assert np.array_equal(again.pixels, img.pixels)


def test_load_pgm(tmp_path):
    pixels = np.arange(6, dtype=np.uint8).reshape(2, 3) + 1
    raw = b"P5\n# comment line\n3 2\n255\n" + pixels.tobytes()
    path = tmp_path / "img.pgm"
    path.write_bytes(raw)
    img = load_pgm(path)
    assert np.array_equal(img.pixels, pixels.astype(float))
    not_pgm = tmp_path / "not.pgm"
    not_pgm.write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(ValueError, match="P5"):
        load_pgm(not_pgm)


def test_load_pgm_truncated(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n3 2\n255\n" + bytes(3))
    with pytest.raises(ValueError, match="truncated"):
        load_pgm(path)


def test_load_pgm_rejects_non_positive_dimensions(tmp_path):
    # before: a negative height read the whole payload, here as a 2x2 image
    path = tmp_path / "negative.pgm"
    for header, dims in ((b"P5 2 -1 255\n", "2x-1"), (b"P5 0 2 255\n", "0x2")):
        path.write_bytes(header + bytes([1, 2, 3, 4]))
        with pytest.raises(ValueError, match=f"^PGM dimensions {dims} must be positive$"):
            load_pgm(path)


def test_load_pgm_names_a_non_numeric_header_field(tmp_path):
    # before: "invalid literal for int() with base 10: b'abc'"
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\nabc 4\n255\n")
    with pytest.raises(ValueError, match=r"^PGM header field b'abc' is not an integer$"):
        load_pgm(path)


def test_image_instance_validation():
    with pytest.raises(ValueError):
        ImageInstance(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        ImageInstance(np.array([[-1.0, 2.0], [0.0, 1.0]]))
    # before: accepted, and image_to_instance warned of an overflow and then
    # raised "distribution weights must sum to 1, got 0.0"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^pixel intensities must sum to a finite total, got inf; rescale the image$"):
            ImageInstance(np.full((4, 4), 1e308))
