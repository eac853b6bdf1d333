import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import brute_force_peaks, histogram_entropy
from viewsphere import entropy
from viewsphere.entropy import (
    EntropyMap,
    Peak,
    entropy_map_from_views,
    find_peaks,
    image_entropy,
    map_to_pgm_pixels,
    read_map_csv,
    write_map_csv,
)
from viewsphere.render import DepthImage


def _image(pixels):
    return DepthImage(np.asarray(pixels, dtype=np.uint8))


def test_constant_image_zero_bits():
    h = image_entropy(_image(np.zeros((224, 224))))
    assert h == 0.0
    assert not np.signbit(h)


def test_two_equiprobable_codes_one_bit():
    pixels = np.zeros((224, 224), dtype=np.uint8)
    pixels[:112, :] = 128
    assert abs(image_entropy(_image(pixels)) - 1.0) < 1e-12


def test_four_equiprobable_codes_two_bits():
    pixels = np.zeros((224, 224), dtype=np.uint8)
    pixels[56:112] = 10
    pixels[112:168] = 20
    pixels[168:] = 30
    assert abs(image_entropy(_image(pixels)) - 2.0) < 1e-12


def test_entropy_matches_recount_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        pixels = rng.integers(0, 256, size=(224, 224), dtype=np.uint8)
        assert abs(image_entropy(_image(pixels)) - histogram_entropy(pixels)) < 1e-12


def _full_count_entropy(pixels):
    """The entropy formula with every pixel counted, background included."""
    counts = np.bincount(pixels.ravel(), minlength=256)
    p = counts[counts > 0] / pixels.size
    return float(-(p * np.log2(p)).sum() + 0.0)


_SHAPES = st.tuples(st.integers(1, 64), st.integers(1, 64))


@settings(max_examples=80, deadline=None)
@given(
    pixels=hnp.arrays(np.uint8, _SHAPES, elements=st.just(0))
    | hnp.arrays(np.uint8, _SHAPES, elements=st.integers(1, 255))
    | hnp.arrays(np.uint8, _SHAPES, elements=st.integers(0, 255))
    | hnp.arrays(np.uint8, _SHAPES, elements=st.sampled_from([0, 0, 0, 7, 200, 255])),
    seed=st.integers(0, 2**32 - 1),
)
def test_foreground_counts_give_the_full_count_entropy_bit_for_bit(pixels, seed):
    # all background, no background, random codes and mostly background, each
    # also at the full image size with the background share drawn from ``seed``
    rng = np.random.default_rng(seed)
    full = rng.integers(1, 256, size=(224, 224), dtype=np.uint8)
    full[rng.random((224, 224)) < rng.random()] = 0
    for image in (pixels, full):
        assert image_entropy(_image(image)).hex() == _full_count_entropy(image).hex()


def test_entropy_permutation_invariant():
    rng = np.random.default_rng(1)
    pixels = rng.integers(0, 40, size=(224, 224), dtype=np.uint8)
    shuffled = rng.permutation(pixels.ravel()).reshape(224, 224)
    assert image_entropy(_image(pixels)) == image_entropy(_image(shuffled))


def test_entropy_range():
    rng = np.random.default_rng(2)
    for _ in range(10):
        pixels = rng.integers(0, 256, size=(224, 224), dtype=np.uint8)
        h = image_entropy(_image(pixels))
        assert 0.0 <= h <= 8.0


def test_map_from_views_index_convention():
    images = [_image(np.zeros((224, 224)))] * 60
    assert (entropy_map_from_views(images).values == 0).all()

    varied = np.zeros((224, 224), dtype=np.uint8)
    varied[:112] = 200
    images = [_image(np.zeros((224, 224))) for _ in range(60)]
    images[17] = _image(varied)
    emap = entropy_map_from_views(images)
    nonzero = np.argwhere(emap.values > 0)
    assert nonzero.tolist() == [[1, 5]]


def test_map_from_views_wrong_count():
    with pytest.raises(ValueError, match="expected 60"):
        entropy_map_from_views([_image(np.zeros((224, 224)))] * 59)


def test_entropy_map_validation():
    with pytest.raises(ValueError, match="5x12"):
        EntropyMap(np.zeros((12, 5)))
    with pytest.raises(ValueError, match="non-finite"):
        EntropyMap(np.full((5, 12), np.nan))
    bad = np.zeros((5, 12))
    bad[0, 0] = -0.5
    with pytest.raises(ValueError, match="lie in"):
        EntropyMap(bad)
    bad[0, 0] = 9.0
    with pytest.raises(ValueError, match="lie in"):
        EntropyMap(bad)


def test_single_spike_peak():
    values = np.zeros((5, 12))
    values[2, 5] = 1.0
    peaks = find_peaks(EntropyMap(values))
    assert peaks == [Peak(2, 5, 1.0)]


def test_wraparound_adjacency_suppresses_dominated_cell():
    values = np.zeros((5, 12))
    values[2, 0] = 1.0
    values[2, 11] = 2.0
    peaks = find_peaks(EntropyMap(values))
    assert peaks == [Peak(2, 11, 2.0)]
    assert [(p[0], p[1]) for p in brute_force_peaks(values)] == [(2, 11)]


def test_constant_map_single_peak():
    peaks = find_peaks(EntropyMap(np.full((5, 12), 3.3)))
    assert peaks == [Peak(0, 0, 3.3)]


def test_find_peaks_searches_each_plateau_once(monkeypatch):
    calls = []
    plateau = entropy._plateau

    def counting_plateau(values, ring, azimuth):
        calls.append((ring, azimuth))
        return plateau(values, ring, azimuth)

    monkeypatch.setattr(entropy, "_plateau", counting_plateau)
    values = np.ones((5, 12))
    values[2] = 3.0  # three plateaus: rings 0-1, ring 2, rings 3-4
    assert find_peaks(EntropyMap(values)) == [Peak(2, 0, 3.0)]
    assert calls == [(0, 0), (2, 0), (4, 0)]
    calls.clear()
    assert find_peaks(EntropyMap(np.full((5, 12), 2.5))) == [Peak(0, 0, 2.5)]
    assert calls == [(0, 0)]


def test_find_peaks_skips_the_plateau_search_when_no_neighbours_tie(monkeypatch):
    calls = []
    plateau = entropy._plateau

    def counting_plateau(values, ring, azimuth):
        calls.append((ring, azimuth))
        return plateau(values, ring, azimuth)

    monkeypatch.setattr(entropy, "_plateau", counting_plateau)
    rng = np.random.default_rng(8)
    for _ in range(100):
        values = rng.random((5, 12))
        assert len(np.unique(values)) == values.size  # so no two neighbours are equal
        got = [(p.ring, p.azimuth, p.value) for p in find_peaks(EntropyMap(values))]
        assert got == brute_force_peaks(values)
    assert calls == []


def test_find_peaks_matches_brute_force():
    rng = np.random.default_rng(3)
    for i in range(300):
        if i % 2:
            values = rng.integers(0, 4, size=(5, 12)).astype(float)  # plateau-rich
        else:
            values = rng.random((5, 12)) * 8.0
        got = [(p.ring, p.azimuth, p.value) for p in find_peaks(EntropyMap(values))]
        assert got == brute_force_peaks(values)


def test_peak_count_bounds():
    rng = np.random.default_rng(4)
    for i in range(200):
        values = rng.integers(0, 3, size=(5, 12)).astype(float)
        count = len(find_peaks(EntropyMap(values)))
        assert 1 <= count <= 30


def test_column_rotation_equivariance():
    rng = np.random.default_rng(5)
    for _ in range(25):
        values = rng.random((5, 12)) * 8.0  # continuous: ties have probability zero
        base = {(p.ring, p.azimuth) for p in find_peaks(EntropyMap(values))}
        for c in (1, 5, 11):
            rotated = np.roll(values, c, axis=1)
            got = {(p.ring, p.azimuth) for p in find_peaks(EntropyMap(rotated))}
            assert got == {(r, (a + c) % 12) for r, a in base}


def test_top_n_views():
    values = np.zeros((5, 12))
    values[0, 2] = 3.0
    values[2, 6] = 2.0
    values[4, 9] = 1.0
    peaks = find_peaks(EntropyMap(values))
    assert len(peaks[:5]) == 3  # never padded
    assert peaks[:1] == [Peak(0, 2, 3.0)]
    assert [p.value for p in peaks] == [3.0, 2.0, 1.0]  # best first


@st.composite
def _level_maps(draw):
    """5x12 maps over at most 4 distinct values, so plateaus and constant maps are common."""
    levels = draw(st.lists(st.floats(0.0, 8.0), min_size=1, max_size=4, unique=True))
    cells = draw(st.lists(st.sampled_from(levels), min_size=60, max_size=60))
    return np.array(cells).reshape(5, 12)


@settings(max_examples=300, deadline=None)
@given(values=_level_maps())
def test_find_peaks_matches_brute_force_on_plateaus(values):
    peaks = find_peaks(EntropyMap(values))
    assert [(p.ring, p.azimuth, p.value) for p in peaks] == brute_force_peaks(values)
    assert all(type(p.value) is float for p in peaks)


@settings(max_examples=100, deadline=None)
@given(cells=st.lists(st.floats(0.0, 8.0), min_size=60, max_size=60, unique=True))
def test_find_peaks_rolls_with_the_map(cells):
    values = np.array(cells).reshape(5, 12)
    base = find_peaks(EntropyMap(values))
    for m in range(12):
        rolled = find_peaks(EntropyMap(np.roll(values, m, axis=1)))
        assert rolled == [Peak(p.ring, (p.azimuth + m) % 12, p.value) for p in base]


def test_map_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    emap = EntropyMap(rng.random((5, 12)) * 8.0)
    path = tmp_path / "map.csv"
    write_map_csv(emap, path)
    again = read_map_csv(path)
    assert np.abs(again.values - emap.values).max() < 1e-12
    assert np.array_equal(again.values, emap.values)  # repr round-trips exactly


def test_heatmap_pixels():
    constant = map_to_pgm_pixels(EntropyMap(np.full((5, 12), 2.0)))
    assert constant.shape == (100, 240)
    assert (constant == 128).all()

    values = np.zeros((5, 12))
    values[3, 7] = 4.0
    spike = map_to_pgm_pixels(EntropyMap(values))
    assert spike.shape == (100, 240)
    assert spike[3 * 20 : 4 * 20, 7 * 20 : 8 * 20].min() == 255
    assert spike.sum() == 255 * 400
