import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (
    brute_force_render,
    camera_rays,
    closed_cylinder_mesh,
    depth_codes,
    random_mesh,
    ray_triangle_hits,
    reference_ray_origins,
    render_depth,
    unit_cube_mesh,
)
from viewsphere import render
from viewsphere.mesh import MeshError, TriangleMesh
from viewsphere.render import DepthImage, read_pgm, render_all_views, write_pgm_array
from viewsphere.viewrig import RADIUS, Viewpoint, antipode, build_rig, viewpoint_from_index


def test_empty_mesh_renders_background():
    mesh = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    img = render_depth(mesh, viewpoint_from_index(0))
    assert img.pixels.shape == (224, 224)
    assert not img.pixels.any()


def test_cube_silhouette_fraction():
    img = render_depth(unit_cube_mesh(), Viewpoint(ring=2, azimuth=0))
    fraction = np.count_nonzero(img.pixels) / img.pixels.size
    assert abs(fraction - (1.0 / 1.9) ** 2) < 0.01


def test_render_bit_deterministic():
    rng = np.random.default_rng(0)
    mesh = random_mesh(rng, 60)
    view = viewpoint_from_index(17)
    a = render_depth(mesh, view)
    b = render_depth(mesh, view)
    assert np.array_equal(a.pixels, b.pixels)


def test_random_meshes_match_brute_force_exactly():
    rng = np.random.default_rng(1)
    for _ in range(5):
        mesh = random_mesh(rng, int(rng.integers(5, 120)))
        for index in rng.integers(0, 60, size=2):
            view = viewpoint_from_index(int(index))
            fast = render_depth(mesh, view)
            slow = brute_force_render(mesh, view)
            assert np.array_equal(fast.pixels, slow.pixels)


def test_ray_triangle_hits_accepts_per_pair_corners():
    rng = np.random.default_rng(8)
    tris = random_mesh(rng, 40).triangles
    tris[5, 2] = tris[5, 1]  # zero area: never a hit
    _, direction = camera_rays(viewpoint_from_index(9))
    # one ray per triangle, aimed at its centroid, every other one pushed sideways
    origins = tris.mean(axis=1) - 3.0 * direction + 0.05 * (np.arange(40) % 2)[:, None]
    ox, oy, oz = origins.T
    pairs = ray_triangle_hits(ox, oy, oz, direction, tris[:, 0], tris[:, 1], tris[:, 2])
    single = [ray_triangle_hits(ox[i], oy[i], oz[i], direction, *tris[i]) for i in range(40)]
    assert np.array_equal(pairs, np.array(single))
    assert np.isfinite(pairs).sum() >= 15 and np.isinf(pairs[5])


#: The rig views whose direction is exactly a coordinate axis (ring 2, azimuths 0, 3, 6, 9).
AXIS_VIEWS = (24, 27, 30, 33)


@settings(max_examples=80, deadline=None)
@given(
    tris=st.integers(1, 8).flatmap(lambda n: hnp.arrays(np.float64, (n, 3, 3), elements=st.floats(-0.5, 0.5))),
    lift=st.floats(1e-309, 1e-307),
    indices=st.lists(st.sampled_from(AXIS_VIEWS) | st.integers(0, 59), min_size=1, max_size=3),
    n_rays=st.integers(2, 40),
    longer=st.integers(0, 30),
    seed=st.integers(0, 2**16),
)
def test_hits_with_workspace_scratch_match_ray_triangle_hits(tris, lift, indices, n_rays, longer, seed):
    # beside the drawn triangles: a zero-area one, and a sliver in the plane z = 0
    # with one corner lifted by ``lift``, whose ``a`` is subnormal (or as small) at
    # the views along x and y. Each drawn view is one slot of the term table,
    # which carries each slot's direction in rows 13-15, and the kernel takes
    # it per ray
    zero_area = tris[:1].copy()
    zero_area[0, 2] = zero_area[0, 1]
    sliver = np.array([[[0.3, -0.2, 0.0], [-0.1, 0.25, lift], [-0.35, -0.3, 0.0]]])
    tris = np.concatenate([tris, zero_area, sliver])
    n_tris, slots = len(tris), len(indices)
    directions = np.array([viewpoint_from_index(index).camera_frame()[2] for index in indices])
    rng = np.random.default_rng(seed)
    tri = rng.integers(0, n_tris, size=n_rays)
    tri[:2] = n_tris - 2, n_tris - 1
    slot = rng.integers(0, slots, size=n_rays)
    weights = rng.uniform(-0.2, 1.0, size=(n_rays, 3))  # some rays pass outside their triangle
    weights /= weights.sum(axis=1, keepdims=True)
    ox, oy, oz = (np.einsum("nc,nci->ni", weights, tris[tri]) - 3.0 * directions[slot]).T
    expected = np.empty(n_rays)
    for k, direction in enumerate(directions):
        mine = slot == k
        corners = tris[tri[mine]]
        expected[mine] = ray_triangle_hits(ox[mine], oy[mine], oz[mine], direction, *corners.transpose(1, 0, 2))

    ws = render._Workspace(tris, slots)
    rows = len(ws.terms)
    assert rows == 16
    ws.terms[13:] = np.repeat(directions.T, n_tris, axis=1)
    h, a = render._view_terms(ws.terms[13:], ws.terms)
    ws.terms[9:12] = h
    with np.errstate(divide="ignore", over="ignore"):
        f = 1.0 / a
    ws.terms[12] = np.where(np.isfinite(f), f, np.nan)  # as ray_triangle_hits passes it
    # scratch longer than the block, and holding stale values
    ws.scratch(rows + 12, n_rays + longer).fill(np.nan)
    ws.scratch(2, n_rays + longer, np.bool_).fill(True)
    floats = ws.scratch(rows + 12, n_rays)
    pair_terms, origins = floats[:rows], floats[rows : rows + 3]
    np.take(ws.terms, slot * n_tris + tri, axis=1, out=pair_terms, mode="clip")
    origins[:] = ox, oy, oz
    scratch = [*floats[rows + 3 :], *ws.scratch(2, n_rays, np.bool_)]
    t = render._hits(*origins, pair_terms[13:], pair_terms[:13], scratch)
    assert np.shares_memory(t, floats)
    assert np.array_equal(t.view(np.uint64), expected.view(np.uint64))


def _edge_on_mesh():
    """Random triangles, plus two that are edge-on to some axis views and seen in the others.

    A triangle in a plane z = const is edge-on to all four views along x and
    y; one in a plane x = const is edge-on to the views along y only. Both
    have ``a = 0`` exactly there, so those pairs give them no spans, while
    other pairs of the same call render them.
    """
    rng = np.random.default_rng(9)
    flat_z = np.array([[-0.3, -0.25, 0.1], [0.35, -0.1, 0.1], [0.0, 0.3, 0.1]])
    flat_x = np.array([[0.05, -0.3, -0.2], [0.05, 0.3, -0.25], [0.05, 0.0, 0.35]])
    tris = np.concatenate([random_mesh(rng, 20, radius=0.35).triangles, [flat_z, flat_x]])
    return TriangleMesh(tris.reshape(-1, 3), np.arange(3 * len(tris)).reshape(-1, 3))


@pytest.mark.parametrize("pair_chunk", [None, 7])
def test_edge_on_triangles_leave_no_stale_terms(monkeypatch, pair_chunk):
    # every pass rewrites h and f of the one term table, 6 pairs per pass by
    # default and 1 at pair_chunk 7; a pass that read an earlier pass's h or f
    # would let the edge-on triangles into its images, or test the seen ones
    # with another view's terms
    mesh, rig = _edge_on_mesh(), build_rig()
    _narrow(monkeypatch)
    flat_z, flat_x = (render._edge_rows(*corners) for corners in mesh.triangles[-2:])
    for index in AXIS_VIEWS:
        direction = rig[index].camera_frame()[2]
        assert render._view_terms(direction, flat_z)[1] == 0.0
        assert (render._view_terms(direction, flat_x)[1] == 0.0) == (index in (27, 33))
    if pair_chunk is not None:
        monkeypatch.setattr(render, "_PAIR_CHUNK", pair_chunk)
    for view, image in zip(rig, render_all_views(mesh, rig)):
        assert np.array_equal(image.pixels, brute_force_render(mesh, view).pixels), view


def test_camera_rays_match_reference_origins_bit_for_bit():
    for view in build_rig():
        origins, direction = camera_rays(view)
        expected = np.array(reference_ray_origins(view))
        assert origins.shape == expected.shape == (224, 224, 3)
        assert np.array_equal(origins.view(np.uint64), expected.view(np.uint64)), view
        assert np.array_equal(direction, view.camera_frame()[2])


def test_antipode_mirrored_column_terms_reverse_its_own():
    # a pass builds each member's tables for all its slots at once; slot k's
    # columns and rows are those of its view alone
    rig = build_rig()
    ucoords, vcoords = render._pixel_axes()
    width = render.IMAGE_SIZE
    for k in range(0, 60, render._MAX_SLOTS):
        views = rig[k : k + render._MAX_SLOTS]
        columns, rows = render._origin_terms(render._frames(views), ucoords, vcoords)
        mirrored, mirrored_rows = render._origin_terms(render._frames(views), ucoords[::-1], vcoords)
        for slot, view in enumerate(views):
            own = render._origin_terms(render._frames([view]), ucoords, vcoords)
            mine = slice(slot * width, (slot + 1) * width)
            assert np.array_equal(columns[:, mine].view(np.uint64), own[0].view(np.uint64)), view
            assert np.array_equal(rows[:, mine].view(np.uint64), own[1].view(np.uint64)), view
            assert np.array_equal(mirrored[:, mine].view(np.uint64), own[0][:, ::-1].view(np.uint64)), view
            assert np.array_equal(mirrored_rows[:, mine].view(np.uint64), own[1].view(np.uint64)), view


def _pixel_grid(size, square):
    """``render._pixel_axes(2)`` of ``size`` pixels over ``square`` units."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(render, "IMAGE_SIZE", size)
        monkeypatch.setattr(render, "VIEW_SQUARE_SIZE", square)
        return render._pixel_axes(2)


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_SPECIAL = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308])


@settings(max_examples=100, deadline=None)
@given(
    grid=st.sampled_from([(224, 1.9), (64, 1.2), (7, 0.5)]),
    keys=hnp.arrays(np.float64, st.integers(0, 200), elements=_ANY_FLOAT | _SPECIAL | st.floats(-1.5, 1.5)),
    side=st.sampled_from(["left", "right"]),
)
def test_grid_index_equals_searchsorted_bit_for_bit(grid, keys, side):
    # the default grid, the narrowed one of the tests and a tiny one with a
    # center at 0; the keys add every center moved by -4 to +4 ulps
    ucoords, vcoords = _pixel_grid(*grid)
    width = len(ucoords)
    # the row searches run among the u centers, and the stop search among the negated ones
    assert np.array_equal(-vcoords[:width], ucoords) and np.array_equal(-ucoords[::-1], ucoords)
    near = [ucoords]
    for direction in (np.inf, -np.inf):
        moved = ucoords
        for _ in range(4):
            moved = np.nextafter(moved, direction)
            near.append(moved)
    keys = np.concatenate([keys, *near])
    n = len(keys)
    # stale scratch and output change nothing
    out, scratch, flags = np.full(n, -7, np.intp), np.full(n, np.nan), np.ones(n, np.bool_)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = render._grid_index(ucoords, keys, side, out, scratch, flags)
    assert got is out
    assert np.array_equal(got, np.searchsorted(ucoords, keys, side=side))


def test_render_working_set_holds_no_origin_planes():
    # the 60 output images take 3.0 MB, in a memory mapping that tracemalloc
    # does not trace, so their bytes are added; the antipode code buffer takes
    # 0.3 MB and the block scratch 1.2 MB; three 224 x 224 float64 origin
    # planes per view of a pass would add 2.4 MB per pair
    mesh, rig = unit_cube_mesh(), build_rig()
    tracemalloc.start()
    try:
        images = render_all_views(mesh, rig)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak += sum(image.pixels.nbytes for image in images)
    assert peak <= 6_000_000, peak


def _mixed_mesh():
    """The unit cube (faces spanning many rows), 100 small random triangles, a
    zero-area triangle, and a big triangle that the narrow view square clips."""
    rng = np.random.default_rng(6)
    parts = [unit_cube_mesh(), random_mesh(rng, 100, radius=0.4)]
    parts.append(TriangleMesh(np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3], [0.3, 0.1, -0.2]]), [[0, 1, 2]]))
    parts.append(TriangleMesh(np.array([[0.5, 0.5, 0.5], [-0.5, 0.4, 0.5], [0.45, -0.5, -0.5]]), [[0, 1, 2]]))
    verts, faces = [], []
    for part in parts:
        faces.append(part.faces + sum(len(v) for v in verts))
        verts.append(part.vertices)
    return TriangleMesh(np.vstack(verts), np.vstack(faces))


def _narrow(monkeypatch):
    """64 px over 1.2 units: cube faces still cover > 1,000 px, and corners leave the image."""
    monkeypatch.setattr(render, "IMAGE_SIZE", 64)
    monkeypatch.setattr(render, "VIEW_SQUARE_SIZE", 1.2)


@pytest.fixture(scope="module")
def mixed_mesh_and_oracle():
    mesh = _mixed_mesh()
    with pytest.MonkeyPatch.context() as monkeypatch:
        _narrow(monkeypatch)
        return mesh, [brute_force_render(mesh, view) for view in build_rig()]


@pytest.mark.parametrize("pair_chunk", [None, 7])
def test_mixed_mesh_matches_brute_force_on_all_views(mixed_mesh_and_oracle, monkeypatch, pair_chunk):
    mesh, oracle = mixed_mesh_and_oracle
    _narrow(monkeypatch)
    if pair_chunk is not None:
        monkeypatch.setattr(render, "_PAIR_CHUNK", pair_chunk)  # triangles and rows span blocks
    # all 60 in one call: pairs of views share blocks, which split triangles at pair_chunk 7
    batch = render_all_views(mesh, build_rig())
    for view, expected, image in zip(build_rig(), oracle, batch):
        assert expected.pixels.shape == (64, 64)
        assert np.array_equal(render_depth(mesh, view).pixels, expected.pixels), view
        assert np.array_equal(image.pixels, expected.pixels), view


def _mirrored_mesh(seed):
    """Random triangles plus their z-mirrors, with matched vertex order."""
    rng = np.random.default_rng(seed)
    half = rng.uniform(-0.45, 0.45, size=(12, 3, 3))
    mirrored = half * np.array([1.0, 1.0, -1.0])
    verts = np.vstack([half.reshape(-1, 3), mirrored.reshape(-1, 3)])
    faces = np.arange(len(verts)).reshape(-1, 3)
    return TriangleMesh(verts, faces)


def test_z_symmetric_mesh_flips_across_rings():
    mesh = _mirrored_mesh(3)
    rig = build_rig()
    images = render_all_views(mesh, rig)
    for k in range(5):
        for j in range(12):
            a = images[12 * k + j].pixels
            b = images[12 * (4 - k) + j].pixels
            assert np.array_equal(a, np.flipud(b))


def test_render_all_views_matches_single_view_renders():
    rng = np.random.default_rng(4)
    mesh = random_mesh(rng, 40)
    rig = build_rig()
    batch = render_all_views(mesh, rig)
    assert len(batch) == 60
    # the passes reuse the workspace's tables; a stale term would leak into the next pass
    for view, image in zip(rig, batch):
        assert np.array_equal(image.pixels, render_depth(mesh, view).pixels), view
    # a rig may list a view twice, and hold one or both members of a pair, in any order
    partial = [rig[40], antipode(rig[40]), rig[40], rig[5]]
    for view, image in zip(partial, render_all_views(mesh, partial)):
        assert np.array_equal(image.pixels, batch[view.index].pixels), view


def test_every_image_is_c_contiguous_and_read_only():
    # an antipode's image is folded in its pair's pixel order and mirrored on the way out
    rig = build_rig()
    for image in render_all_views(unit_cube_mesh(), rig):
        assert image.pixels.flags.c_contiguous and not image.pixels.flags.writeable


@pytest.mark.parametrize("width", [224, 64, 12, 63, 6, 1])
def test_mirror_rows_reverses_every_row(width):
    # rows of a multiple of 8 bytes move as byte-swapped 8-byte words, others in smaller words
    src = np.random.default_rng(width).integers(0, 256, size=(3, 5, width), dtype=np.uint8)
    out = np.full_like(src, 7)
    render._mirror_rows(src, out)
    assert np.array_equal(out, src[..., ::-1])


@pytest.mark.parametrize("pair_chunk", [7, 64, None])
@settings(max_examples=15, deadline=None)
@given(
    data=st.data(),
    rig=st.just(list(range(60))) | st.lists(st.integers(0, 59), min_size=1, max_size=24),
    narrow=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_splitting_a_rig_into_passes_changes_no_byte(pair_chunk, data, rig, narrow, seed):
    # face counts around _PAIR_CHUNK // P for every P up to the cap (at the
    # default chunk the cap binds), so that one rig splits into passes of
    # unequal size; drawn rigs hold unpaired views, pairs, and views listed twice
    chunk = render._PAIR_CHUNK if pair_chunk is None else pair_chunk
    limits = [chunk // slots for slots in range(1, render._MAX_SLOTS + 1) if 0 < chunk // slots <= 40]
    near = st.sampled_from(limits).flatmap(lambda n: st.integers(max(n - 1, 1), n + 1)) if limits else st.nothing()
    n_tris = data.draw(near | st.integers(1, 40))
    # the first faces lie on a code boundary plane, so the views along x send
    # their pixels to the kernel (see the code boundary test below)
    tris = random_mesh(np.random.default_rng(seed), n_tris).triangles
    tris[:2] = _square_mesh(0.5).triangles[: len(tris[:2])]
    mesh = TriangleMesh(tris.reshape(-1, 3), np.arange(3 * n_tris).reshape(-1, 3))
    views = [viewpoint_from_index(index) for index in rig]
    with pytest.MonkeyPatch.context() as monkeypatch:
        if narrow:
            _narrow(monkeypatch)
        monkeypatch.setattr(render, "_PAIR_CHUNK", chunk)
        images = render_all_views(mesh, views)
        for view, image in zip(views, images):
            assert np.array_equal(image.pixels, render_depth(mesh, view).pixels), view
            if narrow:
                assert np.array_equal(image.pixels, brute_force_render(mesh, view).pixels), view


def test_passes_follow_the_face_count_rule(monkeypatch):
    # a pass takes P = min(pairs left, _PAIR_CHUNK // T, _MAX_SLOTS) antipodal
    # pairs; counted at the span stage, which runs once per pass
    slots = []

    def counted(ws, views):
        slots.append(len(views))
        return iter(())

    monkeypatch.setattr(render, "_pass_spans", counted)
    rig = build_rig()

    def passes(mesh, views):
        slots.clear()
        render_all_views(mesh, views)
        return list(slots)

    per_pass = min(render._PAIR_CHUNK // 12, render._MAX_SLOTS)
    cube = passes(unit_cube_mesh(), rig)
    assert len(cube) == math.ceil(30 / per_pass) and sum(cube) == 30 and max(cube) == per_pass
    # the path of the 3,120-face spheres: one pair per pass
    half = render._PAIR_CHUNK // 2
    assert passes(random_mesh(np.random.default_rng(0), half + 1), rig) == [1] * 30
    assert passes(random_mesh(np.random.default_rng(0), half), rig) == [2] * 15
    assert passes(unit_cube_mesh(), [rig[17]]) == [1]
    # a view whose antipode is not in the rig takes a slot of its own pair
    pairs = [view for k in range(9) for view in (rig[k], antipode(rig[k]))]
    unpaired = [rig[k] for k in range(12, 24)]

    def split(groups):
        return [min(per_pass, groups - k) for k in range(0, groups, per_pass)]

    assert passes(unit_cube_mesh(), unpaired[:3] + pairs + unpaired[3:]) == split(21)


def _guard_mesh():
    """Triangles whose candidate pixels hinge on the renderer's rounding guard.

    - Corners on pixel centers of the axis-aligned view (ring 2, azimuth 0,
      where image u = +y and v = +z), with horizontal, vertical and diagonal
      edges running through pixel centers.
    - Slivers with one edge nearly along the view direction of a rig view,
      ``|e1| |e2| / |a|`` from 1e2 to 1e12, shifted so that a pixel center
      lies 0.1 eps ``|e1| |e2| / |a|`` outside that edge, where only the
      kernel's rounding decides whether it is hit.
    """
    ucoords, vcoords = render._pixel_axes()
    tris = []
    for n, (j, i) in enumerate([(60, 60), (100, 80), (140, 120), (70, 150), (150, 65), (111, 111)]):
        x, s = -0.3 + 0.1 * n, 3 + 2 * n
        lower, upper = [(j, i), (j + s, i), (j, i + s)], [(j + s, i + s), (j + s, i), (j, i + s)]
        for depth, corners in [(x, lower), (x + 0.05, upper)]:
            tris.append([[depth, ucoords[c], vcoords[r]] for c, r in corners])
    rig = build_rig()
    eps = np.finfo(np.float64).eps
    for n, kappa in enumerate(10.0 ** np.arange(2.0, 12.5, 0.5)):
        right, up, toward = rig[(7 * n + 3) % 60].camera_frame()
        i, j = 96 + n % 5, 100 + (3 * n) % 7
        p0 = ucoords[j] * right + vcoords[i] * up - 0.15 * toward
        p1 = ucoords[j + 12 + n % 3] * right + vcoords[i + 6] * up
        along = (p1 - p0) - ((p1 - p0) @ toward) * toward
        along /= np.linalg.norm(along)
        p2 = p0 + 0.3 * toward + 0.3 / kappa * np.cross(toward, along)  # p0 -> p2 nearly end-on
        # shifted so that the pixel center at p0 falls just outside the edge p0 -> p2
        corners = [c + 0.1 * eps * kappa * along for c in (p0, p1, p2)]
        tris.append([corners[(k + n) % 3] for k in range(3)])  # the edge takes each of the kernel's three roles
    tris = np.array(tris)
    return TriangleMesh(tris.reshape(-1, 3), np.arange(3 * len(tris)).reshape(-1, 3))


def test_guard_mesh_matches_brute_force_on_all_views():
    mesh = _guard_mesh()
    for view, image in zip(build_rig(), render_all_views(mesh, build_rig())):
        assert np.array_equal(image.pixels, brute_force_render(mesh, view).pixels), view


def _terms_and_spans(tris, views):
    """What the renderer derives from ``views``, one per slot: the workspace and the spans, inner columns included."""
    ws = render._Workspace(tris, len(views))
    spans = [(np.empty(0, dtype=np.int64),) * 5, *render._pass_spans(ws, views)]
    tri, first, n_cols, lead, n_inner = (np.concatenate([span[i] for span in spans]) for i in range(5))
    return ws, tri, first, n_cols, lead, n_inner


def _assert_antipode_mirrors(tris, views):
    """The antipodes' terms are ``views``' with h, f and directions negated, and their spans mirrored in u."""
    ws, tri, first, n_cols, lead, n_inner = _terms_and_spans(tris, views)
    a_ws, a_tri, a_first, a_n_cols, a_lead, a_n_inner = _terms_and_spans(tris, [antipode(view) for view in views])
    terms, a_terms = ws.terms, a_ws.terms
    assert np.array_equal(a_terms[:12], np.concatenate([terms[:9], -terms[9:12]]))
    assert np.array_equal(a_terms[13:], -terms[13:])  # each slot's direction
    # a triangle seen edge-on has a = +-0 in both views, and an f of either sign
    live = np.isfinite(terms[12])
    assert np.array_equal(np.isfinite(a_terms[12]), live)
    assert np.array_equal(a_terms[12][live], -terms[12][live])
    assert np.array_equal(a_tri, tri) and np.array_equal(a_n_cols, n_cols)
    width = render.IMAGE_SIZE
    row, col = np.divmod(first, width)
    some = n_cols > 0  # an empty span's first pixel is never read
    assert np.array_equal(a_first[some], (row * width + width - col - n_cols)[some])
    # the inner columns lie inside the span, and those of a span that has any are mirrored
    assert (lead >= 0).all() and (n_inner >= 0).all() and (lead + n_inner <= n_cols).all()
    assert np.array_equal(a_n_inner, n_inner)
    inner = n_inner > 0
    assert np.array_equal(a_lead[inner], (n_cols - lead - n_inner)[inner])


def _assert_slots_stack(tris, views):
    """A pass of several slots holds, slot by slot, the terms and spans of a pass of that slot's view alone.

    Slot ``k`` owns columns ``k T`` to ``k T + T - 1`` of the tables and rows
    ``k W`` to ``k W + W - 1`` of the stacked images.
    """
    ws, tri, first, n_cols, lead, n_inner = _terms_and_spans(tris, views)
    n_tris, size = len(tris), render.IMAGE_SIZE**2
    for k, view in enumerate(views):
        one, *spans = _terms_and_spans(tris, [view])
        columns = slice(k * n_tris, (k + 1) * n_tris)
        assert np.array_equal(ws.terms[:, columns].view(np.uint64), one.terms.view(np.uint64)), view
        assert np.array_equal(ws.plane[:, columns].view(np.uint64), one.plane.view(np.uint64)), view
        mine = tri // n_tris == k
        stacked = tri[mine] - k * n_tris, first[mine] - k * size, n_cols[mine], lead[mine], n_inner[mine]
        for got, expected in zip(stacked, spans):
            assert np.array_equal(got, expected), view


@settings(max_examples=60, deadline=None)
@given(
    tris=st.integers(1, 40).flatmap(lambda n: hnp.arrays(np.float64, (n, 3, 3), elements=st.floats(-0.5, 0.5))),
    indices=st.lists(st.integers(0, 59), min_size=1, max_size=3, unique=True),
)
def test_antipode_terms_and_spans_mirror_the_view(tris, indices):
    views = [viewpoint_from_index(index) for index in indices]
    _assert_antipode_mirrors(tris, views)
    _assert_slots_stack(tris, views)


def test_overflowing_edge_slope_renders_like_brute_force_without_warnings():
    # found by the mirror test above: the edge from the first corner falls
    # 1.8e-252 in v over 0.25 in u, so |du/dv| times the guard overflows
    tris = np.array([[[0.0, 1.79374896e-252, 0.0], [0.25, 0.0, 0.0], [0.5, 0.0, 0.0]]])
    mesh = TriangleMesh(tris.reshape(-1, 3), np.arange(3).reshape(1, 3))
    view = viewpoint_from_index(45)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        image = render_depth(mesh, view)
        assert np.array_equal(image.pixels, brute_force_render(mesh, view).pixels)


def test_subnormal_triangle_term_renders_like_brute_force_without_warnings():
    # at view 0 this triangle has a = 9.6e-314, so 1 / a and the guard overflow to inf
    tris = np.array([[[0.5, 0.0, 0.0], [0.0, 2.22507386e-313, 0.0], [0.0, 0.0, 0.0]]])
    mesh = TriangleMesh(tris.reshape(-1, 3), np.arange(3).reshape(1, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_antipode_mirrors(tris, [viewpoint_from_index(0)])  # spans from the infinite guard
        _assert_antipode_mirrors(tris, [viewpoint_from_index(7), viewpoint_from_index(0)])
        _assert_slots_stack(tris, [viewpoint_from_index(7), viewpoint_from_index(0)])
        images = render_all_views(mesh, build_rig())
        for view, image in zip(build_rig(), images):
            assert np.array_equal(image.pixels, brute_force_render(mesh, view).pixels), view


def test_antipode_terms_and_spans_mirror_the_view_on_guard_mesh():
    tris = _guard_mesh().triangles
    first = build_rig()[:30]  # one view of each of the 30 pairs
    for view in first:
        _assert_antipode_mirrors(tris, [view])
    # and in passes of several slots, as the renderer casts them
    for k in range(0, 30, render._MAX_SLOTS):
        _assert_antipode_mirrors(tris, first[k : k + render._MAX_SLOTS])
        _assert_slots_stack(tris, first[k : k + render._MAX_SLOTS])


def _steep_triangle(view, corner, lengths, tilts, turn):
    """A triangle whose edges ``e1`` and ``e2`` leave ``corner`` at angles ``tilts`` from ``view``'s direction.

    ``kappa = |e1| |e2| / |a|`` is about 1 / (sin tilt1 sin tilt2 sin turn):
    small tilts make it steep, and a small ``turn`` between the two edges'
    sideways directions makes it nearly edge-on. It is shrunk toward
    ``corner`` to fit the unit cube.
    """
    right, up, toward = view.camera_frame()
    side1, side2 = right, np.cos(turn) * right + np.sin(turn) * up
    e1 = lengths[0] * (np.cos(tilts[0]) * toward + np.sin(tilts[0]) * side1)
    e2 = lengths[1] * (np.cos(tilts[1]) * toward - np.sin(tilts[1]) * side2)
    edges = np.array([np.zeros(3), e1, e2])
    return corner + edges * min(1.0, (0.5 - np.abs(corner).max()) / np.abs(edges).max())


#: Two fat triangles in crossing planes: every rig view has inner pixels of at least one of them.
FAT_TRIANGLES = np.array(
    [
        [[-0.4, -0.35, 0.1], [0.45, -0.3, -0.2], [-0.2, 0.45, 0.3]],
        [[0.3, -0.4, -0.4], [-0.35, 0.1, 0.45], [0.2, 0.4, -0.1]],
    ]
)


def _inner_pairs(ws, views):
    """Every inner pixel of the spans of ``views``, one per slot, and the code the plane depth gives it.

    Returns (slot, triangle, row, column, code), the triangle and row the
    slot's own, not the stacked table's and image's. The renderer's blocks
    are checked on the way: the kernel pairs are the pixels of code 0 and
    their table columns.
    """
    spans = [(np.empty(0, dtype=np.int64),) * 5, *render._pass_spans(ws, views)]
    tri, first, _, lead, n_inner = (np.concatenate([span[i] for span in spans]) for i in range(5))
    inner = n_inner > 0
    tri, first, n_inner = tri[inner], (first + lead)[inner], n_inner[inner]
    width = render.IMAGE_SIZE
    codes, pixels, kernel_tri = [np.empty(0, np.uint8)], [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    # every run is an inner one
    for block_codes, pix, pairs in render._run_codes(ws, tri, first, n_inner, len(tri)):
        assert np.array_equal(pairs[1], pix[block_codes == 0])
        kernel_tri.append(pairs[0])
        codes.append(block_codes.copy())
        pixels.append(pix.copy())
    codes, pixels = np.concatenate(codes), np.concatenate(pixels)
    # the blocks run the inner pixels span by span, in order
    assert np.array_equal(pixels, np.concatenate([np.empty(0, np.int64), *map(np.arange, first, first + n_inner)]))
    tri = np.repeat(tri, n_inner)
    assert np.array_equal(np.concatenate(kernel_tri), tri[codes == 0])
    slot, tri = np.divmod(tri, ws.corners.shape[-1])
    row, col = np.divmod(pixels, width)
    return slot, tri, row - slot * width, col, codes


def _kernel_distances(tris, view, tri, row, col):
    origins, direction = camera_rays(view)
    ox, oy, oz = origins[row, col].T
    return ray_triangle_hits(ox, oy, oz, direction, tris[tri, 0], tris[tri, 1], tris[tri, 2])


@settings(max_examples=60, deadline=None)
@given(
    soup=st.integers(0, 6).flatmap(lambda n: hnp.arrays(np.float64, (n, 3, 3), elements=st.floats(-0.5, 0.5))),
    steep=st.lists(
        st.tuples(
            hnp.arrays(np.float64, 3, elements=st.floats(-0.3, 0.3)),
            st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
            st.tuples(st.floats(1e-6, 1.6), st.floats(1e-6, 1.6)),
            st.floats(1e-9, 3.1),
        ),
        max_size=4,
    ),
    lift=st.floats(1e-309, 1e-6),
    index=st.sampled_from(AXIS_VIEWS) | st.integers(0, 59),
    others=st.lists(st.integers(0, 59), max_size=2),
)
def test_inner_columns_are_hits_and_certain_plane_codes_are_the_kernels(soup, steep, lift, index, others):
    # random triangles, steep and nearly edge-on ones, the fat pair, and the
    # sliver of the scratch test above, whose ``a`` is subnormal at small lifts;
    # the steep ones are drawn for the first view, and ``others`` fill more slots
    view = viewpoint_from_index(index)
    views = [view, *(viewpoint_from_index(other) for other in others)]
    sliver = [[0.3, -0.2, 0.0], [-0.1, 0.25, lift], [-0.35, -0.3, 0.0]]
    parts = [soup, FAT_TRIANGLES, [sliver], *([_steep_triangle(view, *args)] for args in steep)]
    tris = np.concatenate([np.asarray(part, dtype=np.float64).reshape(-1, 3, 3) for part in parts])
    ws = render._Workspace(tris, len(views))
    slot, tri, row, col, codes = _inner_pairs(ws, views)
    t, t_antipode = np.empty(len(tri)), np.empty(len(tri))
    for k, v in enumerate(views):
        mine = slot == k
        assert mine.any()
        mirrored = render.IMAGE_SIZE - 1 - col[mine]
        t[mine] = _kernel_distances(tris, v, tri[mine], row[mine], col[mine])
        t_antipode[mine] = _kernel_distances(tris, antipode(v), tri[mine], row[mine], mirrored)
    assert np.isfinite(t).all() and np.isfinite(t_antipode).all()

    certain = codes > 0
    # the plane path may leave a pixel to the kernel only if its code bounds
    # can round apart: then the kernel's code lies within the margin M plus
    # the rounding budget, which M covers, so within 2 M, of a half-integer
    # (_plane_terms). Such are the planes of
    # test_code_boundary_planes_run_the_kernel_and_match_brute_force and a
    # drawn triangle in the face x = 0.5 at the views along x; the plane path
    # decides every other inner pixel
    scaled = 255.0 - 127.0 * (t - (RADIUS - 1.0))
    margin = ws.plane[3, slot * len(tris) + tri]
    on_boundary = np.abs(scaled - np.floor(scaled) - 0.5) <= 2.0 * margin
    assert certain[~on_boundary].all()
    assert np.array_equal(codes[certain], depth_codes(t)[certain])
    assert np.array_equal(256 - codes[certain].astype(int), depth_codes(t_antipode)[certain])


def _square_mesh(x):
    """The square ``|y|, |z| <= 0.3`` in the plane at ``x``, as two triangles."""
    corners = [[x, -0.3, -0.3], [x, 0.3, -0.3], [x, 0.3, 0.3], [x, -0.3, 0.3]]
    return TriangleMesh(np.array(corners), np.array([[0, 1, 2], [0, 2, 3]]))


@pytest.mark.parametrize(
    "x, on_boundary",
    [
        (0.5, True),  # t = 1.5 exactly, and s = 255 - 127 (t - 1) = 191.5
        (-0.5, True),  # s = 64.5
        (-0.5 / 127, True),  # s within an ulp of 127.5
        (0.2, False),  # s = 153.4
    ],
)
def test_code_boundary_planes_run_the_kernel_and_match_brute_force(monkeypatch, x, on_boundary):
    # the view along -x and its antipode see the square face on: u = y, v = z
    view = Viewpoint(ring=2, azimuth=0)
    rig = [view, antipode(view)]
    mesh = _square_mesh(x)
    rays = []
    hits = render._hits

    def counted(ox, *args):
        rays.append(np.size(ox))
        return hits(ox, *args)

    monkeypatch.setattr(render, "_hits", counted)
    images = render_all_views(mesh, rig)
    kernel_rays = sum(rays)
    for v, image in zip(rig, images):
        assert np.array_equal(image.pixels, brute_force_render(mesh, v).pixels), v
    # every covered pixel is an inner pixel but for a ring one pixel wide, and
    # on a code boundary the plane depth leaves all of them to the kernel
    covered = np.count_nonzero(images[0].pixels)
    assert covered > 4000
    if on_boundary:
        assert kernel_rays >= 2 * covered
    else:
        assert kernel_rays < covered / 4


def _expected_kernel_pairs(spans, plane, ucoords, vcoords):
    """Two sets of ``(tri, pix)`` pairs of a pass: the columns of ``spans`` beside the inner ones, and the
    inner pixels whose plane code rounding could decide, worked out pixel by pixel from the pass's terms.
    """
    spans = [(np.empty(0, dtype=np.intp),) * 5, *spans]
    tri, first, n_cols, lead, n_inner = (np.concatenate([span[i] for span in spans]) for i in range(5))
    at = np.repeat(np.arange(len(tri)), n_cols)
    k = np.arange(len(at)) - np.repeat(np.cumsum(n_cols) - n_cols, n_cols)  # the column's place in its span
    pix = first[at] + k
    edge = (k < lead[at]) | (k >= (lead + n_inner)[at])
    inner = np.flatnonzero(~edge)
    row, col = np.divmod(pix[inner], render.IMAGE_SIZE)
    alpha, beta, gamma, margin = plane[:, tri[at[inner]]]
    # the code is affine in u along a run: (A -+ M) + B u
    a = 255.0 - 127.0 * ((alpha + gamma * vcoords[row]) - (RADIUS - 1.0))
    bu = -127.0 * beta * ucoords[col]
    uncertain = inner[np.rint((a - margin) + bu) != np.rint((a + margin) + bu)]
    edge = np.flatnonzero(edge)
    return [set(zip(tri[at[which]].tolist(), pix[which].tolist())) for which in (edge, uncertain)]


def test_kernel_gets_the_edge_columns_and_the_uncertain_inner_pixels_once_each(monkeypatch):
    # each square's shared diagonal runs through pixel centers, so in the views
    # that see it face on its spans have columns beside the inner ones; the
    # square at -0.5 lies on a code boundary there, so its inner pixels are uncertain
    tris = np.concatenate([_square_mesh(0.2).triangles, _square_mesh(-0.5).triangles, FAT_TRIANGLES])
    mesh = TriangleMesh(tris.reshape(-1, 3), np.arange(3 * len(tris)).reshape(-1, 3))
    passes = []
    pass_spans, kernel = render._pass_spans, render._kernel_codes

    def recorded_spans(ws, views):
        spans = list(pass_spans(ws, views))
        passes.append((_expected_kernel_pairs(spans, ws.plane, ws.ucoords, ws.vcoords), []))
        return iter(spans)

    def recorded_kernel(ws, members, bufs, tri, pix):
        passes[-1][1].extend(zip(tri.tolist(), pix.tolist()))
        return kernel(ws, members, bufs, tri, pix)

    monkeypatch.setattr(render, "_pass_spans", recorded_spans)
    monkeypatch.setattr(render, "_kernel_codes", recorded_kernel)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        render_all_views(mesh, build_rig())
    totals = np.zeros(2, int)
    for (edge, uncertain), received in passes:
        assert not edge & uncertain
        assert len(set(received)) == len(received)  # each pair once
        assert set(received) == edge | uncertain
        totals += len(edge), len(uncertain)
    assert (totals > 0).all(), totals


def _edge_on_triangle(view, pixel, turn, offsets, depths):
    """A triangle whose plane holds ``view``'s direction, but for the rounding of its corners.

    Its corners lie on the line through the center of ``pixel`` (row, column)
    at the angle ``turn`` from the image's u axis: the first at that center,
    the others ``offsets`` along the line, and each ``depths`` along the view
    direction. A ``turn`` that is a multiple of 45 degrees runs the line
    through a row, a column or a diagonal of pixel centers.
    """
    right, up, toward = view.camera_frame()
    ucoords, vcoords = render._pixel_axes()
    line = np.cos(turn) * right + np.sin(turn) * up
    center = ucoords[pixel[1]] * right + vcoords[pixel[0]] * up
    return np.array([center + s * line + t * toward for s, t in zip((0.0, *offsets), depths)])


def _banded(tris, view):
    """The triangles whose guard in ``view`` is the band (:func:`render._band`), not ``g``."""
    ws = render._Workspace(tris)
    right, up, direction = view.camera_frame()
    _, a = render._view_terms(direction, ws.terms)
    g = render._guard(ws.edge_product, a)
    guard = g.copy()
    pu, pv = render._project(ws.corners, right), render._project(ws.corners, up)
    render._band(ws.edge_product, a, guard, pu, pv)
    return guard < g


_OFFSET = st.floats(0.02, 0.12) | st.floats(-0.12, -0.02)
_DEPTH = st.floats(-0.12, 0.12)


@settings(max_examples=40, deadline=None)
@given(
    index=st.sampled_from(AXIS_VIEWS) | st.integers(0, 59),
    lines=st.lists(
        st.tuples(
            st.tuples(st.integers(92, 131), st.integers(92, 131)),
            st.sampled_from([0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4]) | st.floats(0.0, np.pi),
            st.tuples(_OFFSET, _OFFSET),
            st.tuples(_DEPTH, _DEPTH, _DEPTH),
            st.integers(-2, 2),
        ),
        min_size=1,
        max_size=3,
    ),
    tiny=st.floats(1e-320, 1e-300),
)
def test_band_guarded_triangles_render_like_brute_force(index, lines, tiny):
    # triangles tilted to within an ulp of edge-on, some through rows, columns
    # or diagonals of pixel centers, and one whose projected edges are
    # subnormal but for rounding: it keeps g
    view = viewpoint_from_index(index)
    tris, slopes = [], []
    for pixel, turn, offsets, depths, ulps in lines:
        corners = _edge_on_triangle(view, pixel, turn, offsets, depths)
        corners[2] += ulps * np.spacing(corners[2])
        tris.append(corners)
        with np.errstate(divide="ignore", over="ignore"):
            slopes.append(abs(np.cos(turn) / np.sin(turn)))  # |du/dv| of the line
    right, _, toward = view.camera_frame()
    center = _edge_on_triangle(view, lines[0][0], 0.0, (0.0, 0.0), (0.0, 0.0, 0.0))[0]
    tris.append([center, center + 0.1 * toward, center + 0.2 * toward + tiny * right])
    tris = np.array(tris)
    mesh = TriangleMesh(tris.reshape(-1, 3), np.arange(3 * len(tris)).reshape(-1, 3))
    rig = [view, antipode(view)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        images = render_all_views(mesh, rig)
        banded = _banded(tris, view)
        _, tri, _, n_cols, _, n_inner = _terms_and_spans(tris, [view])
    for v, image in zip(rig, images):
        assert np.array_equal(image.pixels, brute_force_render(mesh, v).pixels), v
    # a banded triangle's spans hold the few pixel centers per row that its
    # line crosses, and no inner columns
    for k, slope in enumerate(slopes):
        if banded[k]:
            mine = tri == k
            assert (n_inner[mine] == 0).all()
            assert (n_cols[mine] <= 3 + slope).all(), (k, n_cols[mine].max(), slope)


def test_band_guard_sends_few_pairs_to_the_kernel(monkeypatch):
    # triangles tilted an ulp from edge-on in a view along no axis, the first
    # along a row of pixel centers and the last along a diagonal: their guard g
    # exceeds the view square, so without the band each would send all
    # 50,176 pixels of both views to the kernel
    view = viewpoint_from_index(15)
    turns = [0.0, 0.3, 1.2, 2.0, np.pi / 4]
    tris = np.array(
        [
            _edge_on_triangle(view, (100 + 5 * k, 110 - 3 * k), turn, (0.1, -0.07), (0.05, -0.1, 0.08))
            for k, turn in enumerate(turns)
        ]
    )
    tris[:, 2] += np.spacing(tris[:, 2])
    mesh = TriangleMesh(tris.reshape(-1, 3), np.arange(3 * len(tris)).reshape(-1, 3))
    ws = render._Workspace(tris)
    _, a = render._view_terms(view.camera_frame()[2], ws.terms)
    assert np.isfinite(1.0 / a).all()
    assert (render._guard(ws.edge_product, a) > render.VIEW_SQUARE_SIZE).all()
    assert _banded(tris, view).all()
    pairs = []
    kernel = render._kernel_codes

    def counted(ws, members, bufs, tri, pix):
        pairs.append(len(tri))
        return kernel(ws, members, bufs, tri, pix)

    monkeypatch.setattr(render, "_kernel_codes", counted)
    rig = [view, antipode(view)]
    images = render_all_views(mesh, rig)
    # each call tests its pairs in both views
    assert 0 < sum(pairs) <= 0.01 * render.IMAGE_SIZE**2 * len(tris)
    for v, image in zip(rig, images):
        assert np.array_equal(image.pixels, brute_force_render(mesh, v).pixels), v


def test_cylinder_yaw_invariant_foreground():
    # 360-facet cylinder: nearly symmetric under any yaw step
    mesh = closed_cylinder_mesh(360)
    counts = []
    for azimuth in range(12):
        img = render_depth(mesh, Viewpoint(ring=1, azimuth=azimuth))
        counts.append(np.count_nonzero(img.pixels))
    assert max(counts) - min(counts) <= 0.005 * 224 * 224


def test_depth_codes_antitone_and_clamped():
    radius = RADIUS
    t = np.array([radius - 1.0, radius - 0.5, radius, radius + 0.5, radius + 1.0, np.inf])
    codes = depth_codes(t)
    assert codes[0] == 255 and codes[4] == 1 and codes[5] == 0
    hit = codes[:-1]
    assert (np.diff(hit.astype(int)) <= 0).all()
    # out-of-range hits clamp instead of wrapping
    assert depth_codes(np.array([radius + 2.0]))[0] == 1
    assert depth_codes(np.array([radius - 2.0]))[0] == 255


def test_foreground_nonzero_background_zero():
    img = render_depth(unit_cube_mesh(), viewpoint_from_index(30))
    values = np.unique(img.pixels)
    assert values[0] == 0
    assert (values[1:] >= 1).all()


def test_render_rejects_unnormalized_mesh():
    verts = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    with pytest.raises(MeshError, match="not normalized"):
        render_depth(TriangleMesh(verts, np.array([[0, 1, 2]])), viewpoint_from_index(0))


def test_degenerate_triangles_are_skipped_not_errors():
    verts = np.array([[0.1, 0.1, 0.1], [0.1, 0.1, 0.1], [0.1, 0.1, 0.1]])
    mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
    img = render_depth(mesh, viewpoint_from_index(0))
    assert not img.pixels.any()


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    img = DepthImage(rng.integers(0, 256, size=(224, 224), dtype=np.uint8))
    path = tmp_path / "v.pgm"
    write_pgm_array(img.pixels, path)
    again = read_pgm(path)
    assert np.array_equal(img.pixels, again.pixels)
    write_pgm_array(again.pixels, tmp_path / "v2.pgm")
    assert path.read_bytes() == (tmp_path / "v2.pgm").read_bytes()


def test_pgm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ValueError, match="not a binary PGM"):
        read_pgm(path)
    path.write_bytes(b"P5\n4 4\n255\nxx")
    with pytest.raises(ValueError, match="truncated"):
        read_pgm(path)


def test_depth_image_validation():
    with pytest.raises(ValueError, match="uint8"):
        DepthImage(np.zeros((224, 224)))
    with pytest.raises(ValueError, match="2D"):
        DepthImage(np.zeros((10,), dtype=np.uint8))
