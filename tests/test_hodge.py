"""Periodic-grid exterior calculus: operator laws and the four identity checks."""
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import iv

from grflab.hodge import (
    FormField,
    HodgeReport,
    PeriodicGrid,
    VectorField,
    adjointness_gap,
    check_divH2,
    check_integral_identity,
    check_suobing,
    check_twisted_codiff,
    closed_three_form,
    codiff,
    d,
    example_fields,
    gradient,
    hodge,
    inner_pointwise,
    integral,
    interior,
    l2_inner,
    lie,
    wedge,
)
from grflab.hodge import random_trig_form as separable_trig_form
from grflab import hodge as dec
from grflab._pairwise import PairwiseSum


@pytest.fixture(scope="module")
def g16():
    return PeriodicGrid(dim=3, sizes=(16, 16, 16))


@pytest.fixture(scope="module")
def g32():
    return PeriodicGrid(dim=3, sizes=(32, 32, 32))


@pytest.fixture(scope="module")
def g64():
    return PeriodicGrid(dim=3, sizes=(64, 64, 64))


@pytest.fixture(scope="module")
def gm16():
    return PeriodicGrid(dim=3, sizes=(16, 16, 16), metric=(1.3, 0.7, 2.1))


@pytest.fixture(scope="module")
def g4():
    return PeriodicGrid(dim=4, sizes=(16, 16, 16, 16))


@pytest.fixture(scope="module")
def g3_odd():
    return PeriodicGrid(dim=3, sizes=(17, 16, 19), periods=(1.0, 2.0, 3.0))


@pytest.fixture(scope="module")
def gm4():
    return PeriodicGrid(dim=4, sizes=(16, 18, 17, 20), metric=(1.3, 0.7, 2.1, 0.9))


def random_trig_form(grid, degree, seed):
    rng = np.random.default_rng(seed)
    axes = grid.coords()
    comps = {}
    from itertools import combinations

    for idx in combinations(range(grid.dim), degree):
        k = int(rng.integers(1, 4))
        ax = axes[int(rng.integers(0, grid.dim))]
        comps[idx] = np.sin(k * ax + rng.uniform(0.0, 2 * np.pi))
    return FormField(grid, degree, comps)


# ---------------------------------------------------------------- grid basics


def test_grid_geometry(g16):
    assert np.allclose(g16.spacing, 2 * np.pi / 16)
    assert abs(g16.cell_volume - (2 * np.pi / 16) ** 3) < 1e-15
    assert g16.refined().sizes == (32, 32, 32)
    spec = g16.spec()
    assert spec["dim"] == 3 and spec["sizes"] == [16, 16, 16]
    x, y, z = g16.coords()
    assert x.shape == (16, 1, 1) and y.shape == (1, 16, 1) and z.shape == (1, 1, 16)


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(dim=2, sizes=(16, 16))
    with pytest.raises(ValueError):
        PeriodicGrid(dim=3, sizes=(8, 16, 16))
    with pytest.raises(ValueError):
        PeriodicGrid(dim=3, sizes=(16, 16, 16), metric=(1.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        PeriodicGrid(dim=3, sizes=(16, 16))


@pytest.mark.parametrize("geometry", [
    {"sizes": (16.7, 16, 16)},
    {"sizes": (16, np.nan, 16)},
    {"sizes": (16, 16, np.inf)},
    {"periods": (np.nan, 1.0, 1.0)},
    {"periods": (np.inf, 1.0, 1.0)},
    {"metric": (np.inf, 1.0, 1.0)},
    {"metric": (1.0, np.nan, 1.0)},
], ids=["fractional-size", "nan-size", "inf-size", "nan-period", "inf-period",
        "inf-metric", "nan-metric"])
def test_grid_rejects_fractional_sizes_and_non_finite_geometry(geometry):
    # a size is never truncated, and no spacing or cell volume is nan or inf
    with pytest.raises(ValueError):
        PeriodicGrid(**{"dim": 3, "sizes": (16, 16, 16), **geometry})


def test_grid_keeps_integral_sizes_of_any_numeric_type():
    grid = PeriodicGrid(dim=3, sizes=(16.0, np.int64(17), 18))
    assert grid.sizes == (16, 17, 18)
    assert all(type(s) is int for s in grid.sizes)


def test_stencil_truncation_law(g32):
    # centered 4th-order derivative of sin x errs by h^4/30 at the peak
    x, y, z = g32.coords()
    err = np.abs(g32.deriv(np.sin(x) + 0 * y + 0 * z, 0) - np.cos(x)).max()
    model = g32.spacing[0] ** 4 / 30.0
    assert 0.9 < err / model < 1.1


def roll_deriv(grid, u, axis):
    """Reference: the 4th-order stencil written with four np.roll copies."""
    out = np.roll(u, -1, axis) - np.roll(u, 1, axis)
    out *= 8.0
    out -= np.roll(u, -2, axis)
    out += np.roll(u, 2, axis)
    out /= 12.0 * grid.spacing[axis]
    return out


def assert_same_bits(a, b):
    """Equal values, nan in the same places and the same sign on zeros."""
    assert np.array_equal(a, b, equal_nan=True)
    numbers = ~np.isnan(a)
    assert np.array_equal(np.signbit(a[numbers]), np.signbit(b[numbers]))


@pytest.mark.parametrize("sizes", [(16, 17, 19), (16, 17, 18, 19), (24, 16, 16)])
def test_stencil_matches_roll_formula_bit_for_bit(sizes):
    dim = len(sizes)
    periods = tuple(1.0 + a for a in range(dim))
    grid = PeriodicGrid(dim=dim, sizes=sizes, periods=periods)
    rng = np.random.default_rng(dim)
    contiguous = rng.standard_normal(sizes)
    transposed = rng.standard_normal(sizes[::-1]).T
    assert not transposed.flags.c_contiguous
    broadcast = [np.broadcast_to(np.sin(3.0 * x + 0.2), sizes) for x in grid.coords()]
    # a line of values with length-1 axes, holding -0.0, inf and nan
    line = np.sin(3.0 * grid.coords()[1] + 0.2)
    line.flat[[2, 5, 9]] = (-0.0, np.inf, np.nan)
    # the same in the last-axis columns that the flat path recomputes
    special = rng.standard_normal(sizes)
    m = sizes[-1]
    for row, col in enumerate((0, 1, m - 2, m - 1)):
        special[row, ..., col] = -0.0
        special[row + 4, ..., col] = np.inf
        special[row + 8, ..., col] = np.nan
    for u in (contiguous, transposed, *broadcast, line, special):
        for axis in range(dim):
            with np.errstate(invalid="ignore"):  # inf - inf
                out = grid.deriv(u, axis)
                expected = roll_deriv(grid, np.broadcast_to(u, sizes).copy(), axis)
            assert out.shape == u.shape
            assert_same_bits(np.broadcast_to(out, sizes), expected)
            assert out.flags.writeable
            assert not np.shares_memory(out, u)
            # every element of a given out is written, in either layout
            for order in "CF":
                prefilled = np.full(u.shape, np.nan, order=order)
                with np.errstate(invalid="ignore"):
                    into = dec._deriv(grid, u, axis, prefilled)
                assert into is prefilled
                assert_same_bits(np.broadcast_to(into, sizes), expected)
    # slabs of axis-0 planes, as the adjointness check forms its terms: the
    # axis-0 neighbours are read with wrap, the other axes run on the slab
    # (the last one as a flat C-contiguous array), unscaled and scaled
    n = sizes[0]
    for start, stop in ((0, 1), (0, 3), (5, 12), (n - 3, n), (n - 1, n), (0, n)):
        # -0.0, inf and nan in the slab's first and last planes and in the
        # neighbour planes on either side of it
        edges = rng.standard_normal(sizes)
        for plane in (start - 2, start - 1, start, stop - 1, stop, stop + 1):
            for j, value in enumerate((-0.0, np.inf, np.nan)):
                edges[plane % n, ..., (plane + 2 * j) % 7::7] = value
        for u in (edges, np.asfortranarray(edges)):
            for axis in range(dim):
                for factor in (1.0, -1.0, 1.7):
                    out = np.full((stop - start,) + sizes[1:], np.nan)
                    work = np.full(out.size, np.nan)
                    with np.errstate(invalid="ignore"):
                        into = dec._slab_deriv(grid, u, axis, factor, start, stop, out, work)
                        expected = roll_deriv(grid, factor * u, axis)[start:stop]
                    assert into is out
                    assert_same_bits(into, expected)


def full_grid_trig_form(grid, degree, rng):
    """Reference: the separable trigonometric form summed at full grid size."""
    x = grid.coords()
    comps = {}
    for idx in itertools.combinations(range(grid.dim), degree):
        field = np.zeros(grid.sizes)
        for axis in range(grid.dim):
            c, s = 2.0 * rng.random() - 1.0, 2.0 * rng.random() - 1.0
            ph = 2.0 * np.pi * rng.random()
            field = field + c * np.cos(x[axis] + ph) + s * np.sin(2.0 * x[axis])
        comps[idx] = field
    return comps


@pytest.mark.parametrize("sizes", [(16, 17, 19), (16, 17, 18, 19)])
def test_separable_trig_form_matches_full_grid_accumulation(sizes):
    grid = PeriodicGrid(dim=len(sizes), sizes=sizes)
    # one generator across all degrees, as the CLI draws them
    fast_rng, slow_rng = np.random.default_rng(5), np.random.default_rng(5)
    for degree in range(grid.dim + 1):
        fast = separable_trig_form(grid, degree, fast_rng)
        slow = full_grid_trig_form(grid, degree, slow_rng)
        assert fast.indices() == sorted(slow)
        for idx in fast.indices():
            assert fast.comps[idx].shape == grid.sizes
            assert np.array_equal(fast.comps[idx], slow[idx])
    assert separable_trig_form(grid, grid.dim + 1, fast_rng).sup() == 0.0


class RecordingRng:
    """A generator with random() alone, so any other draw raises
    AttributeError; it records the values it hands out."""

    def __init__(self):
        self.drawn = []

    def random(self):
        self.drawn.append((0.6180339887498949 * (len(self.drawn) + 1)) % 1.0)
        return self.drawn[-1]


@pytest.mark.parametrize("grid_name", ["g16", "g4"])
def test_trig_form_draws_three_randoms_per_axis_of_each_component_in_order(grid_name, request):
    grid = request.getfixturevalue(grid_name)
    x = grid.coords()
    for degree in range(grid.dim + 1):
        rng = RecordingRng()
        form = separable_trig_form(grid, degree, rng)
        indices = list(itertools.combinations(range(grid.dim), degree))
        assert len(rng.drawn) == 3 * grid.dim * len(indices)
        draws = iter(rng.drawn)
        for idx in indices:  # lexicographic order
            for axis, (cos_line, sin_line) in enumerate(form.comps[idx]._lines):
                c, s, ph = next(draws), next(draws), next(draws)
                assert_same_bits(cos_line, (2.0 * c - 1.0) * np.cos(x[axis] + 2.0 * np.pi * ph))
                assert_same_bits(sin_line, (2.0 * s - 1.0) * np.sin(2.0 * x[axis]))


@pytest.mark.parametrize("grid_name", ["g16", "gm4", "g3_odd"])
def test_generated_rows_equal_the_full_component_bit_for_bit(grid_name, request):
    grid = request.getfixturevalue(grid_name)
    n = grid.sizes[0]
    fast_rng, slow_rng = np.random.default_rng(13), np.random.default_rng(13)
    for degree in range(grid.dim + 1):
        fast = separable_trig_form(grid, degree, fast_rng)
        slow = full_grid_trig_form(grid, degree, slow_rng)
        for idx in fast.indices():
            comp, full = fast.comps[idx], slow[idx]
            assert isinstance(comp, dec.TrigComponent)
            assert_same_bits(np.asarray(comp), full)
            # every run of rows within one period; `_generate` splits the
            # runs that wrap, so a run across either end of axis 0 is
            # refused rather than answered with wrong rows
            bits = full.view(np.uint64)
            for start in range(n):
                for stop in range(start + 1, n + 1):
                    out = np.full((stop - start,) + grid.sizes[1:], np.nan)
                    comp.rows(start, stop, out)
                    assert np.array_equal(out.view(np.uint64), bits[start:stop])
            for start, stop in ((-2, 3), (-1, n), (n - 1, n + 1), (n - 2, n + 2), (-2, n + 2)):
                with pytest.raises(ValueError):
                    comp.rows(start, stop, np.empty((stop - start,) + grid.sizes[1:]))
    # the same draws in the same order
    assert fast_rng.random() == slow_rng.random()


@pytest.mark.parametrize("grid_name", ["g16", "gm4", "g3_odd"])
def test_generate_splits_runs_at_the_axis_end_and_the_ring_end(grid_name, request):
    # the walk's one wrap rule: before each slab, in order, every row x the
    # slab reads (two more on each side with halo) sits at ring[x mod
    # len(ring)] with the bits of row x mod n
    grid = request.getfixturevalue(grid_name)
    sizes, n = grid.sizes, grid.sizes[0]
    rng = np.random.default_rng(35)
    values = rng.standard_normal(sizes)
    sources = (
        separable_trig_form(grid, 1, rng).comps[(0,)],
        rng.standard_normal((1,) + sizes[1:]),  # length 1 along axis 0
        values,
        np.asfortranarray(values),
    )
    for source in sources:
        bits = np.ascontiguousarray(np.broadcast_to(np.asarray(source), sizes)).view(np.uint64)
        for planes in (1, 2, 3, 7, n):
            for halo in (False, True):
                terms = [(source, 0, 1.0)] if halo else []
                pairs, rings = dec._rings([(terms, 1.0, source, 1.0)], sizes, planes, np.empty)
                # the term and the mate read one component, so one ring
                [(_, ring, marked)] = rings
                assert marked is halo and pairs[0][2] is ring
                assert all(term[0] is ring for term in pairs[0][0])
                ring.fill(np.nan)
                reach = 2 if halo else 0
                for start in range(0, n, planes):
                    stop = min(start + planes, n)
                    dec._generate(rings, start, stop)
                    for x in range(start - reach, stop + reach):
                        got = ring[x % len(ring)].view(np.uint64)
                        assert np.array_equal(got, bits[x % n]), f"{planes} planes, halo {halo}, row {x}"


def test_a_trig_component_is_never_a_view(g16):
    # numpy 2's __array__ protocol: copy=False raises where a copy is needed
    comp = separable_trig_form(g16, 1, np.random.default_rng(3)).comps[(0,)]
    with pytest.raises(ValueError):
        np.asarray(comp, copy=False)
    assert_same_bits(np.asarray(comp, copy=True), np.asarray(comp))


def held_arrays(obj):
    """Every array a trig component keeps alive: the arrays among its
    attributes, through tuples and lists, each traced to the array it is
    a view of."""
    if isinstance(obj, dec.TrigComponent):
        obj = list(vars(obj).values())
    if isinstance(obj, (tuple, list)):
        return [arr for item in obj for arr in held_arrays(item)]
    if not isinstance(obj, np.ndarray):
        return []
    while isinstance(obj.base, np.ndarray):
        obj = obj.base
    return [obj]


@pytest.mark.parametrize("grid_name", ["g16", "gm4", "g3_odd"])
def test_a_trig_component_holds_only_lines(grid_name, request):
    grid = request.getfixturevalue(grid_name)
    rng = np.random.default_rng(36)
    for degree in range(grid.dim + 1):
        for comp in separable_trig_form(grid, degree, rng).comps.values():
            held = held_arrays(comp)
            assert max(arr.size for arr in held) <= max(grid.sizes)
            assert len(held) == 2 * grid.dim


def test_building_a_trig_form_holds_less_than_one_plane(gm4):
    # a degree-2 form on gm4 has 6 components of 8 lines, 6.8 KB of values;
    # array headers, the grid's coordinates and the draws bring the peak to
    # about 30 KB.  The bound is one axis-0 plane, 49 KB, so a form whose
    # components kept any array of n^3 values (39 KB or more here) goes
    # past it.
    separable_trig_form(gm4, 2, np.random.default_rng(4))  # the first call allocates once
    tracemalloc.start()
    try:
        separable_trig_form(gm4, 2, np.random.default_rng(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * math.prod(gm4.sizes[1:])


def test_adjointness_gap_generates_each_row_once_per_call(g4, monkeypatch, workers):
    rows = {}
    generate = dec.TrigComponent.rows

    def counted(self, start, stop, out):
        rows[id(self)] = rows.get(id(self), 0) + stop - start
        return generate(self, start, stop, out)

    monkeypatch.setattr(dec.TrigComponent, "rows", counted)
    n, plane = g4.sizes[0], 8 * math.prod(g4.sizes[1:])
    rng = np.random.default_rng(4)
    for planes in (1, 3, n):
        monkeypatch.setattr(dec, "_SLAB_BYTES", planes * plane)
        for k in range(g4.dim):
            rows.clear()
            workers.clear()
            adjointness_gap(separable_trig_form(g4, k, rng), separable_trig_form(g4, k + 1, rng))
            # a slab of one plane is walked on two threads, each
            # generating half the rings
            assert workers == (["adjointness-walk"] if planes == 1 else [])
            # one walk for both pairings over the n rows, plus the two halo
            # rows on each side for a component differentiated along axis
            # 0; a walk per pairing would take 2n, generating per read up
            # to 5 rows per slab row
            assert len(rows) == math.comb(4, k) + math.comb(4, k + 1)
            assert set(rows.values()) == {n, n + 4}, f"{planes} planes per slab"


def spread_values(rng, shape):
    """Magnitudes log-uniform over 1e-3..1e3, with mixed signs."""
    return 10.0 ** rng.uniform(-3.0, 3.0, shape) * rng.choice((-1.0, 1.0), shape)


def assert_streamed_sum_is_np_sum(values):
    """`PairwiseSum` of values fed as slabs of 1, 2, 3 and 7 axis-0 planes
    and as one slab of the whole array gives np.sum to the bit."""
    expected = float(np.sum(values, dtype=np.float64)).hex()
    for planes in (1, 2, 3, 7, len(values)):
        streamed = PairwiseSum(values.size)
        for start in range(0, len(values), planes):
            streamed.add(values[start:start + planes].reshape(-1))
        assert streamed.total().hex() == expected, f"{planes} planes"


def test_streamed_sum_equals_np_sum_on_random_sizes():
    # sizes log-uniform over 16..300,000, as 1..24 planes: planes shorter
    # and longer than a leaf of 128, most not a multiple of 8, so a leaf
    # can span several slab ends.  A numpy that changes how it splits a
    # sum fails here first.
    rng = np.random.default_rng(22)
    for _ in range(200):
        size = int(np.exp(rng.uniform(np.log(16), np.log(300_000))))
        n = int(rng.integers(1, 25))
        assert_streamed_sum_is_np_sum(spread_values(rng, (n, -(-size // n))))


@pytest.mark.parametrize("shape", [(32,) * 3, (64,) * 3, (128,) * 3, (48,) * 4],
                         ids=["32^3", "64^3", "128^3", "48^4"])
def test_streamed_sum_equals_np_sum_on_the_benchmark_grids(shape):
    rng = np.random.default_rng(math.prod(shape))
    assert_streamed_sum_is_np_sum(spread_values(rng, shape))


# ----------------------------------------------------------- operator algebra


def test_d_squared_is_exactly_zero(g16, g4):
    for grid in (g16, g4):
        for degree in range(0, grid.dim - 1):
            field = random_trig_form(grid, degree, seed=10 + degree)
            assert d(d(field)).sup() == 0.0


def test_hodge_involution_signs(g16, gm16, g4):
    # ** = (-1)^{k(n-k)} on k-forms, any diagonal metric
    for grid in (g16, gm16, g4):
        for degree in range(0, grid.dim + 1):
            field = random_trig_form(grid, degree, seed=20 + degree)
            twice = hodge(hodge(field))
            sign = (-1.0) ** (degree * (grid.dim - degree))
            gap = max(
                np.abs(twice.comp(idx) - sign * field.comp(idx)).max()
                for idx in field.indices()
            ) if degree else np.abs(twice.comp(()) - field.comp(())).max()
            assert gap < 1e-13


def test_codiff_kills_scalars(g16):
    f = random_trig_form(g16, 0, seed=3)
    assert codiff(f).degree == 0
    assert codiff(f).sup() == 0.0


def test_form_arithmetic_and_array_scaling(g16):
    a = random_trig_form(g16, 1, seed=4)
    x, _, _ = g16.coords()
    weight = np.broadcast_to(np.cos(x), g16.sizes).copy()
    left = weight * a
    right = a * weight
    assert isinstance(left, FormField) and isinstance(right, FormField)
    for idx in a.indices():
        assert np.array_equal(left.comp(idx), right.comp(idx))
        assert np.array_equal(left.comp(idx), weight * a.comp(idx))
    assert (a - a).sup() == 0.0
    assert (2.0 * a).sup() == 2.0 * a.sup()


def test_components_are_stored_at_their_broadcast_shape(g16):
    line = np.cos(np.arange(16.0)).reshape(16, 1, 1)
    f = FormField(g16, 0, {(): line})
    assert f.comps[()].shape == (16, 1, 1)
    assert np.shares_memory(f.comps[()], line)
    # fewer axes are padded in front, as numpy broadcasts them
    assert FormField.scalar(g16, np.arange(16.0)).comps[()].shape == (1, 1, 16)
    assert FormField.scalar(g16, 0.5).comps[()].shape == (1, 1, 1)
    assert FormField.zero(g16, 1).comp((0,)).shape == (1, 1, 1)
    for bad in (np.zeros((2, 16, 16)), np.zeros((1, 16, 16, 16)), np.zeros(17)):
        with pytest.raises(ValueError, match="broadcast to the grid"):
            FormField(g16, 0, {(): bad})


def expanded(field):
    """The same field with every component copied out to the full grid."""
    return FormField(field.grid, field.degree, {
        idx: np.broadcast_to(arr, field.grid.sizes).copy()
        for idx, arr in field.comps.items()
    })


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("data", ["example", "closed"])
def test_checks_on_compact_fields_equal_checks_on_expanded_fields(dim, data):
    grid = PeriodicGrid.cube(dim, 16)
    f, H, ref = example_fields(grid, 0.3, 0.45)
    if data == "closed":
        H, ref = closed_three_form(grid, (0.45, 0.36)), None
    for field in (f, H):
        assert all(np.prod(arr.shape) < np.prod(grid.sizes) for arr in field.comps.values())

    def reports(f, H, ref):
        return [
            check_suobing(f, H, reference=ref),
            check_twisted_codiff(f, H),
            check_integral_identity(f, H),
            check_divH2(H),
        ]

    full_ref = None if ref is None else expanded(ref)
    for compact, full in zip(reports(f, H, ref), reports(expanded(f), expanded(H), full_ref)):
        assert compact.residuals == full.residuals
        assert compact.values == full.values


def test_integral_of_a_compact_array_equals_its_expanded_copy(monkeypatch):
    # the streamed sum against np.sum of a contiguous full-grid copy, on
    # slabs of 1, 2, 3 and 7 axis-0 planes and the whole grid
    grid = PeriodicGrid(dim=4, sizes=(16, 17, 18, 19))
    n, plane = grid.sizes[0], 8 * math.prod(grid.sizes[1:])
    w, x, y, z = grid.coords()
    rng = np.random.default_rng(27)
    for values in (np.cos(x) * np.exp(np.sin(w)), np.sin(y) ** 2 + 0.1, np.zeros((1,) * 4),
                   spread_values(rng, grid.sizes), spread_values(rng, (1, 17, 1, 19))):
        full = np.ascontiguousarray(np.broadcast_to(values, grid.sizes))
        expected = float(np.sum(full, dtype=np.float64)) * grid.cell_volume
        for planes in (1, 2, 3, 7, n):
            monkeypatch.setattr(dec, "_SLAB_BYTES", planes * plane)
            for arr in (values, full):
                assert integral(arr, grid).hex() == expected.hex(), f"{planes} planes"


def test_hodge_sign_is_folded_into_the_factor(g16, gm16):
    for grid in (g16, gm16):
        for degree in range(grid.dim + 1):
            field = random_trig_form(grid, degree, seed=50 + degree)
            star, negated = hodge(field), hodge(field, -1.0)
            for idx in star.indices():
                assert np.array_equal(negated.comps[idx], -1.0 * star.comps[idx])
    # on the unit metric the factor of a degree-0 component is exactly 1.0
    f = random_trig_form(g16, 0, seed=60)
    assert hodge(f).comps[(0, 1, 2)] is f.comps[()]


def test_degree_and_grid_mismatch_rejected(g16, g32):
    a = random_trig_form(g16, 1, seed=5)
    b = random_trig_form(g16, 2, seed=6)
    c = random_trig_form(g32, 1, seed=7)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a + c
    with pytest.raises(ValueError):
        FormField(g16, 2, {(0, 0): np.zeros(g16.sizes)})
    with pytest.raises(ValueError):
        hodge(FormField(g16, 4, {}))
    # the same sizes with other periods: every array broadcasts, so only
    # the grid check can tell the fields apart
    unit = PeriodicGrid(dim=3, sizes=g16.sizes, periods=(1.0, 1.0, 1.0))
    e = random_trig_form(unit, 2, seed=8)
    with pytest.raises(ValueError, match="fields live on different grids"):
        adjointness_gap(a, e)
    with pytest.raises(ValueError, match="fields live on different grids"):
        inner_pointwise(b, e)
    with pytest.raises(ValueError, match="fields live on different grids"):
        l2_inner(b, e)


def test_adjointness_of_d_and_codiff(g16, gm16, g4):
    # <d a, b> = <a, d* b> pins the codifferential sign table
    for grid in (g16, gm16, g4):
        for degree in range(0, grid.dim):
            a = random_trig_form(grid, degree, seed=30 + degree)
            b = random_trig_form(grid, degree + 1, seed=40 + degree)
            assert adjointness_gap(a, b) < 1e-12
    with pytest.raises(ValueError):
        adjointness_gap(random_trig_form(g16, 0, seed=1), random_trig_form(g16, 2, seed=2))


def flipped_sign(sign):
    return lambda grid, k: -sign(grid, k)


def unit_weight(inverse_metric):
    return lambda grid, idx: 1.0


@pytest.mark.parametrize("helper, mutant, grid_name", [
    ("_codiff_sign", flipped_sign, "g16"),
    ("_codiff_sign", flipped_sign, "gm4"),
    ("_inverse_metric", unit_weight, "gm4"),  # the unit metric hides this one
], ids=["codiff-sign-g16", "codiff-sign-gm4", "inverse-metric-gm4"])
def test_a_wrong_sign_or_metric_weight_fails_the_adjointness_check(
    helper, mutant, grid_name, request, monkeypatch, workers
):
    # every degree's gap must clear the 1e-8 bound of criterion 9, on one
    # plane per slab (two threads) and on the whole grid as one slab
    grid = request.getfixturevalue(grid_name)
    n, plane = grid.sizes[0], 8 * math.prod(grid.sizes[1:])
    rng = np.random.default_rng(35)
    pairs = [(separable_trig_form(grid, k, rng), separable_trig_form(grid, k + 1, rng))
             for k in range(grid.dim)]
    assert all(adjointness_gap(a, b) < 1e-12 for a, b in pairs)
    monkeypatch.setattr(dec, helper, mutant(getattr(dec, helper)))
    for planes in (1, n):
        monkeypatch.setattr(dec, "_SLAB_BYTES", planes * plane)
        workers.clear()
        gaps = [adjointness_gap(a, b) for a, b in pairs]
        assert workers == (["adjointness-walk"] * grid.dim if planes == 1 else [])
        assert min(gaps) > 1e-8, f"{planes} planes per slab: {gaps}"


def loop_d(f):
    """Reference: d in one pass over f's components, each term added to
    its target as soon as it is formed."""
    grid = f.grid
    out = {}
    for idx, arr in f.comps.items():
        for a in range(grid.dim):
            if a in idx:
                continue
            target = tuple(sorted(idx + (a,)))
            term = grid.deriv(arr, a)
            if target.index(a) % 2:
                term = -term
            out[target] = out[target] + term if target in out else term
    return out


def reversed_form(field):
    """The same field with its components stored in reverse order."""
    return FormField(field.grid, field.degree, dict(reversed(list(field.comps.items()))))


@pytest.mark.parametrize("grid_name", ["gm16", "gm4"])
def test_d_matches_the_one_pass_loop_bit_for_bit(grid_name, request):
    grid = request.getfixturevalue(grid_name)
    rng = np.random.default_rng(11)
    fields = [separable_trig_form(grid, k, rng) for k in range(grid.dim + 1)]
    fields += [random_trig_form(grid, k, seed=70 + k) for k in range(grid.dim + 1)]
    fields += [reversed_form(field) for field in fields]
    for f in fields:
        df, expected = d(f), loop_d(f)
        # components in the order f's components first reach them
        assert list(df.comps) == list(expected)
        for idx, arr in expected.items():
            assert df.comps[idx].shape == arr.shape
            assert_same_bits(df.comps[idx], arr)


def transposed_form(field):
    """The same field with every component stored in Fortran order."""
    comps = {idx: np.asfortranarray(arr) for idx, arr in field.comps.items()}
    return FormField(field.grid, field.degree, comps)


def adjoint_pairs(grid):
    """(alpha, beta) of degrees k, k + 1: full random forms on every
    degree, a pair of them not C-contiguous, broadcast-shape example
    fields, and the two mixed."""
    rng = np.random.default_rng(grid.dim)

    def full(k):
        return separable_trig_form(grid, k, rng)

    f, H, ref = example_fields(grid, 0.3, 0.45)
    closed = closed_three_form(grid)
    pairs = [(full(k), full(k + 1)) for k in range(grid.dim)]
    pairs.append((transposed_form(full(1)), transposed_form(full(2))))
    pairs += [(f, d(f)), (ref, H), (ref, closed), (reversed_form(ref), reversed_form(closed))]
    pairs += [(f, full(1)), (full(0), d(f)), (full(2), H), (ref, full(3)), (full(2), closed)]
    return pairs


@pytest.mark.parametrize("grid_name", ["g16", "gm16", "gm4"])
def test_streamed_adjointness_gap_equals_the_field_route_bit_for_bit(
    grid_name, request, monkeypatch, workers
):
    grid = request.getfixturevalue(grid_name)
    n, plane = grid.sizes[0], 8 * math.prod(grid.sizes[1:])
    gaps = []
    for alpha, beta in adjoint_pairs(grid):
        inputs = [np.array(arr) for arr in (*alpha.comps.values(), *beta.comps.values())]
        expected = abs(l2_inner(d(alpha), beta) - l2_inner(alpha, codiff(beta)))
        # slabs of 1, 2, 3 and 7 axis-0 planes and the whole grid: partial
        # last slabs, +-2 neighbours that wrap across the slab ends and
        # across both ends of the axis; slabs of one plane on two threads
        for planes in (1, 2, 3, 7, n):
            monkeypatch.setattr(dec, "_SLAB_BYTES", planes * plane)
            workers.clear()
            gap = adjointness_gap(alpha, beta)
            assert gap.hex() == expected.hex(), f"{planes} planes per slab"
            assert workers == (["adjointness-walk"] if planes == 1 else [])
        # no product is written into an input component
        for before, after in zip(inputs, (*alpha.comps.values(), *beta.comps.values())):
            assert_same_bits(np.asarray(after), before)
        gaps.append(gap)
    # rounding-level gaps, not zeros, so the comparison sees the last bits
    assert sum(gap > 0.0 for gap in gaps) >= len(gaps) // 2


def recorded_plans(monkeypatch):
    """The (workspace, walk) of every `_plan` call that cuts its arrays
    from a workspace, in call order."""
    plan, plans = dec._plan, []

    def recorded(alpha, beta, take):
        walk = plan(alpha, beta, take)
        if take.workspace is not None:
            plans.append((take.workspace, walk))
        return walk

    monkeypatch.setattr(dec, "_plan", recorded)
    return plans


def plan_reads(walk):
    """Every term array and mate the walk's two sides read."""
    *_, left, right = walk
    return [ring for pairs, *_ in (left, right) for terms, _, mate, _ in pairs
            for ring in (*(term[0] for term in terms), mate)]


@pytest.mark.parametrize("grid_name", ["g16", "gm4"])
def test_walk_reads_every_component_from_a_ring_it_allocated(grid_name, request, monkeypatch):
    # the walk reads its operands only through its plan's pairs; on the
    # pairs with plain-array components (broadcast-shape example fields,
    # Fortran-order forms) every term array and mate must be a view of
    # the workspace, the caller's or the walk's own, and share no memory
    # with an input component
    grid = request.getfixturevalue(grid_name)
    n, plane = grid.sizes[0], 8 * math.prod(grid.sizes[1:])
    plans = recorded_plans(monkeypatch)
    plain = 0
    for alpha, beta in adjoint_pairs(grid):
        comps = (*alpha.comps.values(), *beta.comps.values())
        inputs = [arr for arr in comps if not isinstance(arr, dec.TrigComponent)]
        if not inputs:
            continue
        plain += 1
        # slabs of one plane (two threads), of three and the whole grid
        for planes in (1, 3, n):
            monkeypatch.setattr(dec, "_SLAB_BYTES", planes * plane)
            for given in (np.empty(dec.adjointness_workspace_size(alpha, beta)), None):
                plans.clear()
                adjointness_gap(alpha, beta, given)
                [(workspace, walk)] = plans
                assert given is None or workspace is given
                reads = plan_reads(walk)
                assert reads, f"{planes} planes per slab"
                for ring in reads:
                    assert ring.base is workspace, f"{planes} planes per slab"
                    assert not any(np.shares_memory(ring, comp) for comp in inputs)
    assert plain == 10


@pytest.mark.parametrize("grid_name", ["g16", "gm4", "g3_odd"])
def test_one_array_in_several_components_gets_one_ring(grid_name, request, monkeypatch, workers):
    # one ndarray object as a component of alpha and as two of beta's:
    # both pairings read it, along axis 0 and the others, yet the walk
    # cuts it one ring, and the gap keeps the field route's bits on the
    # serial and the two-thread path
    grid = request.getfixturevalue(grid_name)
    n, plane = grid.sizes[0], 8 * math.prod(grid.sizes[1:])
    rng = np.random.default_rng(38)
    shared, other = rng.standard_normal(grid.sizes), rng.standard_normal(grid.sizes)
    alpha = FormField(grid, 1, {(0,): shared, (1,): other})
    beta = FormField(grid, 2, {(0, 1): shared, (0, 2): other, (1, 2): shared})
    assert alpha.comps[(0,)] is beta.comps[(0, 1)] is beta.comps[(1, 2)] is shared
    expected = abs(l2_inner(d(alpha), beta) - l2_inner(alpha, codiff(beta))).hex()
    assert expected != (0.0).hex()
    plans = recorded_plans(monkeypatch)
    for planes in (1, 3, n):
        monkeypatch.setattr(dec, "_SLAB_BYTES", planes * plane)
        plans.clear()
        workers.clear()
        assert adjointness_gap(alpha, beta).hex() == expected, f"{planes} planes per slab"
        assert workers == (["adjointness-walk"] if planes == 1 else [])
        [(_, walk)] = plans
        rings = walk[2]
        assert len(rings) == 2
        assert [source.base is shared for source, _, _ in rings] == [True, False]
        # every read of the shared array is its one ring
        reads = plan_reads(walk)
        assert {id(ring) for ring in reads} == {id(ring) for _, ring, _ in rings}


@pytest.mark.parametrize("dim, n, threaded", [
    (3, 64, False), (3, 128, False), (4, 32, False), (4, 40, True), (4, 48, True), (4, 56, True),
])
def test_walk_takes_two_threads_where_a_slab_is_one_plane(dim, n, threaded):
    # a grid holds no array: the rule reads only its sizes and _SLAB_BYTES
    grid = PeriodicGrid.cube(dim, n)
    assert dec._two_threads(grid) is threaded


def test_threaded_walk_keeps_its_bits_under_fast_thread_switches(gm4, monkeypatch):
    # the two threads share only the rings, written and read on either side
    # of a barrier wait; a switch every microsecond would expose a ring read
    # before it is written or overwritten while it is read
    pairs = adjoint_pairs(gm4)
    expected = [abs(l2_inner(d(a), b) - l2_inner(a, codiff(b))).hex() for a, b in pairs]
    monkeypatch.setattr(dec, "_SLAB_BYTES", 8 * math.prod(gm4.sizes[1:]))
    gaps = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: gaps.extend(
            adjointness_gap(a, b).hex() for a, b in pairs))
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert gaps == expected


@pytest.mark.parametrize("grid_name", ["g16", "gm4", "g3_odd"])
def test_a_reused_workspace_keeps_every_gap_bit_for_bit(grid_name, request, monkeypatch, workers):
    # one workspace, as large as the largest pair's, serves every walk, and
    # is filled with nan before each: a ring plane, slab total or working
    # value a walk read before writing it would make its gap nan.  Pairs of
    # every degree, one of Fortran-order plain arrays, and one of a zero
    # form, whose pairings have no component
    grid = request.getfixturevalue(grid_name)
    n, plane = grid.sizes[0], 8 * math.prod(grid.sizes[1:])
    rng = np.random.default_rng(37)
    pairs = [(separable_trig_form(grid, k, rng), separable_trig_form(grid, k + 1, rng))
             for k in range(grid.dim)]
    pairs.append((transposed_form(separable_trig_form(grid, 1, rng)),
                  transposed_form(separable_trig_form(grid, 2, rng))))
    pairs.append((FormField.zero(grid, 1), separable_trig_form(grid, 2, rng)))
    expected = [abs(l2_inner(d(a), b) - l2_inner(a, codiff(b))).hex() for a, b in pairs]
    assert expected[-1] == (0.0).hex()
    # slabs of one plane (two threads), of three and the whole grid
    for planes in (1, 3, n):
        monkeypatch.setattr(dec, "_SLAB_BYTES", planes * plane)
        workspace = np.empty(max(dec.adjointness_workspace_size(a, b) for a, b in pairs))
        workers.clear()
        gaps = []
        for a, b in pairs:
            workspace.fill(np.nan)
            gaps.append(adjointness_gap(a, b, workspace=workspace).hex())
        assert gaps == expected, f"{planes} planes per slab"
        assert workers == (["adjointness-walk"] * len(pairs) if planes == 1 else [])


def test_a_workspace_is_cut_at_any_alignment_and_refused_when_short(gm4):
    rng = np.random.default_rng(38)
    alpha, beta = separable_trig_form(gm4, 1, rng), separable_trig_form(gm4, 2, rng)
    need = dec.adjointness_workspace_size(alpha, beta)
    expected = adjointness_gap(alpha, beta).hex()
    buf = np.full(need + 8, np.nan)
    # the walk starts its first array on a 64-byte boundary wherever the
    # workspace starts, within the 7 values of room it asks for
    for offset in range(8):
        assert adjointness_gap(alpha, beta, workspace=buf[offset:offset + need]).hex() == expected
    buf.fill(np.nan)
    short, shifted = buf[:need - 1], buf[1:need]
    single, rows, strided = (np.full(need, np.nan, dtype=np.float32),
                             np.full((2, need), np.nan), np.full(2 * need, np.nan)[::2])
    for bad in (short, shifted, single, rows, strided):
        with pytest.raises(ValueError, match=f"workspace of {need} values"):
            adjointness_gap(alpha, beta, workspace=bad)
        # refused before anything is written
        assert np.isnan(bad).all() and np.isnan(buf).all()


@pytest.mark.parametrize("where, phase, error", [
    ("worker", "rows", MemoryError),
    ("worker", "pairing", MemoryError),
    ("main", "pairing", KeyboardInterrupt),
], ids=["worker-rows", "worker-pairing", "main-interrupt"])
def test_a_failure_on_either_thread_is_raised_by_the_walk(where, phase, error, g16, monkeypatch):
    barriers = []

    class Recorded(threading.Barrier):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            barriers.append(self)

    monkeypatch.setattr(threading, "Barrier", Recorded)
    monkeypatch.setattr(dec, "_SLAB_BYTES", 8 * math.prod(g16.sizes[1:]))
    owner, name = (dec.TrigComponent, "rows") if phase == "rows" else (dec, "_pair_slab")
    real, calls = getattr(owner, name), itertools.count()

    def failing(*args, **kwargs):
        # the fifth call on the chosen thread fails, part way down the axis
        on_main = threading.current_thread() is threading.main_thread()
        if on_main == (where == "main") and next(calls) == 4:
            raise error("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)
    rng = np.random.default_rng(5)
    alpha, beta = separable_trig_form(g16, 1, rng), separable_trig_form(g16, 2, rng)
    before = threading.active_count()
    with pytest.raises(error, match="injected"):
        adjointness_gap(alpha, beta)
    assert threading.active_count() == before
    assert len(barriers) == 1 and barriers[0].broken and barriers[0].n_waiting == 0


def test_wedge_and_interior_shapes(g16):
    a = random_trig_form(g16, 1, seed=8)
    b = random_trig_form(g16, 1, seed=9)
    ab = wedge(a, b)
    assert ab.degree == 2
    # antisymmetry of the 1-1 wedge
    ba = wedge(b, a)
    assert (ab + ba).sup() < 1e-13
    f = random_trig_form(g16, 0, seed=11)
    v = gradient(f)
    assert isinstance(v, VectorField)
    assert interior(v, a).degree == 0


def test_l2_inner_positive(g16):
    a = random_trig_form(g16, 2, seed=12)
    assert l2_inner(a, a) > 0.0
    assert abs(l2_inner(a, a) - integral(inner_pointwise(a, a), g16)) < 1e-12


# -------------------------------------------------------- the identity checks


def test_suobing_pinned_example(g32, g64):
    refs = {}
    for grid in (g32, g64):
        f, H, ref = example_fields(grid)
        rep = check_suobing(f, H, reference=ref)
        # both routes share the stencil: the discrete identity is exact
        assert rep.residuals["discrete"] == 0.0
        refs[grid.sizes[0]] = rep.residuals["reference"]
    # against the analytic interior product the h^4 law shows
    assert 4e-5 < refs[32] < 6e-5
    assert 2.5e-6 < refs[64] < 3.7e-6
    assert 14.0 < refs[32] / refs[64] < 18.0


def test_suobing_constant_potential_trivial(g16):
    x, _, _ = g16.coords()
    f = FormField(g16, 0, {(): np.full(g16.sizes, 0.7)})
    _, H, _ = example_fields(g16)
    rep = check_suobing(f, H)
    assert rep.residuals["discrete"] == 0.0


def test_suobing_dim4_degenerate_example(g4):
    # f = cos w, H = sin x dx^dy^dz: i_{grad f} H has no overlap, 0 = 0
    w, x, y, z = g4.coords()
    f = FormField(g4, 0, {(): np.cos(w) + 0 * x + 0 * y + 0 * z})
    H = FormField(g4, 3, {(1, 2, 3): np.sin(x) + 0 * w + 0 * y + 0 * z})
    rep = check_suobing(f, H)
    assert rep.residuals["discrete"] == 0.0


def test_twisted_codiff_rates(g32, g64):
    out = {}
    for grid in (g32, g64):
        f, H, _ = example_fields(grid)
        rep = check_twisted_codiff(f, H)
        out[grid.sizes[0]] = rep.residuals
        assert set(rep.residuals) == {"pointwise", "differentiated"}
    for key in ("pointwise", "differentiated"):
        rate = np.log2(out[32][key] / out[64][key])
        assert 3.5 < rate < 4.5
    assert out[64]["pointwise"] < 5e-5
    assert out[64]["differentiated"] < 1.5e-4


def test_twisted_codiff_zero_potential_exact(g32):
    x, y, z = g32.coords()
    f = FormField(g32, 0, {(): 0.0 * x + 0 * y + 0 * z})
    _, H, _ = example_fields(g32)
    rep = check_twisted_codiff(f, H)
    assert rep.residuals["pointwise"] < 1e-12
    assert rep.residuals["differentiated"] < 1e-12


def test_twisted_codiff_rejects_nonclosed_torsion(g4):
    w, x, y, z = g4.coords()
    f = FormField(g4, 0, {(): np.cos(w) + 0 * x + 0 * y + 0 * z})
    H_bad = FormField(g4, 3, {(1, 2, 3): np.sin(w) + 0 * x + 0 * y + 0 * z})
    with pytest.raises(ValueError, match="not closed"):
        check_twisted_codiff(f, H_bad)


def test_twisted_codiff_sees_the_codiff_of_dH(g4):
    # H closed only to within the 1e-8 bound: with f = 0 the differentiated
    # residual is exactly the d*dH term, which a closed H leaves at zero
    f, _, _ = example_fields(g4, 0.0, 0.45)
    y = g4.coords()[2]
    H = closed_three_form(g4) + FormField(g4, 3, {(0, 1, 3): 1e-10 * np.sin(2 * y)})
    assert 0 < d(H).sup() < 1e-8
    rep = check_twisted_codiff(f, H)
    assert rep.residuals["pointwise"] == 0.0
    expected = codiff(d(H)).sup()
    assert expected > 0
    assert rep.residuals["differentiated"] == pytest.approx(expected, rel=1e-12)


def test_integral_identity_gap_and_bessel_value(g32, g64):
    # independent routes agree to rounding; the value itself converges
    # at 4th order to 4 pi^3 (I0(1) + I1(1))
    exact = 4.0 * np.pi**3 * (iv(0, 1.0) + iv(1, 1.0))
    errs = {}
    for grid in (g32, g64):
        f, H, _ = example_fields(grid)
        rep = check_integral_identity(f, H)
        assert rep.residuals["relative_gap"] < 1e-12
        errs[grid.sizes[0]] = abs(rep.values["left"] - exact)
    assert 1e-3 < errs[64] < 2e-3
    assert 14.0 < errs[32] / errs[64] < 18.0


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e300), st.sampled_from([3, 4]))
def test_integral_closed_form_is_even_in_f_amp(a, dim):
    assert dec.integral_closed_form(-a, 0.4, dim) == dec.integral_closed_form(a, 0.4, dim)


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_integral_closed_form_at_zero_f_amp(dim):
    # I0(0) + 0 I1(0) = 1 exactly
    for a in (0.0, -0.0):
        for b in (0.4, 1.0, 3.0):
            exact = b * b * 4.0 * np.pi**3 * (2.0 * np.pi) ** (dim - 3)
            assert dec.integral_closed_form(a, b, dim) == exact


# Against 40-digit values the series is within a relative 1e-15, 5e-15 and
# 5e-14 on these ranges of |a|, scipy's iv(0, a) + a iv(1, a) within 2e-15
# (worst of 4000 points each: 7.3e-16, 3.4e-15, 3.1e-14 and 1.7e-15).
@pytest.mark.parametrize("lo, hi, rel", [
    (0.0, 5.0, 3e-15), (5.0, 50.0, 7e-15), (50.0, 700.0, 5.2e-14),
])
def test_integral_closed_form_matches_scipy_bessel(lo, hi, rel):
    draws = np.random.default_rng(2404).uniform(lo, hi, 300)
    for a in np.concatenate([[lo, hi], draws, -draws, [-hi]]).tolist():
        bessel = iv(0, a) + a * iv(1, a)
        assert dec.integral_closed_form(a, 1.0, 3) / (4.0 * np.pi**3) == pytest.approx(
            bessel, rel=rel, abs=0.0
        )


@pytest.mark.parametrize("f_amp, h_amp", [
    ("nan", "1.0"), ("inf", "1.0"), ("-inf", "1.0"), ("0.5", "nan"), ("0.5", "inf"),
])
def test_integral_closed_form_rejects_a_non_finite_amplitude(f_amp, h_amp):
    # the series never settles on a nan sum; a fresh process with a time
    # limit turns a hang into a failure rather than a stalled suite
    code = (
        "from grflab.hodge import integral_closed_form\n"
        "try:\n"
        f"    integral_closed_form(float('{f_amp}'), float('{h_amp}'), 3)\n"
        "except ValueError as exc:\n"
        "    print('ValueError:', exc)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=10)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("ValueError: the amplitudes must be finite")


def test_integral_closed_form_overflows_to_inf_quietly():
    # I0(a) + a I1(a) passes the largest double at |a| = 707.42, and the
    # closed form earlier when its prefactor exceeds 1
    unit = 1.0 / math.sqrt(4.0 * math.pi**3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(dec.integral_closed_form(707.4, unit, 3))
        for a in (707.5, 710.0, 1e3, 1e200, 1.7e308):
            assert dec.integral_closed_form(a, unit, 3) == math.inf
            assert dec.integral_closed_form(-a, 1.0, 4) == math.inf


def test_integral_identity_harmonic_torsion_trivial(g16):
    x, y, z = g16.coords()
    f = FormField(g16, 0, {(): 0.0 * x + 0 * y + 0 * z})
    H = FormField(g16, 3, {(0, 1, 2): np.full(g16.sizes, 0.7)})
    rep = check_integral_identity(f, H)
    assert rep.values["left"] == 0.0
    assert rep.values["right"] == 0.0


def test_integral_identity_quadratic_torsion_scaling(g32):
    f, H, _ = example_fields(g32)
    one = check_integral_identity(f, H)
    two = check_integral_identity(f, H * 2.0)
    assert abs(two.values["left"] - 4.0 * one.values["left"]) < 1e-12 * one.values["left"]


def test_integral_identity_potential_shift_covariance(g32):
    # f -> f + c multiplies both sides by e^{-c} and moves no residual
    f, H, _ = example_fields(g32)
    shifted = FormField(g32, 0, {(): f.comp(()) + 0.7})
    a = check_integral_identity(f, H)
    b = check_integral_identity(shifted, H)
    assert abs(b.values["left"] - np.exp(-0.7) * a.values["left"]) < 1e-12 * a.values["left"]
    assert abs(b.residuals["relative_gap"] - a.residuals["relative_gap"]) < 1e-14
    ta = check_twisted_codiff(f, H)
    tb = check_twisted_codiff(shifted, H)
    assert abs(ta.residuals["pointwise"] - tb.residuals["pointwise"]) < 1e-12


def test_divh2_pinned_truncation_band(g32, g64):
    # product-rule defect of the shared stencil: residual = h^4/2 on the
    # canonical H = sin x dV data; a half-weight double contraction
    # would instead leave an O(1) residual
    sups = {}
    for grid in (g32, g64):
        _, H, _ = example_fields(grid)
        rep = check_divH2(H)
        sups[grid.sizes[0]] = rep.sup
        model = grid.spacing[0] ** 4 / 2.0
        assert 0.9 < rep.sup / model < 1.1
    assert 14.0 < sups[32] / sups[64] < 18.0


def test_divh2_constant_torsion_exact(g16):
    x, _, _ = g16.coords()
    H = FormField(g16, 3, {(0, 1, 2): np.full(g16.sizes, 0.7)})
    assert check_divH2(H).sup == 0.0


def test_divh2_on_generic_closed_three_form(g4):
    H = closed_three_form(g4, (0.2, 0.15))
    assert d(H).sup() == 0.0
    rep = check_divH2(H)
    assert np.isfinite(rep.sup)
    assert rep.sup < 1e-2


def divh2_reference_sup(H, sixth=1.0 / 6.0, contraction_sign=1.0, transposed=False):
    """sup_i |(div H2)_i - (sixth grad_i |H|^2 - contraction_sign (d*H)^{mn} H_{imn})|,
    from the full antisymmetric tensor raised by the diagonal metric,
    contracted by np.einsum and differentiated by roll_deriv, with
    (d*H)_{mn} = -g^{kk} D_k H_{kmn}.  transposed swaps the contracted
    pair of one factor of H2: H_{jpq} H_{iqp} for H_{jpq} H_{ipq}."""
    grid, n = H.grid, H.grid.dim
    ginv = 1.0 / np.array(grid.metric)
    full = np.zeros((n, n, n) + grid.sizes)
    for idx, arr in H.comps.items():
        for perm in itertools.permutations(range(3)):
            sign = 1 - 2 * (sum(perm[a] > perm[b] for a in range(3) for b in range(a + 1, 3)) % 2)
            full[tuple(idx[a] for a in perm)] = sign * np.broadcast_to(arr, grid.sizes)
    norm = np.einsum("ijk...,ijk...,i,j,k->...", full, full, ginv, ginv, ginv)
    H2 = np.einsum("jpq...,iqp...,p,q->ji..." if transposed else "jpq...,ipq...,p,q->ji...",
                   full, full, ginv, ginv)
    dstar = -sum(ginv[k] * np.stack([np.stack([roll_deriv(grid, full[k, m, nn], k)
                                               for nn in range(n)]) for m in range(n)])
                 for k in range(n))
    contraction = np.einsum("mn...,imn...,m,n->i...", dstar, full, ginv, ginv)
    return max(
        np.max(np.abs(sum(ginv[j] * roll_deriv(grid, H2[j, i], j) for j in range(n))
                      - (sixth * roll_deriv(grid, norm, i)
                         - contraction_sign * contraction[i])))
        for i in range(n)
    )


DIVH2_RTOL = 1e-12


@pytest.mark.parametrize("grid_name", ["gm16", "gm4", "g3_odd"])
def test_divh2_on_random_dense_forms_matches_an_einsum_reference(grid_name, request):
    # white-noise components leave an O(1) residual, the stencil's product
    # rule failing at the grid scale, so agreement to rounding pins every
    # sign, factor and metric weight of the check; each wrong reference
    # misses by far more than 100 times the tolerance
    grid = request.getfixturevalue(grid_name)
    rng = np.random.default_rng(5)
    H = FormField(grid, 3, {idx: rng.normal(size=grid.sizes)
                            for idx in itertools.combinations(range(grid.dim), 3)})
    sup = check_divH2(H).sup
    assert sup > 1.0
    assert abs(sup - divh2_reference_sup(H)) <= DIVH2_RTOL * sup
    for wrong in ({"contraction_sign": -1.0}, {"sixth": 1.0 / 5.0}, {"transposed": True}):
        assert abs(sup - divh2_reference_sup(H, **wrong)) > 100 * DIVH2_RTOL * sup, wrong


def test_lie_derivative_of_a_scalar_is_X_dot_grad_f():
    # L_X f = i_X df; with X = grad f on the example data, a cos y, that is
    # a^2 g^{yy} sin^2 y.  The stencil scales each derivative of cos y by
    # 1 - h^4/30, so the error peaks at 2 a^2 g^{yy} h^4/30
    errors = []
    for n in (32, 64):
        grid = PeriodicGrid(dim=3, sizes=(n, n, n), metric=(1.3, 0.7, 2.1))
        f, _, _ = example_fields(grid, f_amplitude=0.8)
        Lf = lie(gradient(f), f)
        assert Lf.degree == 0
        y = grid.coords()[1]
        errors.append(np.max(np.abs(Lf.comp(()) - 0.8**2 / 0.7 * np.sin(y) ** 2)))
        model = 2.0 * 0.8**2 / 0.7 * grid.spacing[1] ** 4 / 30.0
        assert 0.9 < errors[-1] / model < 1.1
    assert 14.0 < errors[0] / errors[1] < 18.0


def test_example_fields_require_canonical_periods():
    grid = PeriodicGrid(dim=3, sizes=(16, 16, 16), periods=(1.0, 2 * np.pi, 2 * np.pi))
    with pytest.raises(ValueError):
        example_fields(grid)


def test_check_argument_validation(g16):
    f, H, _ = example_fields(g16)
    with pytest.raises(ValueError):
        check_suobing(random_trig_form(g16, 1, seed=2), H)
    with pytest.raises(ValueError):
        check_integral_identity(f, random_trig_form(g16, 2, seed=3))


def test_report_serialization(g16):
    f, H, ref = example_fields(g16)
    rep = check_suobing(f, H, reference=ref)
    assert rep.sup == max(rep.residuals.values())
    payload = json.loads(rep.to_json())
    assert payload["identity"] == rep.identity
    assert set(payload) == {"identity", "grid", "residuals", "values", "sup"}
    assert payload["grid"] == g16.spec()
    rated = HodgeReport(identity="x", grid_spec=g16.spec(), residuals={"a": 1.0}, rate=4.0)
    payload = json.loads(rated.to_json())
    assert set(payload) == {"identity", "grid", "residuals", "values", "sup", "rate"}
    assert payload["rate"] == 4.0


# ------------------------------------------- algebra laws on random tori


EPS = np.finfo(float).eps


@st.composite
def tori(draw):
    dim = draw(st.sampled_from((3, 4)))

    def per_axis(values):
        return tuple(draw(values) for _ in range(dim))

    return PeriodicGrid(
        dim=dim,
        sizes=per_axis(st.integers(16, 24)),
        periods=per_axis(st.floats(0.5, 10.0)),
        metric=per_axis(st.floats(0.25, 4.0)),
    )


def noise_form(grid, degree, rng):
    """Grid-scale random k-form: the stencil laws must hold for any data."""
    return FormField(grid, degree, {
        idx: rng.standard_normal(grid.sizes)
        for idx in itertools.combinations(range(grid.dim), degree)
    })


def l2_norm(a):
    return np.sqrt(l2_inner(a, a))


@settings(max_examples=6, deadline=None)
@given(grid=tori(), seed=st.integers(0, 2**32 - 1))
def test_d_squared_vanishes_to_rounding_on_random_tori(grid, seed):
    rng = np.random.default_rng(seed)
    # one stencil costs up to 1.5/h in the sup norm; d d applies two
    scale = (1.5 / min(grid.spacing)) ** 2
    for degree in range(grid.dim - 1):
        a = noise_form(grid, degree, rng)
        assert d(d(a)).sup() <= 64 * EPS * scale * a.sup()


@settings(max_examples=6, deadline=None)
@given(grid=tori(), seed=st.integers(0, 2**32 - 1))
def test_hodge_star_squares_to_sign_on_random_tori(grid, seed):
    rng = np.random.default_rng(seed)
    for degree in range(grid.dim + 1):
        a = noise_form(grid, degree, rng)
        twice = hodge(hodge(a))
        sign = (-1.0) ** (degree * (grid.dim - degree))
        assert twice.indices() == a.indices()
        for idx in a.indices():
            gap = np.abs(twice.comps[idx] - sign * a.comps[idx])
            assert np.all(gap <= 32 * EPS * np.abs(a.comps[idx]))


@settings(max_examples=6, deadline=None)
@given(grid=tori(), seed=st.integers(0, 2**32 - 1))
def test_adjointness_gap_at_rounding_on_random_tori(grid, seed):
    rng = np.random.default_rng(seed)
    for degree in range(grid.dim):
        a = noise_form(grid, degree, rng)
        b = noise_form(grid, degree + 1, rng)
        scale = l2_norm(d(a)) * l2_norm(b) + l2_norm(a) * l2_norm(codiff(b))
        assert adjointness_gap(a, b) <= 16 * EPS * scale
