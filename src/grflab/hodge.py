"""Discrete exterior calculus oracle on flat periodic grids.

Verifies the three form identities behind the torsion estimates --
the interior-product rewrite, the twisted codifferential chain, and the
divergence of H squared -- plus their integral counterpart, on tori of
dimension 3 and 4 with constant diagonal metrics.

Conventions (frozen to match the warped module):

* derivatives: 4th-order central differences, periodic wrap;
* orientation: right-handed lexicographic, vol = dx0 ^ ... ^ dx{n-1};
* codifferential d* = (-1)^{n(k+1)+1} * d *  on k-forms (Riemannian);
* raw contractions |H|^2 = H_{ijk} H^{ijk} (no 1/3!),
  H2_{ij} = H_{ipq} H_j^{pq}, and (d*H)^{mn} H_{imn} with factor 1;
* L^2 pairings (adjointness, integral identity) use the degree-
  normalized inner product, i.e. sums over strictly increasing indices.
  The raw pairing would break the integral identity by 3!/2!.

Pointwise identities whose two discrete routes share every stencil
(the interior-product rewrite on top forms) agree to rounding by
construction; their grid-convergence content lives in the residual
against the analytic reference, which the check reports separately
whenever a reference is supplied.

Storage: every array a field holds, and every pointwise array an
operator returns, has the grid's number of axes, and each axis has
length 1 or the full grid size; numpy broadcasting supplies the rest.
A field that depends on one coordinate therefore costs one line of
values, not a grid.  Each element sees the same operations it would on
the expanded array, so results are bit-identical to it.  Pairwise
summation depends on the array's shape, so `integral` sums the expanded
array, one slab of axis-0 planes at a time through `PairwiseSum`, and
never holds it whole.

Two memory rules hold.  The field route writes every result into an
array the operator allocated itself, never into a component it was
given.  `adjointness_gap` reads and writes only arrays it cuts from one
flat workspace, its caller's or else its own, and holds no full-grid
array; its docstring describes the walk and its two threads.
"""
from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from . import _pairwise
from .ioutil import Report
from .ioutil import atomic_write_text  # noqa: F401  (unused here; perfbench/tracer.py patches it)

__all__ = [
    "PeriodicGrid",
    "FormField",
    "VectorField",
    "HodgeReport",
    "d",
    "hodge",
    "codiff",
    "interior",
    "lie",
    "wedge",
    "gradient",
    "inner_pointwise",
    "integral",
    "l2_inner",
    "check_suobing",
    "check_twisted_codiff",
    "check_integral_identity",
    "check_divH2",
    "adjointness_gap",
    "adjointness_workspace_size",
    "example_fields",
    "closed_three_form",
    "random_trig_form",
    "TrigComponent",
    "integral_closed_form",
]

Index = Tuple[int, ...]

# Rows per block when `_deriv` recomputes the wrap columns of its flat
# path: the cache lines at both ends of a block's rows, 1 MiB of
# input and output, stay in L2 between copying them out and back.
_WRAP_ROWS = 4096

# Bytes of axis-0 planes per slab that `adjointness_gap` forms its terms
# on and `integral` sums: a quarter of the 2 MiB per-core L2, so a slab's
# four working arrays (the total and three work arrays) stay cached across
# the operations that form, scale, multiply and add one component.  Median
# adjointness report at 256/512/768/1024 KiB: 57/49/56/71 ms at 64^3,
# 93/89/88/100 ms at 80^3, 140/140/154/165 ms at 96^3 and 355/344/348/403
# ms at 128^3; at 48^4 a plane (884 KB) is a slab under every budget.
_SLAB_BYTES = 1 << 19


def _slab_planes(grid: PeriodicGrid) -> int:
    """Axis-0 planes per slab of a walk over the grid: as many as fit in
    `_SLAB_BYTES`, at least one, at most the whole axis."""
    return min(grid.sizes[0], max(1, _SLAB_BYTES // (8 * math.prod(grid.sizes[1:]))))


def _stencil(out, v, lo: int, hi: int, h: float, scale: float = 1.0, tmp=None):
    """Rows lo..hi-1 of the 4th-order stencil of v along axis 0, into out.

    (8 (v[i+1] - v[i-1]) - v[i+2] + v[i-2]) / 12h with periodic wrap in
    len(v), evaluated in that order: the one place the stencil is
    written.  Each operation runs on as few slices as its neighbour
    offsets allow, one more wherever that offset wraps, and the
    multiplication and division on out whole.  With a scale other than
    1.0 each neighbour is multiplied by it as it is read, into out for
    the first and into `tmp` (an array of out's shape) for the others:
    the stencil of the scaled array without a scaled copy of it.
    """
    n = len(v)
    cuts = [c for c in (1, 2, n - 2, n - 1) if lo < c < hi]  # where an offset wraps

    def rows(s, a, b, into):
        start = (a + s) % n
        x = v[start:start + b - a]
        return x if scale == 1.0 else np.multiply(scale, x, out=into[a - lo:b - lo])

    edges = [lo, *[c for c in cuts if c == 1 or c == n - 1], hi]
    for a, b in zip(edges, edges[1:]):
        np.subtract(rows(1, a, b, out), rows(-1, a, b, tmp), out=out[a - lo:b - lo])
    out *= 8.0
    for s, op in ((2, np.subtract), (-2, np.add)):
        edges = [lo, *[c for c in cuts if c == (-s) % n], hi]
        for a, b in zip(edges, edges[1:]):
            part = out[a - lo:b - lo]
            op(part, rows(s, a, b, tmp), out=part)
    out /= 12.0 * h
    return out


@dataclass(frozen=True)
class PeriodicGrid:
    """Flat torus: per-axis sizes, periods, constant diagonal metric."""

    dim: int
    sizes: Tuple[int, ...]
    periods: Tuple[float, ...] = None
    metric: Tuple[float, ...] = None

    def __post_init__(self):
        if self.dim not in (3, 4):
            raise ValueError("dim must be 3 or 4")
        if len(self.sizes) != self.dim or not all(
            float(s).is_integer() and s >= 16 for s in self.sizes
        ):
            raise ValueError("need one integral size >= 16 per axis")
        sizes = tuple(int(s) for s in self.sizes)
        periods = self.periods
        if periods is None:
            periods = (2.0 * np.pi,) * self.dim
        periods = tuple(float(p) for p in periods)
        metric = self.metric
        if metric is None:
            metric = (1.0,) * self.dim
        metric = tuple(float(g) for g in metric)
        if len(periods) != self.dim or not all(0 < p < math.inf for p in periods):
            raise ValueError("need one positive finite period per axis")
        if len(metric) != self.dim or not all(0 < g < math.inf for g in metric):
            raise ValueError("metric coefficients must be positive and finite")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "metric", metric)

    @staticmethod
    def cube(dim: int, n: int) -> "PeriodicGrid":
        return PeriodicGrid(dim=dim, sizes=(n,) * dim)

    @property
    def spacing(self) -> Tuple[float, ...]:
        return tuple(p / s for p, s in zip(self.periods, self.sizes))

    @property
    def sqrt_det(self) -> float:
        return float(np.sqrt(np.prod(self.metric)))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing)) * self.sqrt_det

    def coords(self):
        """Sparse meshgrid of the coordinate axes."""
        axes = [
            np.linspace(0.0, p, s, endpoint=False) for s, p in zip(self.sizes, self.periods)
        ]
        return np.meshgrid(*axes, indexing="ij", sparse=True)

    def refined(self) -> "PeriodicGrid":
        """The grid with twice the points per axis."""
        return PeriodicGrid(
            dim=self.dim,
            sizes=tuple(2 * s for s in self.sizes),
            periods=self.periods,
            metric=self.metric,
        )

    def spec(self) -> dict:
        return {
            "dim": self.dim,
            "sizes": list(self.sizes),
            "periods": list(self.periods),
            "metric": list(self.metric),
        }

    def deriv(self, u: np.ndarray, axis: int) -> np.ndarray:
        """4th-order periodic central difference along one axis, into a
        fresh array of u's shape and layout (`_deriv`).  A `TrigComponent`
        u is differentiated as the full array it stands for."""
        u = np.asarray(u)
        return _deriv(self, u, axis, np.empty_like(u))


def _deriv(grid: PeriodicGrid, u: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """(8 (u[i+1] - u[i-1]) - u[i+2] + u[i-2]) / 12h along one axis,
    evaluated in that order by `_stencil` into out, a float64 array of
    u's shape that does not overlap it.  Its owners are `deriv`, which
    allocates out, and the adjointness walk, which differentiates a slab
    of a ring into one of its own working arrays, so the walk's worker
    thread runs no name the benchmark tracer patches.  No shifted copy of
    u is made, and every element sees the same operations as the np.roll
    formula, so the result is bit-identical to it.

    Two evaluation paths, one result:

    * a C-contiguous u and out made of full grid planes, the whole grid
      or a slab of axis-0 planes, differentiated along the last axis, are
      walked as flat arrays with element offsets +-1 and +-2, so each
      operation is one loop over the whole array rather than a loop of
      m-2 elements per row, which made this axis cost twice the others.
      The offsets reach into the neighbouring row in columns 0, 1, m-2
      and m-1; those columns are then recomputed over blocks of
      `_WRAP_ROWS` rows, from a copy of each block's columns m-4..m-1 and
      0..3 in which they are contiguous rows;
    * every other axis, and every broadcast-shape or non-contiguous u or
      out, uses contiguous slices along the axis: each operation covers
      the rows its neighbour offset reaches without wrapping in one slice
      and the rest in another.  Their inner loops are already long, and
      the flat form measured slower there.

    u is constant along an axis of length 1, where the stencil gives
    u - u: +0.0 where u is finite and nan where it is not, exactly what
    the formula gives on the expanded array.
    """
    if u.shape[axis] == 1:
        return np.subtract(u, u, out=out)
    h = grid.spacing[axis]
    if (
        axis == u.ndim - 1
        and u.shape[1:] == grid.sizes[1:]
        and u.flags.c_contiguous
        and out.flags.c_contiguous
    ):
        f, g = u.reshape(-1), out.reshape(-1)
        # right in columns 2..m-3 of every row
        _stencil(g[2:-2], f, 2, len(f) - 2, h)
        # columns m-2, m-1, 0 and 1 again, block by block, from a copy
        # of columns m-4..m-1 and 0..3 laid out as eight rows
        rows, cols = u.reshape(-1, u.shape[-1]), out.reshape(-1, u.shape[-1])
        block = min(len(rows), _WRAP_ROWS)
        ends, wrapped = np.empty((8, block)), np.empty((4, block))
        for start in range(0, len(rows), block):
            a, b = rows[start:start + block], cols[start:start + block]
            e, w = ends[:, :len(a)], wrapped[:, :len(a)]
            e[:4], e[4:] = a[:, -4:].T, a[:, :4].T
            _stencil(w, e, 2, 6, h)
            b[:, -2:], b[:, :2] = w[:2].T, w[2:].T
    else:
        v, o = np.moveaxis(u, axis, 0), np.moveaxis(out, axis, 0)
        _stencil(o, v, 0, len(v), h)
    return out


def _perm_sign(seq) -> int:
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


class TrigComponent(np.lib.mixins.NDArrayOperatorsMixin):
    """One `random_trig_form` component, held as the lines it sums.

    The component is the sum over axes of c_a + s_a, one pair of lines
    per axis, each of length 1 along every other axis: 2*dim lines of n
    values in all.  `rows` writes a run of axis-0 rows, within one
    period, into an array the caller owns.  Everywhere else the
    component is the full array it stands for: `__array__` builds that
    array, the one place it is built, and every ufunc and operator goes
    through it.  Anything else, indexing included, takes np.asarray of
    the component first.
    """

    def __init__(self, lines):
        self._lines = tuple(lines)
        self.shape = np.broadcast_shapes(*(c.shape for c, _ in self._lines))
        self.ndim = len(self.shape)

    def rows(self, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        """Rows start..stop-1 along axis 0, 0 <= start < stop <= n, written
        into out: ((0.0 + c_0) + s_0) + c_1 + s_1 + ..., the additions the
        full-size sum makes, in its order, so every element has the full
        array's bits.  The partial sum before the last axis is 1/n of
        out, and no larger array is made."""
        if not 0 <= start < stop <= self.shape[0]:
            raise ValueError("rows are read within one period of axis 0")
        (c, s), *middle, (c_last, s_last) = self._lines
        part = 0.0 + c[start:stop]
        part += s[start:stop]
        for c, s in middle:
            part = part + c
            part += s
        np.add(part, c_last, out=out)
        out += s_last
        return out

    def __array__(self, dtype=None, copy=None):
        if copy is False:  # numpy 2's protocol: no view exists to return
            raise ValueError("a TrigComponent is built anew on every conversion")
        full = self.rows(0, self.shape[0], np.empty(self.shape))
        return full if dtype is None else full.astype(dtype, copy=False)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if any(isinstance(x, TrigComponent) for x in kwargs.get("out", ())):
            return NotImplemented  # nothing is written into a component
        inputs = tuple(np.asarray(x) if isinstance(x, TrigComponent) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def _common_grid(a, b) -> PeriodicGrid:
    """The grid two fields live on, which must be the same."""
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    return a.grid


@dataclass
class FormField:
    """k-form with one array per strictly increasing multi-index.

    A component is stored at its broadcast shape: grid.dim axes, each of
    length 1 or the full grid size.  An array with fewer axes is
    reshaped, never expanded; a shape that does not broadcast to the
    grid's is rejected.  A `TrigComponent` is kept as it is.
    """

    # keep ndarray * FormField out of numpy broadcasting; use __rmul__
    __array_ufunc__ = None

    grid: PeriodicGrid
    degree: int
    comps: Dict[Index, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        # dim + 1 admits the identically zero image of d on top forms
        if not 0 <= self.degree <= self.grid.dim + 1:
            raise ValueError("degree out of range")
        shape = self.grid.sizes
        for idx in list(self.comps):
            arr = self.comps[idx]
            if not isinstance(arr, TrigComponent):
                arr = np.asarray(arr, dtype=float)
            if tuple(sorted(idx)) != idx or len(set(idx)) != len(idx):
                raise ValueError("component indices must be strictly increasing")
            if len(idx) != self.degree:
                raise ValueError("component index length must equal the degree")
            try:
                fits = np.broadcast_shapes(arr.shape, shape) == shape
            except ValueError:
                fits = False
            if not fits:
                raise ValueError("component shape must broadcast to the grid")
            if arr.ndim < len(shape):
                arr = arr.reshape((1,) * (len(shape) - arr.ndim) + arr.shape)
            self.comps[idx] = arr

    @staticmethod
    def scalar(grid: PeriodicGrid, values: np.ndarray) -> "FormField":
        return FormField(grid, 0, {(): np.asarray(values, dtype=float)})

    @staticmethod
    def zero(grid: PeriodicGrid, degree: int) -> "FormField":
        return FormField(grid, degree, {})

    def comp(self, idx: Index) -> np.ndarray:
        """Component for an increasing index, a compact zero if absent."""
        return self.comps.get(tuple(idx), np.zeros((1,) * self.grid.dim))

    def indices(self):
        return sorted(self.comps)

    def _binary(self, other: "FormField", sign: float) -> "FormField":
        grid = _common_grid(self, other)
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        # a + (-1.0) b equals a - b exactly; unshared components are not copied
        combine = np.add if sign > 0 else np.subtract
        out = dict(self.comps)
        for k, v in other.comps.items():
            out[k] = combine(out[k], v) if k in out else sign * v
        return FormField(grid, self.degree, out)

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __mul__(self, factor):
        # scalar or pointwise field multiplication
        return FormField(
            self.grid, self.degree, {k: v * factor for k, v in self.comps.items()}
        )

    __rmul__ = __mul__

    def sup(self) -> float:
        if not self.comps:
            return 0.0
        return max(float(np.max(np.abs(v))) for v in self.comps.values())


@dataclass
class VectorField:
    """Contravariant components, one array per axis."""

    __array_ufunc__ = None

    grid: PeriodicGrid
    comps: Tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.comps) != self.grid.dim:
            raise ValueError("need one component per axis")


def _add(acc: np.ndarray, term: np.ndarray) -> np.ndarray:
    """acc + term for two arrays the caller allocated and gives up, written
    into the first that already has the result's shape, else into a fresh
    array.  Elementwise results do not depend on where they are written,
    so the bits are those of acc + term."""
    shape = np.broadcast_shapes(acc.shape, term.shape)
    for buf in (acc, term):
        if buf.shape == shape:
            return np.add(acc, term, out=buf)
    return acc + term


def _accumulate(out: Dict[Index, np.ndarray], target: Index, term: np.ndarray):
    """out[target] += term for a freshly allocated term."""
    out[target] = _add(out[target], term) if target in out else term


def _star(grid: PeriodicGrid, idx: Index, sign: float = 1.0) -> Tuple[Index, float]:
    """(Ic, factor) with (sign * w)_{Ic} = factor w_I: the increasing
    complement of I and sign(I, Ic) sqrt(det g) prod_{i in I} 1/g_i."""
    comp_idx = tuple(a for a in range(grid.dim) if a not in idx)
    factor = sign * _perm_sign(idx + comp_idx) * grid.sqrt_det
    for a in idx:
        factor /= grid.metric[a]
    return comp_idx, factor


def _scaled(arr: np.ndarray, factor: float) -> np.ndarray:
    """factor * arr, or arr itself when the factor is exactly 1.0."""
    return arr if factor == 1.0 else factor * arr


def _d_terms(f: FormField, target: Index, star: bool = False):
    """The terms of component `target` of d f, or of d(*f) with star=True.

    One (array, axis, factor) per term factor D_a f_I with I + (a,) =
    target, in the order of f's components, the order `d` sums them.  The
    factor is (-1)^{pos(a)} times that of the star, +-1.0 without it.
    """
    grid = f.grid
    terms = []
    for idx, arr in f.comps.items():
        factor = 1.0
        if star:
            idx, factor = _star(grid, idx)
        missing = [a for a in target if a not in idx]
        if len(idx) + 1 == len(target) and len(missing) == 1:
            (a,) = missing
            terms.append((arr, a, -factor if target.index(a) % 2 else factor))
    return terms


def d(f: FormField) -> FormField:
    """Exterior derivative by the 4th-order stencil.

    Component T sums the terms (-1)^{pos(a)} D_a f_I over I + (a,) = T in
    the order of f's components.  Components appear in the order f's
    components first reach them.
    """
    grid, k = f.grid, f.degree
    if k >= grid.dim:
        return FormField.zero(grid, grid.dim + 1)
    targets = dict.fromkeys(
        tuple(sorted(idx + (a,))) for idx in f.comps for a in range(grid.dim) if a not in idx
    )
    out = {}
    for target in targets:
        for arr, a, sign in _d_terms(f, target):
            term = grid.deriv(arr, a)
            if sign < 0:
                np.negative(term, out=term)
            _accumulate(out, target, term)
            del term  # the loop variable would hold it while the next is formed
    return FormField(grid, k + 1, out)


def hodge(f: FormField, sign: float = 1.0) -> FormField:
    """Hodge star for the constant diagonal metric, times sign = +-1.

    (*w)_{Ic} = sign(I, Ic) sqrt(det g) (prod_{i in I} 1/g_i) w_I with Ic
    the increasing complement of I.  A component whose factor is exactly
    1.0 is passed through, not copied, so fields may share component
    arrays; no function here writes into a component it did not
    allocate.  Multiplying by +-1 is exact, so the sign folded into the
    factor gives the same bits as negating the result.
    """
    grid, k = f.grid, f.degree
    if k > grid.dim:
        raise ValueError("no star above the top degree")
    out: Dict[Index, np.ndarray] = {}
    for idx, arr in f.comps.items():
        comp_idx, factor = _star(grid, idx, sign)
        out[comp_idx] = _scaled(arr, factor)
    return FormField(grid, grid.dim - k, out)


def codiff(f: FormField) -> FormField:
    """Codifferential d* = (-1)^{n(k+1)+1} * d * (zero on scalars)."""
    grid, k = f.grid, f.degree
    if k == 0:
        return FormField.zero(grid, 0)
    if not f.comps:
        return FormField.zero(grid, k - 1)
    return hodge(d(hodge(f)), _codiff_sign(grid, k))


def _codiff_sign(grid: PeriodicGrid, k: int) -> float:
    """The sign in d* = (-1)^{n(k+1)+1} * d * on k-forms."""
    return (-1.0) ** (grid.dim * (k + 1) + 1)


def interior(X: VectorField, f: FormField) -> FormField:
    """Interior product i_X f (zero on scalars)."""
    grid, k = _common_grid(X, f), f.degree
    if k == 0:
        return FormField.zero(grid, 0)
    out: Dict[Index, np.ndarray] = {}
    for idx, arr in f.comps.items():
        for pos, m in enumerate(idx):
            target = idx[:pos] + idx[pos + 1:]
            term = X.comps[m] * arr
            if pos % 2:
                term = -term
            _accumulate(out, target, term)
    return FormField(grid, k - 1, out)


def lie(X: VectorField, f: FormField) -> FormField:
    """Lie derivative via Cartan: L_X = d i_X + i_X d."""
    return d(interior(X, f)) + interior(X, d(f))


def wedge(a: FormField, b: FormField) -> FormField:
    grid = _common_grid(a, b)
    k = a.degree + b.degree
    if k > grid.dim:
        return FormField.zero(grid, grid.dim)
    out: Dict[Index, np.ndarray] = {}
    for ia, va in a.comps.items():
        for ib, vb in b.comps.items():
            sign = _perm_sign(ia + ib)
            if sign == 0:
                continue
            target = tuple(sorted(ia + ib))
            term = va * vb
            if sign < 0:
                term = -term
            _accumulate(out, target, term)
    return FormField(grid, k, out)


def gradient(f: FormField) -> VectorField:
    """Metric-raised differential of a scalar."""
    if f.degree != 0:
        raise ValueError("gradient takes a scalar field")
    grid = f.grid
    u = f.comp(())
    return VectorField(
        grid,
        tuple(grid.deriv(u, a) / grid.metric[a] for a in range(grid.dim)),
    )


def _inverse_metric(grid: PeriodicGrid, idx: Index) -> float:
    """prod_{i in idx} 1/g_i, the metric weight of one component pairing."""
    factor = 1.0
    for i in idx:
        factor /= grid.metric[i]
    return factor


def inner_pointwise(a: FormField, b: FormField) -> np.ndarray:
    """Degree-normalized inner product <a, b> (increasing indices)."""
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    grid = _common_grid(a, b)
    out = np.zeros((1,) * grid.dim)
    for idx in a.indices():
        if idx in b.comps:
            factor = _inverse_metric(grid, idx)
            out = _add(out, _scaled(a.comps[idx], factor) * b.comps[idx])
    return out


def integral(values: np.ndarray, grid: PeriodicGrid) -> float:
    """Trapezoid rule on the periodic grid: mean times total volume.

    Pairwise summation depends on the array's shape, so summing the
    broadcast form would change the last digits.  The expanded array is
    therefore copied one slab of `_slab_planes` axis-0 planes at a time
    into one slab-sized buffer, and `PairwiseSum` adds the slabs up as
    they come, to the bits np.sum gives a contiguous full-grid copy.
    """
    full = np.broadcast_to(values, grid.sizes)
    step = _slab_planes(grid)
    buf = np.empty(step * math.prod(grid.sizes[1:]))
    total = _pairwise.PairwiseSum(math.prod(grid.sizes))
    for start in range(0, grid.sizes[0], step):
        rows = full[start:start + step]
        slab = _view(buf, rows.shape)
        np.copyto(slab, rows)
        total.add(slab.reshape(-1))
    return total.total() * grid.cell_volume


def l2_inner(a: FormField, b: FormField) -> float:
    return integral(inner_pointwise(a, b), a.grid)


def _view(buf: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """The leading part of a flat working array, as a C-contiguous array
    of the given shape."""
    return buf[:math.prod(shape)].reshape(shape)


class _Carver:
    """Cuts the adjointness walk's arrays, one after another, from one flat
    float64 workspace, each C-contiguous and starting on a 64-byte
    boundary: the first at most 7 values in, the others at multiples of 8
    values after it.  Without a workspace it only counts: every array is
    None, and `size` ends as the values the cuts span from the first."""

    def __init__(self, workspace: Optional[np.ndarray] = None):
        self.workspace, self.size = workspace, 0
        self.skip = 0 if workspace is None else (-workspace.ctypes.data % 64) // 8

    def __call__(self, shape: Tuple[int, ...]) -> Optional[np.ndarray]:
        start = -(-self.size // 8) * 8
        self.size = start + math.prod(shape)
        if self.workspace is None:
            return None
        return self.workspace[self.skip + start:self.skip + self.size].reshape(shape)


def _ring_planes(n: int, step: int) -> int:
    """Planes in the ring of a component read with two halo planes on
    each side of slabs of `step` planes: a multiple of step, so no slab
    wraps in it, that holds a slab and its halos, or n, the whole axis,
    when that is fewer."""
    return min(n, step * -(-(step + 4) // step))


def _rings(pairs, sizes: Tuple[int, ...], step: int, take):
    """(pairs, rings): the pairs with each term's array and each mate
    replaced by the ring that holds its rows, and the (source, ring, halo)
    `_generate` fills, one per component the pairs read.

    The source is a `TrigComponent`, or a plain array broadcast to the
    full grid (a view); the ring, cut by `take` (a `_Carver`) in the order
    the pairs first read the components, holds full planes; halo marks the
    components differentiated along axis 0."""
    halo = {id(arr) for terms, *_ in pairs for arr, axis, _ in terms if axis == 0}
    cut, rings = {}, []

    def ring(arr):
        key = id(arr)
        if key not in cut:
            planes = _ring_planes(sizes[0], step) if key in halo else step
            cut[key] = take((planes,) + sizes[1:])
            source = arr if isinstance(arr, TrigComponent) else np.broadcast_to(arr, sizes)
            rings.append((source, cut[key], key in halo))
        return cut[key]

    pairs = [
        ([(ring(arr), axis, scale) for arr, axis, scale in terms], factor, ring(mate), mate_factor)
        for terms, factor, mate, mate_factor in pairs
    ]
    return pairs, rings


def _generate(rings, start: int, stop: int) -> None:
    """Write the rows the slab start..stop-1 reads and no earlier slab
    wrote: rows start..stop-1, or start-2..stop+1 with halo, and of those
    only the rows past the previous slab's.  Row x is source row x mod n,
    written to slot x mod len(ring); this is the one place a run of rows
    is split, at the axis end and at the ring end.  So each ring plane is
    written once per walk except the four halo planes that wrap around
    axis 0, and each piece is one run of source rows and of ring slots."""
    for comp, ring, halo in rings:
        lo, hi = (start + 2 if start else -2, stop + 2) if halo else (start, stop)
        n, planes = comp.shape[0], len(ring)
        while lo < hi:
            row, slot = lo % n, lo % planes
            count = min(hi - lo, planes - slot, n - row)
            part = ring[slot:slot + count]
            if isinstance(comp, TrigComponent):
                comp.rows(row, row + count, part)
            else:
                np.copyto(part, comp[row:row + count])
            lo += count


def _slab_deriv(
    grid: PeriodicGrid, v: np.ndarray, axis: int, factor: float,
    lo: int, hi: int, out: np.ndarray, scaled: np.ndarray,
) -> np.ndarray:
    """Rows lo..hi-1 of D_axis (factor v), written into out, for an array
    v of full grid planes (a ring).

    Along axes >= 1 this is `_deriv` of rows lo..hi-1 of v, scaled into
    the working array `scaled` first when the factor is not 1.0.  Along
    axis 0 the stencil reads the neighbour rows lo-2..hi+1 of v with wrap
    in len(v) and scales each as it reads it.  Every element sees the
    operations `deriv` gives it on the scaled full array.
    """
    if axis > 0:
        src = v[lo:hi]
        if factor != 1.0:
            src = np.multiply(factor, src, out=_view(scaled, src.shape))
        return _deriv(grid, src, axis, out)
    return _stencil(out, v, lo, hi, grid.spacing[0], factor, _view(scaled, out.shape))


def _pair_slab(grid: PeriodicGrid, pairs, start: int, total: np.ndarray, work) -> None:
    """Fill `total`, the slab of axis-0 planes from row start on, with one
    pairing.

    `pairs` lists (terms, factor, mate, mate_factor), one per component:
    the sum of the `_d_terms` terms, scaled by factor, times mate scaled
    by mate_factor, with every term's array and every mate a ring (see
    `_rings`).  Row x of the walk sits at ring[x mod len(ring)], so every
    operand has the slab's shape.  The first product is written into
    total and the others are added to it in list order; no pairs make a
    zero total.  `work` holds three flat working arrays of one slab each:
    the component, one term or the scaled mate, and scaled source values.

    Signs are folded, not applied: a term is formed with its scale's
    magnitude, the component is held up to a sign, and each sign decides
    between adding and subtracting, or, for the first product, between
    scaling the component by |factor| and by -|factor|.  Negation
    commutes with every round-to-nearest operation here, so an element of
    total can differ from the field route's, whose sum starts at +0.0,
    only in the sign of an exact zero.  No nonzero sum depends on that
    sign, and a zero one becomes +0.0 in `PairwiseSum.total`, which adds
    0.0 last, so the gap keeps its bits.
    """
    comp_buf, term_buf, scaled = work
    planes = len(total)
    if not pairs:
        total.fill(0.0)
    comp, held = _view(comp_buf, total.shape), _view(term_buf, total.shape)
    for p, (terms, factor, mate, mate_factor) in enumerate(pairs):
        for i, (ring, axis, scale) in enumerate(terms):
            lo = start % len(ring)
            term = _slab_deriv(grid, ring, axis, abs(scale), lo, lo + planes, held if i else comp, scaled)
            flip = scale < 0  # the term is minus what was formed
            if i == 0:
                negative = flip  # comp holds minus the component
            elif flip == negative:
                comp += term
            else:
                comp -= term
        subtract = negative != (factor < 0)  # the product enters the total negated
        if p == 0 and subtract:
            comp *= -abs(factor)  # the first product is written, with its sign
        elif abs(factor) != 1.0:
            comp *= abs(factor)
        lo = start % len(mate)
        mate = mate[lo:lo + planes]
        if mate_factor != 1.0:
            mate = np.multiply(mate, mate_factor, out=held)
        if p == 0:
            np.multiply(comp, mate, out=total)
            continue
        comp *= mate
        if subtract:
            total -= comp
        else:
            total += comp


def _two_threads(grid: PeriodicGrid) -> bool:
    """Whether `adjointness_gap` walks the grid on two threads: where a
    slab is one axis-0 plane (`adjointness_gap` says why)."""
    return _slab_planes(grid) == 1


def _walk(grid: PeriodicGrid, step: int, rings, sides, wait) -> None:
    """One thread's share of the adjointness walk: on each slab, generate
    `rings` (all of the plan's or a part), `wait`, form each side's
    pairing into its slab total and hand that to its sum, `wait`.

    A side is (pairs, slab_total, work, pair_sum).  With a `wait` that
    does nothing this is the serial walk; on two threads it is a
    barrier's, so no ring is read before it is generated, nor overwritten
    while the other side reads it.
    """
    n = grid.sizes[0]
    for start in range(0, n, step):
        stop = min(start + step, n)
        _generate(rings, start, stop)
        wait()
        for pairs, slab_total, work, pair_sum in sides:
            total = _view(slab_total, (stop - start,) + grid.sizes[1:])
            _pair_slab(grid, pairs, start, total, work)
            pair_sum.add(total.reshape(-1))
        wait()


def _walk_on_two_threads(grid: PeriodicGrid, step: int, rings, left, right) -> None:
    """`_walk` with side `left` on the calling thread and side `right` on
    one worker thread, each generating every other ring of `rings`.

    The worker is started here and joined before this returns, however it
    returns.  A failure on either side aborts the barrier, which stops the
    other side at its next wait, and is raised here: the caller's own, or
    the worker's in place of the `BrokenBarrierError` that stopped the
    caller.  A worker that cannot be started, as when the CLI's data cap
    leaves no room for its stack, raises MemoryError.
    """
    barrier = threading.Barrier(2)
    failure = []

    def work():
        try:
            _walk(grid, step, rings[1::2], [right], barrier.wait)
        except threading.BrokenBarrierError:
            pass  # the caller failed and raises its own error
        except BaseException as exc:  # raised by the caller
            failure.append(exc)
            barrier.abort()

    worker = threading.Thread(target=work, name="adjointness-walk", daemon=True)
    try:
        worker.start()
    except RuntimeError as exc:
        raise MemoryError(f"no worker thread for the adjointness walk: {exc}") from exc
    try:
        _walk(grid, step, rings[0::2], [left], barrier.wait)
    except BaseException as exc:
        barrier.abort()
        worker.join()
        if failure and isinstance(exc, threading.BrokenBarrierError):
            raise failure[0] from None
        raise
    worker.join()


def _plan(alpha: FormField, beta: FormField, take):
    """The walk that checks alpha and beta, its arrays cut by `take` (a
    `_Carver`): (grid, step, rings, left, right).

    Each side, left for <d alpha, beta> and right for <alpha, d* beta>, is
    (pairs, slab_total, work, pair_sum): `_pair_slab`'s pairs, read from
    rings, a slab total, three working arrays of one slab each, and the
    `PairwiseSum` of the pairing.  `rings` lists the (source, ring, halo)
    `_generate` fills.  The rings are cut first, then the slab arrays,
    which the two sides share where one thread walks and hold one set
    each where two do (`_two_threads`).
    """
    if beta.degree != alpha.degree + 1:
        raise ValueError("beta must have degree one above alpha")
    grid = _common_grid(alpha, beta)
    step = _slab_planes(grid)
    left = []
    for idx in beta.indices():
        terms = _d_terms(alpha, idx)
        if terms:
            left.append((terms, _inverse_metric(grid, idx), beta.comps[idx], 1.0))
    right = []
    sign = _codiff_sign(grid, beta.degree)
    for idx in alpha.indices():
        source, _ = _star(grid, idx)
        terms = _d_terms(beta, source, star=True)
        if terms:
            _, factor = _star(grid, source, sign)
            right.append((terms, factor, alpha.comps[idx], _inverse_metric(grid, idx)))
    pairs, rings = _rings(left + right, grid.sizes, step, take)
    slab = (step * math.prod(grid.sizes[1:]),)

    def buffers():  # a slab total and three working arrays
        return take(slab), tuple(take(slab) for _ in range(3))

    shared = buffers()
    own = buffers() if _two_threads(grid) else shared
    sums = [_pairwise.PairwiseSum(math.prod(grid.sizes)) for _ in range(2)]
    cut = len(left)
    return grid, step, rings, (pairs[:cut], *shared, sums[0]), (pairs[cut:], *own, sums[1])


def adjointness_workspace_size(alpha: FormField, beta: FormField) -> int:
    """The length of the flat float64 workspace `adjointness_gap(alpha,
    beta)` cuts its arrays from: the walk's rings, then a slab total and
    three working arrays per walking thread, each padded to a multiple of
    8 values (64 bytes), and 7 values more, the room to start the first
    on a 64-byte boundary wherever the workspace starts."""
    take = _Carver()
    _plan(alpha, beta, take)
    return take.size + 7


def adjointness_gap(
    alpha: FormField, beta: FormField, workspace: Optional[np.ndarray] = None
) -> float:
    """|<d alpha, beta> - <alpha, d* beta>| for a k-form and a (k+1)-form.

    Neither d alpha nor d* beta is built, nor any full-grid array.  The
    check walks slabs of axis-0 planes once, each at most `_SLAB_BYTES`
    (a grid whose whole array fits is one slab), and on each slab forms
    every component of both pairings from the slab's rows only: stencils
    along axes >= 1 run on the slab, stencils along axis 0 read the two
    neighbour planes on either side with periodic wrap.  Each component
    is scaled, multiplied by its partner's slab and added into a slab
    total, in the order `inner_pointwise` takes, and `PairwiseSum` adds
    the slab totals up to the pairing's sum as they come.  The component
    of d* beta on J is the outer star of d(*beta) on the complement of J.
    The total and three working arrays of one slab each stay in cache
    while a component is formed, scaled, multiplied and added.

    The plan (`_plan`) gives every component one ring of full grid
    planes and hands each term and mate its ring.  Before each slab
    `_generate` fills the rings with the rows the slab reads: the slab,
    plus two halo planes on each side for a component either pairing
    differentiates along axis 0, or the whole axis when that is fewer
    planes.  A `TrigComponent` generates its rows there and is never
    built whole; a plain array's rows are copied there.  At 48^4 a pair
    of 10 such components so costs their lines, 8 of 48 values each, and
    rings of 1 or 5 planes, instead of 10 full grids.

    Every ring, slab total and working array is cut from `workspace`, a
    flat float64 array of at least `adjointness_workspace_size(alpha,
    beta)` values, else ValueError before anything is written.  The walk
    writes every value before it reads it, so what the workspace held
    before does not matter, and one workspace can serve the calls of a
    report one after another: the CLI's adjointness report sizes one for
    its largest pair, so its largest allocation comes before its first
    walk and no walk maps and faults in pages of its own.  Without one
    the call allocates its own, of exactly that size.

    Where a slab is one plane (`_two_threads`: on cubes 33^4 and up, and
    182^3 and up) the walk runs on two threads, with two barrier waits
    per slab: each thread generates every other ring, then the caller
    forms the left pairing and a worker the right one, each with its own
    slab total, working arrays and sum.  At 48^4 that takes a report's
    four walks from about 1.9 to 1.2 s for about 10% more CPU time (a
    2-core Xeon).  A slab of several planes fits the L2 with its working
    arrays, where the hand-offs cost more than they save: at 64^3 a
    second thread took 4% off the walk's wall time for 48% more CPU
    time.  There one thread forms the left pairing, hands its total to
    its sum, then forms the right one in the same arrays.  The worker
    runs no name the benchmark tracer patches: the walk differentiates
    along axes >= 1 through `_deriv`, not `PeriodicGrid.deriv`.

    Either way each sum receives its slab totals in the same order,
    every element sees the operations it sees in l2_inner(d(alpha),
    beta) and l2_inner(alpha, codiff(beta)), in the same order, and
    `PairwiseSum` adds the slab totals up exactly as `integral`'s np.sum
    adds the whole arrays, so the gap is bit-identical to theirs.
    """
    need = adjointness_workspace_size(alpha, beta)
    if workspace is None:
        workspace = np.empty(need)
    elif not (workspace.dtype == np.float64 and workspace.ndim == 1
              and workspace.flags.c_contiguous and len(workspace) >= need):
        raise ValueError(f"the walk needs a flat C-contiguous float64 workspace of {need} values")
    grid, step, rings, left, right = _plan(alpha, beta, _Carver(workspace))
    if _two_threads(grid):
        _walk_on_two_threads(grid, step, rings, left, right)
    else:
        _walk(grid, step, rings, [left, right], lambda: None)
    values = [pair_sum.total() * grid.cell_volume for *_, pair_sum in (left, right)]
    return abs(values[0] - values[1])


# ---------------------------------------------------------------------------
# raw-contraction helpers for the divergence identity


def _full_components(f: FormField):
    """Iterate (full index tuple, signed array) over all permutations."""
    for idx, arr in f.comps.items():
        for perm in itertools.permutations(idx):
            sign = _perm_sign(perm)
            yield perm, (arr if sign > 0 else -arr)


@dataclass
class HodgeReport(Report):
    """One identity check: sup residuals, optional values and rate."""

    identity: str
    grid_spec: dict
    residuals: Dict[str, float]
    values: Dict[str, float] = field(default_factory=dict)
    rate: Optional[float] = None

    _skip = ("grid_spec", "rate")

    @property
    def sup(self) -> float:
        return max(self.residuals.values())

    def _extras(self) -> dict:
        rate = {} if self.rate is None else {"rate": self.rate}
        return {"grid": self.grid_spec, "sup": self.sup, **rate}


def example_fields(
    grid: PeriodicGrid, f_amplitude: float = 1.0, h_amplitude: float = 1.0
) -> Tuple[FormField, FormField, FormField]:
    """Canonical trigonometric data (f, H, analytic interior product).

    f = a cos y and H = b sin x dx^dy^dz; H is exactly closed under the
    discrete d on either dimension (top form on the 3-torus, w-independent
    on the 4-torus).  The analytic value of i_{grad f} H is
    a b g^{yy} sin x sin y dx^dz, returned as the reference 2-form.
    Assumes the default 2 pi periods.
    """
    if grid.periods != (2.0 * np.pi,) * grid.dim:
        raise ValueError("example data needs the default 2 pi periods")
    x, y = grid.coords()[:2]
    f = FormField.scalar(grid, f_amplitude * np.cos(y))
    H = FormField(grid, 3, {(0, 1, 2): h_amplitude * np.sin(x)})
    ref = FormField(
        grid,
        2,
        {(0, 2): f_amplitude * h_amplitude / grid.metric[1] * np.sin(x) * np.sin(y)},
    )
    return f, H, ref


def closed_three_form(grid: PeriodicGrid, amplitudes=(0.5, 0.4)) -> FormField:
    """Exactly closed 3-form: the discrete d of a trigonometric 2-form.

    On the 3-torus this is a top form; on the 4-torus it picks up two
    components and exercises the non-top index bookkeeping.  Closedness
    is exact because the stencil d squares to zero up to rounding.
    """
    if grid.periods != (2.0 * np.pi,) * grid.dim:
        raise ValueError("example data needs the default 2 pi periods")
    x, y = grid.coords()[:2]
    comps = {(1, 2): float(amplitudes[0]) * np.sin(x)}
    if grid.dim == 4 and len(amplitudes) > 1:
        comps[(2, 3)] = float(amplitudes[1]) * np.sin(y)
    return d(FormField(grid, 2, comps))


def random_trig_form(
    grid: PeriodicGrid, degree: int, rng: np.random.Generator
) -> FormField:
    """Random trigonometric k-form: sum over axes of c cos(x + ph) + s sin 2x.

    Draws (c, s, ph) = rng.normal(size=3) per component and axis in
    lexicographic order.  Each component is a `TrigComponent`, which
    keeps each axis's two 1-D factors, c cos(x + ph) and s sin 2x, and
    sums them only for the rows asked for.  A component so costs two
    lines per axis until something builds its full array.
    """
    if degree > grid.dim:
        return FormField.zero(grid, degree)
    x = grid.coords()
    comps = {}
    for idx in itertools.combinations(range(grid.dim), degree):
        lines = []
        for xa in x:
            c, s, ph = rng.normal(size=3)
            lines.append((c * np.cos(xa + ph), s * np.sin(2.0 * xa)))
        comps[idx] = TrigComponent(lines)
    return FormField(grid, degree, comps)


def integral_closed_form(f_amp: float, h_amp: float, dim: int) -> float:
    """Exact int |d*H + i_{grad f} H|^2 e^{-f} dV for example_fields.

    b^2 4 pi^3 (2 pi)^(dim-3) (I0(a) + a I1(a)) with f = a cos y and
    H = b sin x dx^dy^dz on the unit-metric torus of period 2 pi.  The
    Bessel part is the positive series sum_j (1 + 2j) (a^2/4)^j / (j!)^2,
    summed until a term no longer changes the sum, which a nan sum never
    does: a non-finite amplitude raises ValueError.  It is even in a, within
    a relative 1e-15 of I0 + a I1 for |a| <= 5, 5e-15 for |a| <= 50 and
    5e-14 for |a| <= 700 (against 40-digit values), and inf from
    |a| = 707.42 on, where I0 + a I1 passes the largest double.
    """
    a, b = float(f_amp), h_amp
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("the amplitudes must be finite")
    q = a * a / 4.0
    term = total = 1.0
    for j in itertools.count(1):
        term *= q / (j * j)
        grown = total + (2 * j + 1) * term
        if grown == total:
            break
        total = grown
    return float(b * b * 4.0 * np.pi**3 * (2.0 * np.pi) ** (dim - 3) * total)


def _require_scalar_and_three_form(f: FormField, H: FormField):
    if f.degree != 0:
        raise ValueError("f must be a scalar field")
    if H.degree != 3:
        raise ValueError("H must be a 3-form")
    _common_grid(f, H)


def _twisted_operator(f: FormField, H: FormField) -> Tuple[FormField, FormField]:
    """(sigma, operator) for a scalar f and a closed 3-form H: sigma =
    d*H + i_{grad f} H and operator = dd*H + d*dH + L_{grad f} H.

    H with sup|dH| above 1e-8 max(1, sup|H|) is rejected.  d*H and dH
    are each computed once and shared by both.
    """
    _require_scalar_and_three_form(f, H)
    dH = d(H)
    gap = dH.sup()
    if gap > 1e-8 * max(1.0, H.sup()):
        raise ValueError("H is not closed: sup|dH| = %.3e" % gap)
    X = gradient(f)
    dstar = codiff(H)
    sigma = dstar + interior(X, H)
    operator = d(dstar) + codiff(dH) + lie(X, H)
    return sigma, operator


def check_suobing(
    f: FormField, H: FormField, reference: Optional[FormField] = None
) -> HodgeReport:
    """Interior-product rewrite: i_{grad f} H = *(df ^ *H).

    The two discrete routes share every stencil, so their gap sits at
    rounding level; pass the analytic 2-form as reference to expose the
    4th-order discretization error of the left side.
    """
    _require_scalar_and_three_form(f, H)
    lhs = interior(gradient(f), H)
    rhs = hodge(wedge(d(f), hodge(H)))
    residuals = {"discrete": (lhs - rhs).sup()}
    if reference is not None:
        residuals["reference"] = (lhs - reference).sup()
    return HodgeReport(
        identity="interior_product_rewrite",
        grid_spec=f.grid.spec(),
        residuals=residuals,
    )


def check_twisted_codiff(f: FormField, H: FormField) -> HodgeReport:
    """Twisted codifferential chain and its exterior derivative.

    pointwise:      d*H + i_{grad f} H = e^f d*(e^{-f} H)
    differentiated: dd*H + d*dH + L_{grad f} H = d(e^f d*(e^{-f} H)),
    requiring dH = 0 (rejected otherwise), under which the left side is
    the Hodge Laplacian plus the Lie derivative.
    """
    sigma, operator = _twisted_operator(f, H)
    grid = f.grid
    fv = f.comp(())
    ef, emf = np.exp(fv), np.exp(-fv)

    twisted = ef * codiff(emf * H)
    res_pointwise = (sigma - twisted).sup()
    res_diff = (operator - d(twisted)).sup()

    return HodgeReport(
        identity="twisted_codifferential",
        grid_spec=grid.spec(),
        residuals={"pointwise": res_pointwise, "differentiated": res_diff},
    )


def check_integral_identity(f: FormField, H: FormField) -> HodgeReport:
    """Weighted integral identity with both sides computed independently.

    int |d*H + i_{grad f} H|^2 e^{-f} dV
      = int <dd*H + d*dH + L_{grad f} H, H> e^{-f} dV
    with degree-normalized L^2 pairings on both sides (the raw pairing
    fails by 3!/2!).  Returns both values and their relative gap.
    """
    sigma, operator = _twisted_operator(f, H)
    grid = f.grid
    emf = np.exp(-f.comp(()))

    left = integral(inner_pointwise(sigma, sigma) * emf, grid)
    right = integral(inner_pointwise(operator, H) * emf, grid)

    scale = max(abs(left), abs(right), 1e-300)
    return HodgeReport(
        identity="weighted_integral",
        grid_spec=grid.spec(),
        residuals={"relative_gap": abs(left - right) / scale},
        values={"left": left, "right": right},
    )


def check_divH2(H: FormField) -> HodgeReport:
    """Divergence identity (div H2)_i = (1/6) grad_i |H|^2 - (d*H)^{mn} H_{imn}.

    All contractions raw; the double contraction carries factor 1, the
    choice pinned by the closed-form top-form example.
    """
    if H.degree != 3:
        raise ValueError("H must be a 3-form")
    grid = H.grid
    n = grid.dim
    ginv = [1.0 / g for g in grid.metric]

    # dense covariant H for raw index gymnastics, modest at n <= 4
    dense = dict(_full_components(H))

    unit_shape = (1,) * n  # the shape of a constant

    # |H|^2 raw
    H2norm = np.zeros(unit_shape)
    for (i, j, k), arr in dense.items():
        H2norm = _add(H2norm, ginv[i] * ginv[j] * ginv[k] * arr * arr)

    dstar = codiff(H)  # 2-form

    residuals = {}
    worst = 0.0
    for i in range(n):
        # (div H2)_i = sum_j g^{jj} D_j H2_{ji}
        div_i = np.zeros(unit_shape)
        for j in range(n):
            H2_ji = np.zeros(unit_shape)
            for p in range(n):
                for q in range(n):
                    a, b = dense.get((j, p, q)), dense.get((i, p, q))
                    if a is None or b is None:
                        continue
                    H2_ji = _add(H2_ji, ginv[p] * ginv[q] * a * b)
            div_i = _add(div_i, ginv[j] * grid.deriv(H2_ji, j))
        grad_term = grid.deriv(H2norm, i) / 6.0
        contraction = np.zeros(unit_shape)
        for m in range(n):
            for nn in range(n):
                if m == nn:
                    continue
                key = (m, nn) if m < nn else (nn, m)
                if key not in dstar.comps:
                    continue
                val = dstar.comps[key] if m < nn else -dstar.comps[key]
                h_imn = dense.get((i, m, nn))
                if h_imn is None:
                    continue
                contraction = _add(contraction, ginv[m] * ginv[nn] * val * h_imn)
        res = div_i - (grad_term - contraction)
        worst = float(np.maximum(worst, np.max(np.abs(res))))  # keeps a NaN
    residuals["sup"] = worst
    return HodgeReport(
        identity="divergence_of_H_squared",
        grid_spec=grid.spec(),
        residuals=residuals,
    )
