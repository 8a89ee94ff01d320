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
the expanded array, so results are bit-identical to it; only `integral`
expands, because pairwise summation depends on the array's shape.

A result is written into an array the operator allocated itself, never
into a component it was given.  `adjointness_gap` builds neither d alpha
nor d* beta.  It walks slabs of axis-0 planes, each at most `_SLAB_BYTES`
(a grid whose whole array fits is one slab), and on each slab forms every
component of both pairings from the slab's rows only.  Beyond the two
input fields it so holds one full-grid array, the pointwise sum it
integrates, plus three working arrays of one slab each, which stay in
cache while a component is formed, scaled, multiplied and added.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .ioutil import Report
from .ioutil import atomic_write_text  # noqa: F401  (unused here; perfbench/tracer.py patches it)

__all__ = [
    "PeriodicGrid",
    "FormField",
    "VectorField",
    "HodgeReport",
    "d",
    "d_component",
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
    "example_fields",
    "closed_three_form",
    "random_trig_form",
    "integral_closed_form",
]

Index = Tuple[int, ...]

# Rows per block when `PeriodicGrid.deriv` recomputes the wrap columns of
# its flat path: the cache lines at both ends of a block's rows, 1 MiB of
# input and output, stay in L2 between copying them out and back.
_WRAP_ROWS = 4096

# Bytes of axis-0 planes per slab that `adjointness_gap` forms its terms
# on: half the 2 MiB per-core L2, so a slab's working arrays stay cached
# across the operations that form, scale, multiply and add one component.
# A budget of 2 MiB measured slower at 48^4 and 96^3.
_SLAB_BYTES = 1 << 20


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
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) != self.dim or any(s < 16 for s in sizes):
            raise ValueError("need one size >= 16 per axis")
        periods = self.periods
        if periods is None:
            periods = (2.0 * np.pi,) * self.dim
        periods = tuple(float(p) for p in periods)
        metric = self.metric
        if metric is None:
            metric = (1.0,) * self.dim
        metric = tuple(float(g) for g in metric)
        if len(periods) != self.dim or any(p <= 0 for p in periods):
            raise ValueError("need one positive period per axis")
        if len(metric) != self.dim or any(g <= 0 for g in metric):
            raise ValueError("metric coefficients must be positive")
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
            np.arange(s) * dx for s, dx in zip(self.sizes, self.spacing)
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

    def deriv(self, u: np.ndarray, axis: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """4th-order periodic central difference along one axis.

        (8 (u[i+1] - u[i-1]) - u[i+2] + u[i-2]) / 12h, evaluated in that
        order by `_stencil` into `out`, or into a fresh array when out is
        None.  out must be a writable float64 array of u's shape that does
        not overlap u: an aliased out would read values already
        overwritten, so it raises ValueError.  No shifted copy of u is
        made, and every element sees the same operations as the np.roll
        formula, so the result is bit-identical to it.

        Two evaluation paths, one result:

        * a C-contiguous u and out made of full grid planes, the whole
          grid or a slab of axis-0 planes, differentiated along the last
          axis, are walked as flat arrays with element offsets +-1 and
          +-2, so each operation is one loop over the whole array rather
          than a loop of m-2 elements per row, which made this axis cost
          twice the others.  The offsets reach into the neighbouring row
          in columns 0, 1, m-2 and m-1; those columns are then recomputed
          over blocks of `_WRAP_ROWS` rows, from a copy of each block's
          columns m-4..m-1 and 0..3 in which they are contiguous rows;
        * every other axis, and every broadcast-shape or non-contiguous
          u or out, uses contiguous slices along the axis: each operation
          covers the rows its neighbour offset reaches without wrapping
          in one slice and the rest in another.  Their inner loops are
          already long, and the flat form measured slower there.

        u is constant along an axis of length 1, where the stencil gives
        u - u: +0.0 where u is finite and nan where it is not, exactly
        what the formula gives on the expanded array.
        """
        if out is None:
            out = np.empty_like(u)
        elif out.shape != u.shape or out.dtype != np.float64 or not out.flags.writeable:
            raise ValueError("out must be a writable float64 array of u's shape")
        elif np.may_share_memory(out, u):
            raise ValueError("out must not overlap u")
        if u.shape[axis] == 1:
            return np.subtract(u, u, out=out)
        h = self.spacing[axis]
        if (
            axis == u.ndim - 1
            and u.shape[1:] == self.sizes[1:]
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


@dataclass
class FormField:
    """k-form with one array per strictly increasing multi-index.

    A component is stored at its broadcast shape: grid.dim axes, each of
    length 1 or the full grid size.  An array with fewer axes is
    reshaped, never expanded; a shape that does not broadcast to the
    grid's is rejected.
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
            arr = np.asarray(self.comps[idx], dtype=float)
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
        if self.grid is not other.grid and self.grid != other.grid:
            raise ValueError("fields live on different grids")
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        # a + (-1.0) b equals a - b exactly; unshared components are not copied
        combine = np.add if sign > 0 else np.subtract
        out = dict(self.comps)
        for k, v in other.comps.items():
            out[k] = combine(out[k], v) if k in out else sign * v
        return FormField(self.grid, self.degree, out)

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

    One (array, axis, factor, negate) per term (-1)^{pos(a)} D_a (factor
    f_I) with I + (a,) = target, in the order of f's components, the order
    `d` sums them.  The factor is that of the star, 1.0 without it.
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
            terms.append((arr, a, factor, target.index(a) % 2 == 1))
    return terms


def d_component(f: FormField, target: Index) -> Optional[np.ndarray]:
    """Component `target` of d f; None when no term reaches it.

    Sums the terms (-1)^{pos(a)} D_a f_I over I + (a,) = target in the
    order of f's components, the order `d` visits them.
    """
    out = None
    for arr, a, _, negate in _d_terms(f, target):
        term = f.grid.deriv(arr, a)
        if negate:
            np.negative(term, out=term)
        out = term if out is None else _add(out, term)
        del term  # the loop variable would hold it while the next is formed
    return out


def d(f: FormField) -> FormField:
    """Exterior derivative by the 4th-order stencil.

    Components appear in the order f's components first reach them.
    """
    grid, k = f.grid, f.degree
    if k >= grid.dim:
        return FormField.zero(grid, grid.dim + 1)
    targets = dict.fromkeys(
        tuple(sorted(idx + (a,))) for idx in f.comps for a in range(grid.dim) if a not in idx
    )
    return FormField(grid, k + 1, {t: d_component(f, t) for t in targets})


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
    grid, k = f.grid, f.degree
    if X.grid != grid:
        raise ValueError("fields live on different grids")
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
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    grid = a.grid
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
    grid = a.grid
    out = np.zeros((1,) * grid.dim)
    for idx in a.indices():
        if idx in b.comps:
            factor = _inverse_metric(grid, idx)
            out = _add(out, _scaled(a.comps[idx], factor) * b.comps[idx])
    return out


def integral(values: np.ndarray, grid: PeriodicGrid) -> float:
    """Trapezoid rule on the periodic grid: mean times total volume.

    Sums a contiguous full-grid copy of values: pairwise summation
    depends on the array's shape, so summing the broadcast form would
    change the last digits.
    """
    full = np.ascontiguousarray(np.broadcast_to(values, grid.sizes))
    return float(np.sum(full, dtype=np.float64)) * grid.cell_volume


def l2_inner(a: FormField, b: FormField) -> float:
    return integral(inner_pointwise(a, b), a.grid)


def _rows(arr: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of a broadcast-shape array along axis 0; an
    array constant along axis 0 is its own slab."""
    return arr if arr.shape[0] == 1 else arr[start:stop]


def _view(buf: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """The leading part of a flat working array, as a C-contiguous array
    of the given shape."""
    return buf[:math.prod(shape)].reshape(shape)


def _slab_deriv(
    grid: PeriodicGrid, arr: np.ndarray, axis: int, factor: float,
    start: int, stop: int, out: np.ndarray, scaled: np.ndarray,
) -> np.ndarray:
    """Rows start..stop-1 of D_axis (factor arr), written into out.

    Along axes >= 1, and along an axis 0 of length 1, this is `deriv` of
    the slab's rows of arr, scaled into the working array `scaled` first
    when the factor is not 1.0.  Along axis 0 the stencil reads the
    neighbour rows start-2..stop+1 of arr with periodic wrap and scales
    each as it reads it.  Every element sees the operations `deriv`
    gives it on the scaled full array.
    """
    if axis > 0 or arr.shape[0] == 1:
        src = _rows(arr, start, stop)
        if factor != 1.0:
            src = np.multiply(factor, src, out=_view(scaled, src.shape))
        return grid.deriv(src, axis, out=out)
    return _stencil(out, arr, start, stop, grid.spacing[0], factor, _view(scaled, out.shape))


def _stream_pairing(
    grid: PeriodicGrid, pairs, pointwise: np.ndarray, step: int, work
) -> None:
    """Fill `pointwise` with one pairing, `step` axis-0 planes at a time.

    `pairs` lists (terms, factor, other, other_factor), one per component:
    the sum of the `_d_terms` terms, scaled by factor, times other scaled
    by other_factor, added in list order into a slab of pointwise zeroed
    first.  `work` holds three flat working arrays of one slab each: the
    component, one term or the scaled other, and scaled source values.
    """
    comp_buf, term_buf, scaled = work
    n = grid.sizes[0]
    for start in range(0, n, step):
        stop = min(start + step, n)
        total = pointwise[start:stop]
        total.fill(0.0)
        comp = _view(comp_buf, total.shape)
        for terms, factor, other, other_factor in pairs:
            for i, (arr, axis, scale, negate) in enumerate(terms):
                shape = _rows(arr, start, stop).shape
                into = comp if i == 0 and shape == comp.shape else _view(term_buf, shape)
                term = _slab_deriv(grid, arr, axis, scale, start, stop, into, scaled)
                if negate:
                    np.negative(term, out=term)
                if i == 0:
                    if term is not comp:
                        np.copyto(comp, term)
                else:
                    comp += term
            if factor != 1.0:
                comp *= factor
            mate = _rows(other, start, stop)
            if other_factor != 1.0:
                mate = np.multiply(mate, other_factor, out=_view(term_buf, mate.shape))
            comp *= mate
            total += comp


def adjointness_gap(alpha: FormField, beta: FormField) -> float:
    """|<d alpha, beta> - <alpha, d* beta>| for a k-form and a (k+1)-form.

    Neither d alpha nor d* beta is built.  The check walks slabs of axis-0
    planes of at most `_SLAB_BYTES` each and forms every component of a
    pairing on one slab at a time: stencils along axes >= 1 run on the
    slab, stencils along axis 0 read the two neighbour planes on either
    side with periodic wrap.  Each component is scaled, multiplied by its
    partner's slab and added into that slab of one full-grid pointwise
    array, in the order `inner_pointwise` takes.  The component of d* beta
    on J is the outer star of d(*beta) on the complement of J.  The left
    pointwise sum is integrated whole; the same array is then zeroed and
    refilled for the right one.  Every element sees the operations it
    sees in l2_inner(d(alpha), beta) and l2_inner(alpha, codiff(beta)),
    in the same order, and `integral` sums the same contiguous array, so
    the gap is bit-identical to theirs.
    """
    if beta.degree != alpha.degree + 1:
        raise ValueError("beta must have degree one above alpha")
    grid = alpha.grid
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
    plane = math.prod(grid.sizes[1:])
    step = min(grid.sizes[0], max(1, _SLAB_BYTES // (8 * plane)))
    work = tuple(np.empty(step * plane) for _ in range(3))
    pointwise = np.empty(grid.sizes)
    values = []
    for pairs in (left, right):
        _stream_pairing(grid, pairs, pointwise, step, work)
        values.append(integral(pointwise, grid))
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
    lexicographic order.  Each component is separable, so it is
    accumulated from 1-D factors: the broadcast shape grows one axis at a
    time and only the last axis step is full grid size.  That step's
    second addition goes into the full-size array its first one made, so
    a component costs one full-size array.  The smaller steps keep two
    fresh results: adding in place there frees their buffers in another
    order, after which glibc keeps about 1 MB of freed heap resident at
    48^4.
    """
    if degree > grid.dim:
        return FormField.zero(grid, degree)
    x = grid.coords()
    comps = {}
    for idx in itertools.combinations(range(grid.dim), degree):
        field = np.zeros((1,) * grid.dim)
        for axis in range(grid.dim):
            c, s, ph = rng.normal(size=3)
            if axis < grid.dim - 1:
                field = field + c * np.cos(x[axis] + ph) + s * np.sin(2.0 * x[axis])
            else:
                field = field + c * np.cos(x[axis] + ph)
                field += s * np.sin(2.0 * x[axis])
        comps[idx] = field
    return FormField(grid, degree, comps)


def integral_closed_form(f_amp: float, h_amp: float, dim: int) -> float:
    """Exact int |d*H + i_{grad f} H|^2 e^{-f} dV for example_fields.

    b^2 4 pi^3 (2 pi)^(dim-3) (I0(a) + a I1(a)) with f = a cos y and
    H = b sin x dx^dy^dz on the unit-metric torus of period 2 pi.  scipy
    is imported on call, not when this module loads.
    """
    from scipy.special import iv

    a, b = f_amp, h_amp
    return float(
        b * b * 4.0 * np.pi**3 * (2.0 * np.pi) ** (dim - 3) * (iv(0, a) + a * iv(1, a))
    )


def _require_scalar_and_three_form(f: FormField, H: FormField):
    if f.degree != 0:
        raise ValueError("f must be a scalar field")
    if H.degree != 3:
        raise ValueError("H must be a 3-form")
    if f.grid != H.grid:
        raise ValueError("fields live on different grids")


def _require_closed(H: FormField, tol: float = 1e-8):
    gap = d(H).sup()
    scale = max(1.0, H.sup())
    if gap > tol * scale:
        raise ValueError("H is not closed: sup|dH| = %.3e" % gap)
    return gap


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
    _require_scalar_and_three_form(f, H)
    _require_closed(H)
    grid = f.grid
    fv = f.comp(())
    ef, emf = np.exp(fv), np.exp(-fv)

    X = gradient(f)
    sigma = codiff(H) + interior(X, H)
    twisted = ef * codiff(emf * H)
    res_pointwise = (sigma - twisted).sup()

    lhs2 = d(codiff(H)) + codiff(d(H)) + lie(X, H)
    rhs2 = d(twisted)
    res_diff = (lhs2 - rhs2).sup()

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
    _require_scalar_and_three_form(f, H)
    _require_closed(H)
    grid = f.grid
    emf = np.exp(-f.comp(()))

    X = gradient(f)
    sigma = codiff(H) + interior(X, H)
    left = integral(inner_pointwise(sigma, sigma) * emf, grid)

    operator = d(codiff(H)) + codiff(d(H)) + lie(X, H)
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
    dense: Dict[Index, np.ndarray] = {}
    for perm, arr in _full_components(H):
        dense[perm] = arr

    def Hc(i, j, k):
        return dense.get((i, j, k))

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
                    a, b = Hc(j, p, q), Hc(i, p, q)
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
                h_imn = Hc(i, m, nn)
                if h_imn is None:
                    continue
                contraction = _add(contraction, ginv[m] * ginv[nn] * val * h_imn)
        res = div_i - (grad_term - contraction)
        worst = max(worst, float(np.max(np.abs(res))))
    residuals["sup"] = worst
    return HodgeReport(
        identity="divergence_of_H_squared",
        grid_spec=grid.spec(),
        residuals=residuals,
    )
