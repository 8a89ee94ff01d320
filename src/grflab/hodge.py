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
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .ioutil import atomic_write_text, to_json_text

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
    "example_fields",
    "closed_three_form",
    "random_trig_form",
    "integral_closed_form",
]

Index = Tuple[int, ...]


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
    def cube(dim: int, n: int, metric=None) -> "PeriodicGrid":
        return PeriodicGrid(dim=dim, sizes=(n,) * dim, metric=metric)

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

    def refined(self, factor: int = 2) -> "PeriodicGrid":
        return PeriodicGrid(
            dim=self.dim,
            sizes=tuple(s * factor for s in self.sizes),
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
        """4th-order periodic central difference along one axis.

        (8 (u[i+1] - u[i-1]) - u[i+2] + u[i-2]) / 12h, evaluated in that
        order into one fresh array from contiguous slices along the axis:
        the first difference covers the interior 1..m-2 in one slice and
        the wrap planes 0 and m-1 separately, and each +-2 shift is two
        slices, one of them wrapping.  No shifted copy of u is made, and
        every element sees the same operations as the np.roll formula, so
        the result is bit-identical to it.
        """
        h = self.spacing[axis]
        out = np.empty_like(u)
        v, o = np.moveaxis(u, axis, 0), np.moveaxis(out, axis, 0)
        np.subtract(v[2:], v[:-2], out=o[1:-1])
        np.subtract(v[1], v[-1], out=o[0])
        np.subtract(v[0], v[-2], out=o[-1])
        o *= 8.0
        o[:-2] -= v[2:]
        o[-2:] -= v[:2]
        o[2:] += v[:-2]
        o[:2] += v[-2:]
        out /= 12.0 * h
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
    """k-form with one array per strictly increasing multi-index."""

    # keep ndarray * FormField out of numpy broadcasting; use __rmul__
    __array_ufunc__ = None

    grid: PeriodicGrid
    degree: int
    comps: Dict[Index, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        # dim + 1 admits the identically zero image of d on top forms
        if not 0 <= self.degree <= self.grid.dim + 1:
            raise ValueError("degree out of range")
        shape = tuple(self.grid.sizes)
        for idx in list(self.comps):
            arr = np.asarray(self.comps[idx], dtype=float)
            if tuple(sorted(idx)) != idx or len(set(idx)) != len(idx):
                raise ValueError("component indices must be strictly increasing")
            if len(idx) != self.degree:
                raise ValueError("component index length must equal the degree")
            if arr.shape != shape:
                try:
                    arr = np.broadcast_to(arr, shape)
                except ValueError:
                    raise ValueError("component shape must match the grid")
            self.comps[idx] = arr

    @staticmethod
    def scalar(grid: PeriodicGrid, values: np.ndarray) -> "FormField":
        return FormField(grid, 0, {(): np.asarray(values, dtype=float)})

    @staticmethod
    def zero(grid: PeriodicGrid, degree: int) -> "FormField":
        return FormField(grid, degree, {})

    def comp(self, idx: Index) -> np.ndarray:
        """Component for an increasing index, zeros if absent."""
        return self.comps.get(tuple(idx), np.zeros(self.grid.sizes))

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


def d(f: FormField) -> FormField:
    """Exterior derivative by the 4th-order stencil."""
    grid, k = f.grid, f.degree
    if k >= grid.dim:
        return FormField.zero(grid, grid.dim + 1)
    out: Dict[Index, np.ndarray] = {}
    for idx, arr in f.comps.items():
        for a in range(grid.dim):
            if a in idx:
                continue
            target = tuple(sorted(idx + (a,)))
            sign = (-1.0) ** target.index(a)
            term = grid.deriv(arr, a)
            if sign < 0:
                np.negative(term, out=term)
            if target in out:
                out[target] += term
            else:
                out[target] = term
    return FormField(grid, k + 1, out)


def hodge(f: FormField) -> FormField:
    """Hodge star for the constant diagonal metric.

    (*w)_{Ic} = sign(I, Ic) sqrt(det g) (prod_{i in I} 1/g_i) w_I with Ic
    the increasing complement of I.
    """
    grid, k = f.grid, f.degree
    n = grid.dim
    if k > n:
        raise ValueError("no star above the top degree")
    full = tuple(range(n))
    out: Dict[Index, np.ndarray] = {}
    for idx, arr in f.comps.items():
        comp_idx = tuple(a for a in full if a not in idx)
        sign = _perm_sign(idx + comp_idx)
        factor = sign * grid.sqrt_det
        for a in idx:
            factor /= grid.metric[a]
        out[comp_idx] = factor * arr
    return FormField(grid, n - k, out)


def codiff(f: FormField) -> FormField:
    """Codifferential d* = (-1)^{n(k+1)+1} * d * (zero on scalars)."""
    grid, k = f.grid, f.degree
    if k == 0:
        return FormField.zero(grid, 0)
    if not f.comps:
        return FormField.zero(grid, k - 1)
    sign = (-1.0) ** (grid.dim * (k + 1) + 1)
    return sign * hodge(d(hodge(f)))


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
            if target in out:
                out[target] += term
            else:
                out[target] = term
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
            if target in out:
                out[target] += term
            else:
                out[target] = term
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


def inner_pointwise(a: FormField, b: FormField) -> np.ndarray:
    """Degree-normalized inner product <a, b> (increasing indices)."""
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    grid = a.grid
    out = np.zeros(grid.sizes)
    for idx in a.indices():
        if tuple(idx) not in b.comps:
            continue
        factor = 1.0
        for i in idx:
            factor /= grid.metric[i]
        out += factor * a.comps[idx] * b.comps[idx]
    return out


def integral(values: np.ndarray, grid: PeriodicGrid) -> float:
    """Trapezoid rule on the periodic grid: mean times total volume."""
    return float(np.sum(values, dtype=np.float64)) * grid.cell_volume


def l2_inner(a: FormField, b: FormField) -> float:
    return integral(inner_pointwise(a, b), a.grid)


def adjointness_gap(alpha: FormField, beta: FormField) -> float:
    """|<d alpha, beta> - <alpha, d* beta>| for a k-form and a (k+1)-form."""
    if beta.degree != alpha.degree + 1:
        raise ValueError("beta must have degree one above alpha")
    return abs(l2_inner(d(alpha), beta) - l2_inner(alpha, codiff(beta)))


# ---------------------------------------------------------------------------
# raw-contraction helpers for the divergence identity


def _full_components(f: FormField):
    """Iterate (full index tuple, signed array) over all permutations."""
    for idx, arr in f.comps.items():
        for perm in itertools.permutations(idx):
            sign = _perm_sign(perm)
            yield perm, (arr if sign > 0 else -arr)


@dataclass
class HodgeReport:
    """One identity check: sup residuals, optional values and rate."""

    identity: str
    grid_spec: dict
    residuals: Dict[str, float]
    values: Dict[str, float] = field(default_factory=dict)
    rate: Optional[float] = None

    @property
    def sup(self) -> float:
        return max(self.residuals.values())

    def to_json(self, path: Optional[str] = None) -> str:
        payload = {
            "identity": self.identity,
            "grid": self.grid_spec,
            "residuals": self.residuals,
            "values": self.values,
            "sup": self.sup,
        }
        if self.rate is not None:
            payload["rate"] = self.rate
        text = to_json_text(payload)
        if path is not None:
            atomic_write_text(path, text)
        return text


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
    time and only the last axis step is full grid size.
    """
    if degree > grid.dim:
        return FormField.zero(grid, degree)
    x = grid.coords()
    comps = {}
    for idx in itertools.combinations(range(grid.dim), degree):
        field = np.zeros((1,) * grid.dim)
        for axis in range(grid.dim):
            c, s, ph = rng.normal(size=3)
            field = field + c * np.cos(x[axis] + ph) + s * np.sin(2.0 * x[axis])
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

    # |H|^2 raw
    H2norm = np.zeros(grid.sizes)
    for (i, j, k), arr in dense.items():
        H2norm += ginv[i] * ginv[j] * ginv[k] * arr * arr

    dstar = codiff(H)  # 2-form

    residuals = {}
    worst = 0.0
    for i in range(n):
        # (div H2)_i = sum_j g^{jj} D_j H2_{ji}
        div_i = np.zeros(grid.sizes)
        for j in range(n):
            H2_ji = np.zeros(grid.sizes)
            for p in range(n):
                for q in range(n):
                    a, b = Hc(j, p, q), Hc(i, p, q)
                    if a is None or b is None:
                        continue
                    H2_ji += ginv[p] * ginv[q] * a * b
            div_i += ginv[j] * grid.deriv(H2_ji, j)
        grad_term = grid.deriv(H2norm, i) / 6.0
        contraction = np.zeros(grid.sizes)
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
                contraction += ginv[m] * ginv[nn] * val * h_imn
        res = div_i - (grad_term - contraction)
        worst = max(worst, float(np.max(np.abs(res))))
    residuals["sup"] = worst
    return HodgeReport(
        identity="divergence_of_H_squared",
        grid_spec=grid.spec(),
        residuals=residuals,
    )
