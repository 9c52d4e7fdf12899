"""Randomized certification of the operator's strict-ellipticity structure.

Four quantitative facts back the solver's conditioning and are swept here
over reproducible random cone samples:

* the sorted deleted-polynomial share sigma_{k-1}(eta|k) / sum_i sigma_{k-1}(eta|i)
  is strictly positive on the order-k cone (``deleted_term_share``);
* the linearization's smallest eigenvalue is a positive fraction of its trace,
  for both the pure and the quotient operator (``ellipticity_ratio``);
* the product of consecutive-order sigma ratios at a deleted index is bounded
  by l(n-k)/(k(n-l)), attained exactly at uniform spectra (``maclaurin_ratio``);
* the trace of the pure linearization is bounded below by an explicit
  constant, attained at uniform spectra (``trace_lower_bound``).

The positive constants themselves are not known in closed form except for the
last two bounds; sweeps therefore report empirical infima and assert only
sign/bound facts.  Sweeps are deterministic given (n, k, seed, scale): sample
generators are derived from (seed, block index) in fixed-size blocks, so any
chunking of the work reproduces the identical stream.
A draw is shifted into the cone before it is scaled, so the stream at any
scale is the scale-1 stream times the scale.  The shift is defined by a
bisection along the diagonal (``_shift_bisect``), which always ends on a cell
of the grid 2^-34.  For n <= 6 the sampler finds the threshold of sigma_k
along the diagonal by Newton iteration, snaps it up to that grid and checks
the predicate at both ends of the cell below; a row whose Newton failed,
whose threshold passes 2^19 or which fails the check takes the bisection
itself.  That the check gives the bisection's floats is tested against it,
not proven (see _shift_into_cone).

All sweeps on one (n, cone order) stream share its work: each chunk is drawn
once and walked in blocks, whose sigma tables, deleted tables and operator
gradients are built once, read by every sweep of the group and freed once each
sweep has folded its result into its report.  The tables keep the spectrum on
axis 0, as every table inside the package does, the public functions below on
the last; both give the same floats.  A ConeError of a sweep names the failing
sample by its index in the stream.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor  # noqa: F401  (unused here; bench/tracing.py patches this binding)
from dataclasses import asdict, dataclass, field

import numpy as np

from .operator import OperatorSpec, _eta_of_lambda, _grad_from_sigmas, _lam_grad, _lambda_of_eta, f_grad
from .symfun import ConeError, _as_values, _by_columns, _check_in_gamma, _columns, _deleted_sigmas, _require_in_gamma
from .symfun import _largest_root, _sigma_rows
from .symfun import sigma_all, sigma_grad  # noqa: F401  (unused here; bench/tracing.py patches these bindings)

__all__ = [
    "ConeSampler",
    "sample_eta",
    "SweepReport",
    "deleted_term_share",
    "ellipticity_ratio",
    "maclaurin_ratio",
    "maclaurin_bound",
    "trace_lower_bound",
    "trace_check",
    "sweep_deleted_term_share",
    "sweep_ellipticity_ratio",
    "sweep_maclaurin_ratio",
    "sweep_trace_bound",
    "default_sweep_plan",
    "run_plan",
    "run_sweep",
]

_BLOCK = 4096  # samples per derived generator; fixed so chunking never changes the stream
_BISECT_TOL = 1e-10
_MARGIN = 1e-6  # sigma margin of the unscaled shifted draw; the scale multiplies afterwards
# The bisection from [0, 2^J] ends on cells of 2^_CELL_EXP, the largest power of two
# <= _BISECT_TOL; all its midpoints are exact in float64 while J - _CELL_EXP <= 53.
_CELL_EXP = math.frexp(_BISECT_TOL)[1] - 1
_MAX_EXACT_J = 53 + _CELL_EXP
_FAST_MAX_N = 6  # larger n takes the bisection; see _shift_into_cone
# The largest scale the sweeps are run and tested at (100000 samples, n <= 6).
# Far beyond it the sigma_k of a sample leave the float64 range.
_MAX_SCALE = 1e6


def _require_scale(scale: float) -> None:
    if not 0.0 < scale <= _MAX_SCALE:
        raise ValueError(f"scale must lie in (0, {_MAX_SCALE:g}] (got {scale!r})")


def worker_count() -> int:
    """The sweeps run on the calling thread; only bench/run.py reads this, for its context line."""
    return 1


def _block_normals(seed: int, n: int, start: int, count: int) -> np.ndarray:
    """Standard-normal draws for samples [start, start+count), block-derived, shape (count, n).

    The result is the transpose of contiguous columns (n, count), the layout
    the sigma kernels read, so _columns takes it without a copy.
    """
    out = np.empty((n, count))
    pos = 0
    while pos < count:
        idx = start + pos
        block = idx // _BLOCK
        offset = idx % _BLOCK
        take = min(_BLOCK - offset, count - pos)
        g = np.random.default_rng((seed, block)).standard_normal((_BLOCK, n))
        out[:, pos : pos + take] = g[offset : offset + take].T
        pos += take
    return out.T


def _cone_predicate(g: np.ndarray, k: int):
    """(pred, table): pred(t) is whether all sigma_i(g + t*ones) > 1e-6, per row of the unscaled draw g (m, n).

    t is a scalar or one shift per row; table (k+1, m) holds the last call's sigmas.
    """
    gt = _columns(g)
    shifted = np.empty_like(gt)
    table = np.empty((k + 1, g.shape[0]))

    def pred(t):
        return (_sigma_rows(np.add(gt, t, out=shifted), k, table)[1:] > _MARGIN).all(axis=0)

    return pred, table


def _shift_bisect(g: np.ndarray, k: int) -> np.ndarray:
    """Smallest t >= 0 with all sigma_i(g + t*ones) > 1e-6, per row of the unscaled draw g.

    The definition of the stream: doubling from t = 1 to a predicate-true
    bound, then bisection to absolute tolerance 1e-10 on the predicate-true
    endpoint, or until float64 cannot halve the bracket any more.  Each row's
    trajectory is independent of the batch it is evaluated in.
    """
    pred, _ = _cone_predicate(g, k)
    t0 = np.zeros(g.shape[0])
    done = pred(t0)
    hi = np.ones_like(t0)
    need = ~done
    while need.any():
        ok = pred(hi)
        grow = need & ~ok
        if not grow.any():
            break
        hi[grow] *= 2.0
    lo = np.zeros_like(t0)
    active = ~done
    while active.any():
        mid = 0.5 * (lo + hi)
        # once float64 cannot split [lo, hi], mid lands on an endpoint and the row is done
        active = active & (mid != lo) & (mid != hi)
        ok = pred(mid)
        hi = np.where(active & ok, mid, hi)
        lo = np.where(active & ~ok, mid, lo)
        active = active & ((hi - lo) > _BISECT_TOL)
    return np.where(done, 0.0, hi)


def _shift_into_cone(g: np.ndarray, k: int) -> np.ndarray:
    """_shift_bisect(g, k) from a computed threshold and two predicate calls per row.

    From [0, 2^J], J <= _MAX_EXACT_J, the bisection halves exactly and ends on
    a cell [hi - c, hi] of the grid c = 2^_CELL_EXP, with the predicate false
    at hi - c and true at hi.  In exact arithmetic the predicate (all
    sigma_i > 1e-6) holds along g + t*ones exactly above t*, the largest root
    of sigma_k(g + t*ones) - 1e-6 = sum_j C(n-j, k-j) sigma_j(g) t^(k-j) - 1e-6
    (for n <= 6, sigma_k = 1e-6 forces every lower sigma_i above 5e-5 in the
    cone, by Maclaurin's inequalities).  So a row outside the cone gets t*
    from symfun._largest_root and keeps hi, the first grid point at or above t*
    (at least c), when the real predicate is true at hi and false at hi - c.
    That this is the bisection's cell assumes the float64 predicate changes
    only once there: tested on all 19 streams of a default sweep plan at
    seeds 42, 1, 123, 7 and 2024 and by the oracle tests, not proven.

    A row whose Newton did not converge, whose t* passes 2^_MAX_EXACT_J or
    which fails the check takes _shift_bisect, which stays the definition of
    the stream; so does every row for n > 6.  Newton's error, about
    1e-12 * (1 + t*) plus the polynomial's rounding, spans several cells for
    draws of size 1e3-1e5, where a large share of rows takes the bisection;
    the sweeps' unscaled standard-normal draws shift by less than 5, where
    almost none do.  The call allocates one (n, m) block of shifted columns
    and one (k+1, m) sigma table, which also holds Newton's coefficients; g
    given as the transpose of contiguous columns, as _block_normals makes it,
    is read without a copy.
    """
    m, n = g.shape
    if n > _FAST_MAX_N:
        return _shift_bisect(g, k)
    pred, table = _cone_predicate(g, k)
    outside = ~pred(0.0)
    if not outside.any():
        return np.zeros(m)
    coef = table[1:]  # sigma_1..sigma_k of g, left there by pred(0.0)
    coef *= np.array([float(math.comb(n - j, k - j)) for j in range(1, k + 1)])[:, None]
    coef[-1] -= _MARGIN
    t, converged = _largest_root(coef, float(math.comb(n, k)))
    fast = outside & converged & (t <= 2.0**_MAX_EXACT_J)
    np.copyto(t, 0.0, where=~fast)
    hi = np.ldexp(np.maximum(np.ceil(np.ldexp(t, -_CELL_EXP)), 1.0), _CELL_EXP)
    fast &= pred(hi)
    fast &= ~pred(hi - 2.0**_CELL_EXP)
    shift = np.where(fast, hi, 0.0)
    slow = np.flatnonzero(outside & ~fast)  # left to the bisection itself
    if slow.size:
        shift[slow] = _shift_bisect(g[slow], k)
    return shift


def sample_block(n: int, k: int, seed: int, scale: float, start: int, count: int) -> np.ndarray:
    """Samples [start, start+count) of the deterministic cone stream, shape (count, n)."""
    _require_scale(scale)
    g = _block_normals(seed, n, start, count)
    t = _shift_into_cone(g, k)
    return scale * (g + t[:, None])


@dataclass
class ConeSampler:
    """Deterministic stream of spectra strictly inside the order-k cone.

    A standard-normal draw is shifted along the diagonal ray by the smallest
    nonnegative amount that clears a small sigma margin, then scaled; the
    shift does not depend on the scale.  Raw draws already inside the cone
    are kept as they are, so the stream covers both near-boundary and
    deep-interior points.
    """

    n: int
    k: int
    seed: int
    scale: float = 1.0
    position: int = field(default=0, compare=False)

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"cone index k={self.k} outside [1, {self.n}]")
        _require_scale(self.scale)

    def draw(self) -> np.ndarray:
        return self.draw_batch(1)[0]

    def draw_batch(self, count: int) -> np.ndarray:
        out = sample_block(self.n, self.k, self.seed, self.scale, self.position, count)
        self.position += count
        return out


def sample_eta(sampler: ConeSampler) -> np.ndarray:
    """Next spectrum from the sampler's stream (advances its position)."""
    return sampler.draw()


def deleted_term_share(eta, k: int):
    """Share of the k-th (descending order) deleted sigma_{k-1} term in the total.

    The spectrum is sorted descending internally.  Strictly positive on the
    order-k cone; the infimum over the cone is the unquantified constant the
    sweeps estimate.
    """
    vals = _as_values(eta)
    _require_in_gamma(_columns(vals), k, "deleted_term_share")
    return _by_columns(lambda vt: _share(_deleted_sigmas(-np.sort(-vt, axis=0), k - 1), k), vals)


def _share(d: np.ndarray, k: int) -> np.ndarray:
    """deleted_term_share (m,) from the deleted table d (k, n, m) of the descending spectra."""
    table = d[k - 1]
    return table[k - 1] / table.sum(axis=0)


def ellipticity_ratio(lam, spec: OperatorSpec):
    """min_i f_i / sum_i f_i for the operator's gradient; in (0, 1/n], scale-free."""
    return _by_columns(_min_share, f_grad(lam, spec))


def _min_share(fg: np.ndarray) -> np.ndarray:
    return fg.min(axis=0) / fg.sum(axis=0)


def maclaurin_bound(n: int, k: int, l: int) -> float:
    """Upper bound l(n-k)/(k(n-l)) for the deleted sigma-ratio product."""
    return l * (n - k) / (k * (n - l))


def maclaurin_ratio(eta, k: int, l: int, p: int | None = None):
    """Deleted-index ratio product [sigma_k/sigma_{k-1}] * [sigma_{l-1}/sigma_l].

    All four polynomials are evaluated with entry ``p`` zeroed; ``p=None``
    returns the value for every deleted index along a new last axis.  Requires
    the spectrum in the order-(k+1) cone, which keeps every denominator
    positive.  Lies in (0, maclaurin_bound(n, k, l)]: the bound is attained at
    uniform spectra, the infimum 0 approached at the order-(k+1) cone's boundary.
    """
    vals = _as_values(eta)
    n = vals.shape[-1]
    if not 1 <= l < k <= n - 1:
        raise ValueError(f"need 1 <= l < k <= n-1, got (k, l) = ({k}, {l})")
    _require_in_gamma(_columns(vals), k + 1, "maclaurin_ratio")
    alpha = _by_columns(lambda vt: _alpha(_deleted_sigmas(vt, k), k, l), vals)
    if p is None:
        return alpha
    if not 0 <= p < n:
        raise ValueError(f"index p={p} outside [0, {n})")
    out = alpha[..., p]
    return float(out) if vals.ndim == 1 else out


def _alpha(d: np.ndarray, k: int, l: int) -> np.ndarray:
    """maclaurin_ratio (n, m) at every deleted index p from the deleted table d[j, p] = sigma_j(eta | p)."""
    return (d[k] / d[k - 1]) * (d[l - 1] / d[l])


def trace_lower_bound(n: int, k: int) -> float:
    """Lower bound for sum_i f_i of the pure operator, attained at uniform spectra."""
    return (n - 1) / k * (n - k + 1) * math.comb(n, k - 1) / math.comb(n, k) ** ((k - 1) / k)


def trace_check(lam, spec: OperatorSpec):
    """Whether sum_i f_i >= trace_lower_bound(n, k) - 1e-10 (pure operator only)."""
    if spec.l is not None:
        raise ValueError("the trace lower bound is stated for the pure operator only")
    bound = trace_lower_bound(spec.n, spec.k) - 1e-10
    return _by_columns(lambda fg: fg.sum(axis=0) >= bound, f_grad(lam, spec))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

_CHUNK = 5 * _BLOCK  # whole generator blocks, so no block is drawn for two chunks
_SUB_BLOCK = 2048  # rows per _Tables; bounds the memory of the shared tables


@dataclass
class SweepReport:
    """Outcome of one randomized sweep of an asserted inequality.

    ``min_ratio`` is the smallest signed slack of the inequality seen over the
    sweep and ``argmin`` the sample attaining it; ``violations`` counts samples
    whose slack falls below -tolerance (1e-12, except 1e-10 for the trace
    bound) or is not finite; a non-finite slack ranks as -inf.  ``wall_time``
    is the sweep's own evaluation time plus an equal share of the draws of the
    stream it shares with other sweeps of its plan; it is informational and
    excluded from determinism guarantees and the CSV row.
    """

    label: str
    n: int
    k: int
    l: int | None
    samples: int
    seed: int
    scale: float
    min_ratio: float
    argmin: list[float]
    violations: int
    wall_time: float
    extra: dict = field(default_factory=dict)

    CSV_HEADER = "label,n,k,l,samples,seed,scale,min_ratio,violations,extra"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def csv_row(self) -> str:
        l = "" if self.l is None else str(self.l)
        extra = ";".join(f"{k}={v:.17g}" if isinstance(v, float) else f"{k}={v}" for k, v in sorted(self.extra.items()))
        return (
            f"{self.label},{self.n},{self.k},{l},{self.samples},{self.seed},"
            f"{self.scale:.17g},{self.min_ratio:.17g},{self.violations},{extra}"
        )


class _Tables:
    """Spectra and sigma tables of one block (m, n) of stream samples, each built on first use.

    The spectra (n, m), one sample per column, are "eta" (the samples), "sorted" (eta
    descending), "lam" = lambda_from_eta(eta), "tilde" = eta_from_lambda(lam) and "tilde10" =
    eta_from_lambda(10 lam).  Each has its sigma_0..sigma_c (c+1, m), deleted table (c, n, m)
    and f_grad (n, m) per operator; every sweep of the block's group reads them.  ``origin``,
    the stream index of the block's first sample, turns a ConeError's column into a sample index.
    """

    def __init__(self, block: np.ndarray, c: int, origin: int):
        self.c, self.origin = c, origin
        self._memo = {"eta": _columns(block)}

    def _cached(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def spectra(self, name: str) -> np.ndarray:
        build = {
            "sorted": lambda: -np.sort(-self.spectra("eta"), axis=0),
            "lam": lambda: _lambda_of_eta(self.spectra("eta")),
            "tilde": lambda: _eta_of_lambda(self.spectra("lam")),
            "tilde10": lambda: _eta_of_lambda(10.0 * self.spectra("lam")),
        }
        return self._cached(name, build.get(name))

    def sigmas(self, name: str) -> np.ndarray:
        return self._cached(("sigmas", name), lambda: _sigma_rows(self.spectra(name), self.c))

    def deleted(self, name: str) -> np.ndarray:
        """d[j, i] = sigma_j(x | i) of x = spectra(name), for j <= c - 1."""
        return self._cached(("deleted", name), lambda: _deleted_sigmas(self.spectra(name), self.c - 1))

    def f_grad(self, name: str, spec: OperatorSpec) -> np.ndarray:
        """f_grad at the lam whose transform is spectra(name)."""
        key = ("f_grad", name, spec)
        return self._cached(key, lambda: _lam_grad(_grad_from_sigmas(self.sigmas(name), self.deleted(name), spec)))


def _deleted_term_share_slack(t: _Tables, n, k, l):
    _check_in_gamma(t.sigmas("eta"), "deleted_term_share", t.origin)
    ratio = _share(t.deleted("sorted"), k)
    return ratio, t.spectra("eta"), int((ratio < -1e-12).sum()), {}


def _ellipticity_ratio_slack(t: _Tables, n, k, l):
    spec = OperatorSpec(n, k, l)
    _check_in_gamma(t.sigmas("tilde"), "operator gradient", t.origin)
    fg = t.f_grad("tilde", spec)
    fg_min = fg.min(axis=0)
    ratio = fg_min / fg.sum(axis=0)
    _check_in_gamma(t.sigmas("tilde10"), "operator gradient", t.origin)
    ratio10 = _min_share(t.f_grad("tilde10", spec))
    pos_bad = int((fg_min <= 0.0).sum())
    scale_bad = int((np.abs(ratio - ratio10) > 1e-12).sum())
    return ratio, t.spectra("lam"), pos_bad + scale_bad, {"positivity_violations": pos_bad, "scale_violations": scale_bad}


def _maclaurin_ratio_slack(t: _Tables, n, k, l):
    _check_in_gamma(t.sigmas("eta"), "maclaurin_ratio", t.origin)
    alpha = _alpha(t.deleted("eta"), k, l)
    slack = np.minimum(alpha, maclaurin_bound(n, k, l) - alpha).min(axis=0)
    return slack, t.spectra("eta"), int((slack < -1e-12).sum()), {"max_alpha": float(alpha.max())}


def _trace_bound_slack(t: _Tables, n, k, l):
    _check_in_gamma(t.sigmas("tilde"), "operator gradient", t.origin)
    slack = t.f_grad("tilde", OperatorSpec(n, k)).sum(axis=0) - trace_lower_bound(n, k)
    return slack, t.spectra("lam"), int((slack < -1e-10).sum()), {}


# family -> (slack evaluator on one block's _Tables, cone order - k, tolerance, bound(n, k, l) kept in extra)
_FAMILIES = {
    "deleted-term-share": (_deleted_term_share_slack, 0, 1e-12, None),
    "ellipticity-ratio": (_ellipticity_ratio_slack, 0, 1e-12, None),
    "ellipticity-ratio-quotient": (_ellipticity_ratio_slack, 1, 1e-12, None),
    "maclaurin-ratio": (_maclaurin_ratio_slack, 1, 1e-12, maclaurin_bound),
    "trace-bound": (_trace_bound_slack, 0, 1e-10, lambda n, k, l: trace_lower_bound(n, k)),
}


def run_plan(plan, *, samples, seed, scale=1.0) -> list[SweepReport]:
    """Run planned (family, n, k, l) sweeps; the reports come back in plan order.

    Sweeps that sample the same (n, cone order) stream form one group.  Each
    chunk of that stream is drawn once and walked in blocks of _SUB_BLOCK
    rows, and each block's result for every sweep of the group is folded into
    that sweep's report in stream order, so a report does not depend on the
    plan it ran in, on the chunk size or on the block size.  A ConeError
    names the sweep that failed first in plan order, not in run order.
    """
    if samples <= 0:
        raise ValueError("empty sweep: samples must be positive")
    reports: list[SweepReport] = []
    groups: dict[tuple[int, int], list[tuple[int, SweepReport]]] = {}
    for i, (family, n, k, l) in enumerate(plan):
        if family not in _FAMILIES:
            raise ValueError(f"unknown sweep family: {family}")
        _, order, tol, bound = _FAMILIES[family]
        extra = {"tolerance": tol} if bound is None else {"tolerance": tol, "bound": bound(n, k, l)}
        reports.append(SweepReport(family, n, k, l, samples, seed, scale, math.inf, None, 0, 0.0, extra))
        groups.setdefault((n, k + order), []).append((i, reports[i]))
    errors: dict[int, ConeError] = {}
    for (n, c), sweeps in groups.items():
        for start in range(0, samples, _CHUNK):
            # a call of its own, so that each chunk and its tables are freed before the next draw
            _fold_chunk((n, c, seed, scale, start, min(_CHUNK, samples - start)), sweeps, errors)
    if errors:
        i = min(errors)
        (family, n, k, l), exc = plan[i], errors[i]
        message = f"{family} n={n} k={k} l={l}: a sample left the cone: {exc}"
        raise ConeError(message, order=exc.order, value=exc.value, node=exc.node) from exc
    return reports


def _fold_chunk(draw, sweeps, errors) -> None:
    """Fold the chunk sample_block(*draw) into the (plan index, report) sweeps; a ConeError goes to errors[index]."""
    t0 = time.perf_counter()
    eta = sample_block(*draw)
    draw_share = (time.perf_counter() - t0) / len(sweeps)
    for a in range(0, eta.shape[0], _SUB_BLOCK):
        tables = _Tables(eta[a : a + _SUB_BLOCK], draw[1], draw[4] + a)
        for i, rep in sweeps:
            if i in errors:
                continue
            t0 = time.perf_counter()
            try:
                slack, spectra, viol, extra = _FAMILIES[rep.label][0](tables, rep.n, rep.k, rep.l)
            except ConeError as exc:
                errors[i] = exc
                continue
            # NaN and +inf pass every family's `slack < -tol` test; count them
            # here and rank every non-finite slack lowest, so argmin names it
            finite = np.isfinite(slack)
            if not finite.all():
                viol += int((np.isnan(slack) | (slack == np.inf)).sum())
                slack = np.where(finite, slack, -np.inf)
            j = int(np.argmin(slack))
            if slack[j] < rep.min_ratio:
                # floats, not a view: spectra[:, j] would keep the whole block alive
                rep.min_ratio, rep.argmin = float(slack[j]), spectra[:, j].tolist()
            rep.violations += viol
            for key, val in extra.items():
                if key.startswith("max_"):
                    rep.extra[key] = max(rep.extra.get(key, -math.inf), val)
                else:
                    rep.extra[key] = rep.extra.get(key, 0) + val
            rep.wall_time += time.perf_counter() - t0 + (draw_share if a == 0 else 0.0)


def sweep_deleted_term_share(n, k, samples, seed, scale=1.0) -> SweepReport:
    """Positivity sweep of deleted_term_share over order-k cone samples."""
    return run_sweep("deleted-term-share", n, k, None, samples=samples, seed=seed, scale=scale)


def sweep_ellipticity_ratio(n, k, l=None, *, samples, seed, scale=1.0) -> SweepReport:
    """Positivity and scale-invariance sweep of ellipticity_ratio.

    Samples are drawn in the order-k cone (pure) or order-(k+1) cone
    (quotient) and mapped back through the inverse transform.
    """
    family = "ellipticity-ratio" if l is None else "ellipticity-ratio-quotient"
    return run_sweep(family, n, k, l, samples=samples, seed=seed, scale=scale)


def sweep_maclaurin_ratio(n, k, l, *, samples, seed, scale=1.0) -> SweepReport:
    """Two-sided bound sweep of maclaurin_ratio over order-(k+1) cone samples; both ends are sharp.

    So min_ratio, the least of min(alpha, bound - alpha), has infimum 0 and measures how near the sampler came to them.
    """
    return run_sweep("maclaurin-ratio", n, k, l, samples=samples, seed=seed, scale=scale)


def sweep_trace_bound(n, k, *, samples, seed, scale=1.0) -> SweepReport:
    """Sweep of sum_i f_i against its explicit lower bound (pure operator)."""
    return run_sweep("trace-bound", n, k, None, samples=samples, seed=seed, scale=scale)


def default_sweep_plan(n_max: int):
    """All (family, n, k, l) combinations swept by the verification command.

    Every family runs over 2 <= n <= n_max and 1 <= k <= n-1; quotient
    families add 1 <= l < k.
    """
    plan = []
    for n in range(2, n_max + 1):
        for k in range(1, n):
            plan.append(("deleted-term-share", n, k, None))
            plan.append(("ellipticity-ratio", n, k, None))
            plan.append(("trace-bound", n, k, None))
            for l in range(1, k):
                plan.append(("ellipticity-ratio-quotient", n, k, l))
                plan.append(("maclaurin-ratio", n, k, l))
    return plan


def run_sweep(family: str, n: int, k: int, l: int | None, *, samples, seed, scale=1.0) -> SweepReport:
    """One planned sweep by family name, run as a one-item plan."""
    return run_plan([(family, n, k, l)], samples=samples, seed=seed, scale=scale)[0]
