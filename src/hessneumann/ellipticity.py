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
chunking of the work, serial or threaded, reproduces the identical stream.
A draw is shifted into the cone before it is scaled, so the stream at any
scale is the scale-1 stream times the scale.

All sweeps on one (n, cone order) stream share its work: each chunk is drawn
once and walked in blocks, and per block the sigma tables, the deleted tables
and the operator gradients are built once and read by every sweep of the
group.  They are the floats the public functions below compute on the block.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .operator import OperatorSpec, _grad_from_sigmas, _lam_grad, eta_from_lambda, f_grad, lambda_from_eta
from .symfun import ConeError, _as_values, _check_in_gamma, _deleted_sigmas, _require_in_gamma, _sigma_rows, sigma_all
from .symfun import sigma_grad  # noqa: F401  (unused here; bench/tracing.py patches this binding)

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
# The largest scale the sweeps are run and tested at (100000 samples, n <= 6).
# Far beyond it the sigma_k of a sample leave the float64 range.
_MAX_SCALE = 1e6


def _require_scale(scale: float) -> None:
    if not 0.0 < scale <= _MAX_SCALE:
        raise ValueError(f"scale must lie in (0, {_MAX_SCALE:g}] (got {scale!r})")


def worker_count(workers: int | None = None) -> int:
    """Resolve the sweep parallelism: explicit arg, then HN_THREADS, then cores."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("HN_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _block_normals(seed: int, n: int, start: int, count: int) -> np.ndarray:
    """Standard-normal draws for samples [start, start+count), block-derived."""
    out = np.empty((count, n))
    pos = 0
    while pos < count:
        idx = start + pos
        block = idx // _BLOCK
        offset = idx % _BLOCK
        take = min(_BLOCK - offset, count - pos)
        g = np.random.default_rng((seed, block)).standard_normal((_BLOCK, n))
        out[pos : pos + take] = g[offset : offset + take]
        pos += take
    return out


def _shift_into_cone(g: np.ndarray, k: int) -> np.ndarray:
    """Smallest t >= 0 with all sigma_i(g + t*ones) > 1e-6, per row of the unscaled draw g.

    Bisection to absolute tolerance 1e-10 on the predicate-true endpoint, or
    until float64 cannot halve the bracket any more; each row's trajectory is
    independent of the batch it is evaluated in.  The predicate runs the sigma
    recurrence on g transposed once, through buffers reused by every call.
    """
    gt = np.ascontiguousarray(g.T)
    shifted = np.empty_like(gt)
    e = np.empty((k + 1, g.shape[0]))

    def pred(t):
        _sigma_rows(np.add(gt, t, out=shifted), k, e)
        ok = e[1] > _MARGIN
        for q in range(2, k + 1):
            ok &= e[q] > _MARGIN
        return ok

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
    _require_in_gamma(vals, k, "deleted_term_share")
    out = _share(_deleted_sigmas(-np.sort(-vals, axis=-1), k - 1), k)
    return float(out) if vals.ndim == 1 else out


def _share(d: np.ndarray, k: int) -> np.ndarray:
    """deleted_term_share from the deleted table d of the descending spectrum."""
    table = d[..., k - 1]
    return table[..., k - 1] / table.sum(axis=-1)


def ellipticity_ratio(lam, spec: OperatorSpec):
    """min_i f_i / sum_i f_i for the operator's gradient; in (0, 1/n], scale-free."""
    out = _min_share(f_grad(lam, spec))
    return float(out) if np.asarray(lam).ndim == 1 else out


def _min_share(fg: np.ndarray) -> np.ndarray:
    return fg.min(axis=-1) / fg.sum(axis=-1)


def maclaurin_bound(n: int, k: int, l: int) -> float:
    """Upper bound l(n-k)/(k(n-l)) for the deleted sigma-ratio product."""
    return l * (n - k) / (k * (n - l))


def maclaurin_ratio(eta, k: int, l: int, p: int | None = None):
    """Deleted-index ratio product [sigma_k/sigma_{k-1}] * [sigma_{l-1}/sigma_l].

    All four polynomials are evaluated with entry ``p`` zeroed; ``p=None``
    returns the value for every deleted index along a new last axis.  Requires
    the spectrum in the order-(k+1) cone, which keeps every denominator
    positive.  Lies in (0, maclaurin_bound(n, k, l)], the bound attained
    exactly at uniform spectra.
    """
    vals = _as_values(eta)
    n = vals.shape[-1]
    if not 1 <= l < k <= n - 1:
        raise ValueError(f"need 1 <= l < k <= n-1, got (k, l) = ({k}, {l})")
    _require_in_gamma(vals, k + 1, "maclaurin_ratio")
    alpha = _alpha(_deleted_sigmas(vals, k), k, l)
    if p is None:
        return alpha
    if not 0 <= p < n:
        raise ValueError(f"index p={p} outside [0, {n})")
    out = alpha[..., p]
    return float(out) if vals.ndim == 1 else out


def _alpha(d: np.ndarray, k: int, l: int) -> np.ndarray:
    """maclaurin_ratio at every deleted index p from the deleted table d[..., p, j] = sigma_j(eta | p)."""
    return (d[..., k] / d[..., k - 1]) * (d[..., l - 1] / d[..., l])


def trace_lower_bound(n: int, k: int) -> float:
    """Lower bound for sum_i f_i of the pure operator, attained at uniform spectra."""
    return (n - 1) / k * (n - k + 1) * math.comb(n, k - 1) / math.comb(n, k) ** ((k - 1) / k)


def trace_check(lam, spec: OperatorSpec):
    """Whether sum_i f_i >= trace_lower_bound(n, k) - 1e-10 (pure operator only)."""
    if spec.l is not None:
        raise ValueError("the trace lower bound is stated for the pure operator only")
    total = f_grad(lam, spec).sum(axis=-1)
    ok = total >= trace_lower_bound(spec.n, spec.k) - 1e-10
    return bool(ok) if np.asarray(lam).ndim == 1 else ok


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

_CHUNK = 20000
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
    """Spectra and sigma tables of one block of stream samples, each built on first use.

    The spectra are "eta" (the samples), "sorted" (eta descending), "lam" =
    lambda_from_eta(eta), "tilde" = eta_from_lambda(lam) and "tilde10" =
    eta_from_lambda(10 lam).  Each has its sigma_0..sigma_c, its deleted table
    and its f_grad per operator; every sweep of the block's group reads them.
    """

    def __init__(self, eta: np.ndarray, c: int):
        self.c = c
        self._memo = {"eta": eta}

    def _cached(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def spectra(self, name: str) -> np.ndarray:
        build = {
            "sorted": lambda: -np.sort(-self.spectra("eta"), axis=-1),
            "lam": lambda: lambda_from_eta(self.spectra("eta")),
            "tilde": lambda: eta_from_lambda(self.spectra("lam")),
            "tilde10": lambda: eta_from_lambda(10.0 * self.spectra("lam")),
        }
        return self._cached(name, build.get(name))

    def sigmas(self, name: str) -> np.ndarray:
        return self._cached(("sigmas", name), lambda: sigma_all(self.spectra(name), self.c))

    def require(self, name: str, what: str) -> None:
        """Raise what _require_in_gamma(spectra(name), c, what) would raise, if anything."""
        _check_in_gamma(self.sigmas(name), what)

    def deleted(self, name: str) -> np.ndarray:
        """d[..., i, j] = sigma_j(x | i) of x = spectra(name), for j <= c - 1."""
        return self._cached(("deleted", name), lambda: _deleted_sigmas(self.spectra(name), self.c - 1))

    def f_grad(self, name: str, spec: OperatorSpec) -> np.ndarray:
        """f_grad at the lam whose transform is spectra(name)."""

        def build():
            return _lam_grad(_grad_from_sigmas(self.sigmas(name), self.deleted(name), spec))

        return self._cached(("f_grad", name, spec), build)


def _deleted_term_share_slack(t: _Tables, n, k, l):
    t.require("eta", "deleted_term_share")
    ratio = _share(t.deleted("sorted"), k)
    return ratio, t.spectra("eta"), int((ratio < -1e-12).sum()), {}


def _ellipticity_ratio_slack(t: _Tables, n, k, l):
    spec = OperatorSpec(n, k, l)
    t.require("tilde", "operator gradient")
    fg = t.f_grad("tilde", spec)
    fg_min = fg.min(axis=-1)
    ratio = fg_min / fg.sum(axis=-1)
    t.require("tilde10", "operator gradient")
    ratio10 = _min_share(t.f_grad("tilde10", spec))
    pos_bad = int((fg_min <= 0.0).sum())
    scale_bad = int((np.abs(ratio - ratio10) > 1e-12).sum())
    return ratio, t.spectra("lam"), pos_bad + scale_bad, {"positivity_violations": pos_bad, "scale_violations": scale_bad}


def _maclaurin_ratio_slack(t: _Tables, n, k, l):
    t.require("eta", "maclaurin_ratio")
    alpha = _alpha(t.deleted("eta"), k, l)
    slack = np.minimum(alpha, maclaurin_bound(n, k, l) - alpha).min(axis=-1)
    return slack, t.spectra("eta"), int((slack < -1e-12).sum()), {"max_alpha": float(alpha.max())}


def _trace_bound_slack(t: _Tables, n, k, l):
    t.require("tilde", "operator gradient")
    slack = t.f_grad("tilde", OperatorSpec(n, k)).sum(axis=-1) - trace_lower_bound(n, k)
    return slack, t.spectra("lam"), int((slack < -1e-10).sum()), {}


# family -> (slack evaluator on one block's _Tables, cone order - k, tolerance, bound(n, k, l) kept in extra)
_FAMILIES = {
    "deleted-term-share": (_deleted_term_share_slack, 0, 1e-12, None),
    "ellipticity-ratio": (_ellipticity_ratio_slack, 0, 1e-12, None),
    "ellipticity-ratio-quotient": (_ellipticity_ratio_slack, 1, 1e-12, None),
    "maclaurin-ratio": (_maclaurin_ratio_slack, 1, 1e-12, maclaurin_bound),
    "trace-bound": (_trace_bound_slack, 0, 1e-10, lambda n, k, l: trace_lower_bound(n, k)),
}


def run_plan(plan, *, samples, seed, scale=1.0, workers=None) -> list[SweepReport]:
    """Run planned (family, n, k, l) sweeps; the reports come back in plan order.

    Sweeps that sample the same (n, cone order) stream form one group.  Each
    chunk of that stream is drawn once, by one task that walks it in blocks of
    _SUB_BLOCK rows and evaluates every sweep of the group on each block's
    shared tables; all tasks share one thread pool.  Each sweep's block results
    are then reduced in stream order, so a report does not depend on the plan
    it ran in, on the worker count or on the block size.
    """
    if samples <= 0:
        raise ValueError("empty sweep: samples must be positive")
    if not plan:
        return []
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (family, n, k, l) in enumerate(plan):
        if family not in _FAMILIES:
            raise ValueError(f"unknown sweep family: {family}")
        groups.setdefault((n, k + _FAMILIES[family][1]), []).append(i)
    ranges = [(s, min(_CHUNK, samples - s)) for s in range(0, samples, _CHUNK)]
    tasks = [(key, members, start, count) for key, members in groups.items() for start, count in ranges]

    def task(key, members, start, count):
        t0 = time.perf_counter()
        eta = sample_block(key[0], key[1], seed, scale, start, count)
        draw_share = (time.perf_counter() - t0) / len(members)
        out = [[] for _ in members]
        for a in range(0, count, _SUB_BLOCK):
            tables = _Tables(eta[a : a + _SUB_BLOCK], key[1])
            for i, results in zip(members, out):
                if results and isinstance(results[-1], ConeError):
                    continue
                family, n, k, l = plan[i]
                t0 = time.perf_counter()
                try:
                    slack, rows, viol, extra = _FAMILIES[family][0](tables, n, k, l)
                except ConeError as exc:
                    results.append(exc)
                    continue
                # NaN and +inf pass every family's `slack < -tol` test; count them
                # here and rank every non-finite slack lowest, so argmin names it
                finite = np.isfinite(slack)
                if not finite.all():
                    viol += int((np.isnan(slack) | (slack == np.inf)).sum())
                    slack = np.where(finite, slack, -np.inf)
                j = int(np.argmin(slack))
                # floats, not a view: rows[j] would keep the whole chunk alive
                dt = time.perf_counter() - t0 + (draw_share if a == 0 else 0.0)
                results.append((float(slack[j]), [float(x) for x in rows[j]], viol, extra, dt))
        return out

    with ThreadPoolExecutor(max_workers=min(worker_count(workers), len(tasks))) as ex:
        done = list(ex.map(lambda t: task(*t), tasks))
    blocks: list[list] = [[] for _ in plan]
    for (_, members, _, _), results in zip(tasks, done):
        for i, member_results in zip(members, results):
            blocks[i].extend(member_results)
    return [_reduce(entry, results, samples, seed, scale) for entry, results in zip(plan, blocks)]


def _reduce(entry, results, samples, seed, scale) -> SweepReport:
    """One sweep's report from its block results, taken in stream order."""
    family, n, k, l = entry
    _, _, tol, bound = _FAMILIES[family]
    min_ratio, argmin, violations, wall_time, extra = math.inf, None, 0, 0.0, {}
    for result in results:
        if isinstance(result, ConeError):
            message = f"{family} n={n} k={k} l={l}: a sample left the cone: {result}"
            raise ConeError(message, order=result.order, value=result.value) from result
        slack, arg, viol, ex_chunk, dt = result
        violations += viol
        wall_time += dt
        if slack < min_ratio:
            min_ratio, argmin = slack, arg
        for key, val in ex_chunk.items():
            if key.startswith("max_"):
                extra[key] = max(extra.get(key, -math.inf), val)
            elif key.startswith("min_"):
                extra[key] = min(extra.get(key, math.inf), val)
            else:
                extra[key] = extra.get(key, 0) + val
    extra["tolerance"] = tol
    if bound is not None:
        extra["bound"] = bound(n, k, l)
    return SweepReport(family, n, k, l, samples, seed, scale, float(min_ratio), argmin, violations, wall_time, extra)


def sweep_deleted_term_share(n, k, samples, seed, scale=1.0, workers=None) -> SweepReport:
    """Positivity sweep of deleted_term_share over order-k cone samples."""
    return run_sweep("deleted-term-share", n, k, None, samples=samples, seed=seed, scale=scale, workers=workers)


def sweep_ellipticity_ratio(n, k, l=None, *, samples, seed, scale=1.0, workers=None) -> SweepReport:
    """Positivity and scale-invariance sweep of ellipticity_ratio.

    Samples are drawn in the order-k cone (pure) or order-(k+1) cone
    (quotient) and mapped back through the inverse transform.
    """
    family = "ellipticity-ratio" if l is None else "ellipticity-ratio-quotient"
    return run_sweep(family, n, k, l, samples=samples, seed=seed, scale=scale, workers=workers)


def sweep_maclaurin_ratio(n, k, l, *, samples, seed, scale=1.0, workers=None) -> SweepReport:
    """Two-sided bound sweep of maclaurin_ratio over order-(k+1) cone samples."""
    return run_sweep("maclaurin-ratio", n, k, l, samples=samples, seed=seed, scale=scale, workers=workers)


def sweep_trace_bound(n, k, *, samples, seed, scale=1.0, workers=None) -> SweepReport:
    """Sweep of sum_i f_i against its explicit lower bound (pure operator)."""
    return run_sweep("trace-bound", n, k, None, samples=samples, seed=seed, scale=scale, workers=workers)


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


def run_sweep(family: str, n: int, k: int, l: int | None, *, samples, seed, scale=1.0, workers=None) -> SweepReport:
    """One planned sweep by family name, run as a one-item plan."""
    return run_plan([(family, n, k, l)], samples=samples, seed=seed, scale=scale, workers=workers)[0]
