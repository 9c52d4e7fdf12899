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
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .operator import OperatorSpec, f_grad, lambda_from_eta
from .symfun import ConeError, _as_values, _require_in_gamma, sigma_all, sigma_grad

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
# The shift t grows like scale / 10 at k = 6.  From a scale of a few million
# on, float64 cannot resolve the bisection's absolute tolerance at t, so larger
# scales are refused.  1e6 runs clean with 100000 samples at n <= 6.
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


def _shift_into_cone(g: np.ndarray, k: int, scale: float) -> np.ndarray:
    """Smallest t >= 0 with all sigma_i(g + t*ones) > 1e-6 * scale**i, per row.

    Bisection to absolute tolerance 1e-10 on the predicate-true endpoint, or
    until float64 cannot halve the bracket any more; each row's trajectory is
    independent of the batch it is evaluated in.
    """
    n = g.shape[-1]
    delta = 1e-6 * scale ** np.arange(1, k + 1)

    def pred(t):
        return np.all(sigma_all(g + t[:, None], k)[..., 1:] > delta, axis=-1)

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
    t = _shift_into_cone(g, k, scale)
    return scale * (g + t[:, None])


@dataclass
class ConeSampler:
    """Deterministic stream of spectra strictly inside the order-k cone.

    A standard-normal draw is shifted along the diagonal ray by the smallest
    nonnegative amount that clears a small sigma margin, then scaled.  Raw
    draws already inside the cone are kept as they are, so the stream covers
    both near-boundary and deep-interior points.
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
    s = -np.sort(-vals, axis=-1)
    table = sigma_grad(s, k)
    out = table[..., k - 1] / table.sum(axis=-1)
    return float(out) if vals.ndim == 1 else out


def ellipticity_ratio(lam, spec: OperatorSpec):
    """min_i f_i / sum_i f_i for the operator's gradient; in (0, 1/n], scale-free."""
    fg = f_grad(lam, spec)
    out = fg.min(axis=-1) / fg.sum(axis=-1)
    return float(out) if np.asarray(lam).ndim == 1 else out


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
    tk = sigma_grad(vals, k + 1)  # sigma_k  (eta | p)
    tk1 = sigma_grad(vals, k)  # sigma_{k-1}(eta | p)
    tl0 = sigma_grad(vals, l)  # sigma_{l-1}(eta | p)
    tl = sigma_grad(vals, l + 1)  # sigma_l  (eta | p)
    alpha = (tk / tk1) * (tl0 / tl)
    if p is None:
        return alpha
    if not 0 <= p < n:
        raise ValueError(f"index p={p} outside [0, {n})")
    out = alpha[..., p]
    return float(out) if vals.ndim == 1 else out


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


@dataclass
class SweepReport:
    """Outcome of one randomized sweep of an asserted inequality.

    ``min_ratio`` is the smallest signed slack of the inequality seen over the
    sweep and ``argmin`` the sample attaining it; ``violations`` counts samples
    whose slack falls below -tolerance (1e-12, except 1e-10 for the trace
    bound).  ``wall_time`` is the sweep's own evaluation time plus an equal
    share of the draws of the stream it shares with other sweeps of its plan;
    it is informational and excluded from determinism guarantees and the CSV row.
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


def _deleted_term_share_slack(eta, n, k, l):
    ratio = deleted_term_share(eta, k)
    return ratio, eta, int((ratio < -1e-12).sum()), {}


def _ellipticity_ratio_slack(eta, n, k, l):
    spec = OperatorSpec(n, k, l)
    lam = lambda_from_eta(eta)
    fg = f_grad(lam, spec)
    ratio = fg.min(axis=-1) / fg.sum(axis=-1)
    ratio10 = ellipticity_ratio(10.0 * lam, spec)
    pos_bad = int((fg.min(axis=-1) <= 0.0).sum())
    scale_bad = int((np.abs(ratio - ratio10) > 1e-12).sum())
    return ratio, lam, pos_bad + scale_bad, {"positivity_violations": pos_bad, "scale_violations": scale_bad}


def _maclaurin_ratio_slack(eta, n, k, l):
    alpha = maclaurin_ratio(eta, k, l)
    slack = np.minimum(alpha, maclaurin_bound(n, k, l) - alpha).min(axis=-1)
    return slack, eta, int((slack < -1e-12).sum()), {"max_alpha": float(alpha.max())}


def _trace_bound_slack(eta, n, k, l):
    lam = lambda_from_eta(eta)
    slack = f_grad(lam, OperatorSpec(n, k)).sum(axis=-1) - trace_lower_bound(n, k)
    return slack, lam, int((slack < -1e-10).sum()), {}


# family -> (slack evaluator on one chunk of eta, cone order - k, tolerance, bound(n, k, l) kept in extra)
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
    chunk of that stream is drawn once, by one task that evaluates every sweep
    of the group on it; all tasks share one thread pool.  Each sweep's chunk
    results are then reduced in chunk order, so a report does not depend on
    the plan it ran in or on the worker count.
    """
    if samples <= 0:
        raise ValueError("empty sweep: samples must be positive")
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
        out = []
        for i in members:
            family, n, k, l = plan[i]
            t0 = time.perf_counter()
            try:
                slack, rows, viol, extra = _FAMILIES[family][0](eta, n, k, l)
            except ConeError as exc:
                out.append(exc)
                continue
            j = int(np.argmin(slack))
            # floats, not a view: rows[j] would keep the whole chunk alive
            dt = draw_share + time.perf_counter() - t0
            out.append((float(slack[j]), [float(x) for x in rows[j]], viol, extra, dt))
        return out

    with ThreadPoolExecutor(max_workers=min(worker_count(workers), len(tasks))) as ex:
        done = list(ex.map(lambda t: task(*t), tasks))
    chunks: list[list] = [[] for _ in plan]
    for (_, members, _, _), results in zip(tasks, done):
        for i, result in zip(members, results):
            chunks[i].append(result)
    return [_reduce(entry, results, samples, seed, scale) for entry, results in zip(plan, chunks)]


def _reduce(entry, results, samples, seed, scale) -> SweepReport:
    """One sweep's report from its chunk results, taken in chunk order."""
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
