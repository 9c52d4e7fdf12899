"""Elementary symmetric polynomials, deleted variants, and Garding-cone predicates.

Every operation is a pure function of its arguments.  A spectrum is a 1-D
array of at least two finite eigenvalues; all functions also accept a batch
of spectra with the spectrum on the last axis and broadcast over the leading
axes.  Indices into a spectrum are 0-based.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ConeError",
    "sigma",
    "sigma_all",
    "sigma_excl",
    "sigma_excl2",
    "sigma_grad",
    "in_gamma",
    "cone_margin",
    "newton_maclaurin_gap",
]


class ConeError(ValueError):
    """Required Garding-cone membership does not hold.

    ``order`` is the 1-based order i of the sigma_i that attains the least
    cone margin, ``value`` that margin and ``node`` its position: a grid
    node, or a sample's index in its stream.
    """

    def __init__(self, message, *, order=None, value=None, node=None):
        super().__init__(message)
        self.order = order
        self.value = value
        self.node = node


def _as_values(lam) -> np.ndarray:
    arr = np.asarray(lam, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] < 2:
        raise ValueError("a spectrum needs at least 2 entries")
    if not np.isfinite(arr).all():
        raise ValueError("spectrum entries must be finite")
    return arr


def _columns(vals: np.ndarray) -> np.ndarray:
    """The spectra vals (..., n) as the contiguous columns of a table (n, m), m the batch size."""
    return np.ascontiguousarray(vals.reshape(-1, vals.shape[-1]).T)


def _by_columns(kernel, vals: np.ndarray, *args):
    """kernel(_columns(vals), *args) on vals' batch axes: a table (q, m) as (..., q), a row (m,) as (...) or scalar."""
    out = kernel(_columns(vals), *args)
    if out.ndim == 2:
        return np.ascontiguousarray(out.T).reshape(vals.shape[:-1] + out.shape[:1])
    return out.item() if vals.ndim == 1 else out.reshape(vals.shape[:-1])


def _sigma_rows(vt: np.ndarray, kmax: int, out: np.ndarray | None = None) -> np.ndarray:
    """sigma_0 .. sigma_kmax of each column of vt (n, m), written into the rows of out (kmax+1, m) or a new table.

    The coefficient recurrence of expanding prod_i (t + v_i), one entry at a
    time on contiguous rows: O(n*kmax), numerically stable, and sigma_q does
    not depend on kmax.
    """
    if out is None:
        out = np.empty((kmax + 1, vt.shape[1]))
    out[0] = 1.0
    out[1:] = 0.0
    tmp = np.empty(vt.shape[1])
    for j in range(vt.shape[0]):
        v = vt[j]
        for q in range(min(j + 1, kmax), 1, -1):
            np.multiply(v, out[q - 1], out=tmp)
            np.add(out[q], tmp, out=out[q])
        if kmax:
            np.add(out[1], v, out=out[1])  # v * sigma_0 is v exactly
    return out


def sigma_all(lam, kmax: int) -> np.ndarray:
    """All of sigma_0 .. sigma_kmax, stacked along a new last axis.

    Uses the coefficient recurrence of expanding prod_i (t + lam_i), which is
    O(n*kmax) and numerically stable, rather than subset enumeration.
    """
    vals = _as_values(lam)
    n = vals.shape[-1]
    if not 0 <= kmax <= n:
        raise ValueError(f"order kmax={kmax} outside [0, {n}]")
    return _by_columns(_sigma_rows, vals, kmax)


def _deleted_sigmas(vt: np.ndarray, jmax: int) -> np.ndarray:
    """d[j, i, r] = sigma_j(column r of vt with entry i zeroed), shape (jmax+1, n, m), from vt (n, m).

    One recurrence over the n copies of each column with one entry zeroed;
    each d[j] is a contiguous (n, m) table.
    """
    n = vt.shape[0]
    z = np.repeat(vt[:, None, :], n, axis=1)  # z[j, i, r] = vt[j, r]
    z[np.arange(n), np.arange(n)] = 0.0
    return _sigma_rows(z.reshape(n, -1), jmax).reshape((jmax + 1,) + vt.shape)


def sigma(lam, k: int):
    """k-th elementary symmetric polynomial of the spectrum; sigma_0 = 1.

    The entries are sorted before the recurrence, so every permutation of a
    spectrum gives the same float.  sigma_all and the deleted variants run the
    recurrence in the given order and may differ from it in the last bits.
    """
    return sigma_all(np.sort(_as_values(lam), axis=-1), k)[..., k]


def sigma_excl(lam, k: int, i: int):
    """sigma_k with entry ``i`` zeroed out (the deleted polynomial)."""
    vals = _as_values(lam)
    n = vals.shape[-1]
    if not 0 <= i < n:
        raise ValueError(f"index i={i} outside [0, {n})")
    tmp = vals.copy()
    tmp[..., i] = 0.0
    return sigma_all(tmp, k)[..., k]


def sigma_excl2(lam, k: int, i: int, j: int):
    """sigma_k with entries ``i`` and ``j`` zeroed out."""
    vals = _as_values(lam)
    n = vals.shape[-1]
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"indices ({i}, {j}) outside [0, {n})")
    if i == j:
        raise ValueError("the two deleted indices must differ")
    return sigma_excl(np.where(np.arange(n) == j, 0.0, vals), k, i)


def sigma_grad(lam, k: int) -> np.ndarray:
    """Gradient of sigma_k: entry i is sigma_{k-1} with entry i zeroed."""
    vals = _as_values(lam)
    n = vals.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"order k={k} outside [1, {n}]")
    return _by_columns(lambda vt: _deleted_sigmas(vt, k - 1)[k - 1], vals)


def in_gamma(lam, k: int):
    """True iff sigma_i > 0 strictly for all 1 <= i <= k (the open cone)."""
    return cone_margin(lam, k) > 0.0


def cone_margin(lam, k: int):
    """Signed cone margin min_{1<=i<=k} sigma_i; positive iff strictly inside."""
    vals = _as_values(lam)
    n = vals.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"cone index k={k} outside [1, {n}]")
    return _by_columns(lambda vt: _sigma_rows(vt, k)[1:].min(axis=0), vals)


def _require_in_gamma(vt: np.ndarray, k: int, what: str) -> np.ndarray:
    """Return the table sigma_0..sigma_k (k+1, m) of the columns vt (n, m), checked by _check_in_gamma."""
    e = _sigma_rows(vt, k)
    _check_in_gamma(e, what)
    return e


def _check_in_gamma(e: np.ndarray, what: str, origin: int = 0) -> float:
    """Least cone margin min_{i >= 1} sigma_i of a table e = sigma_0..sigma_c (c+1, ...) of any batch shape.

    Unless it is positive (NaN is not), raises ConeError at the worst position, plus ``origin`` on every axis.
    """
    margins = e[1:].min(axis=0)
    flat = int(np.argmin(margins))  # the first NaN, if any
    worst = float(margins.reshape(-1)[flat])
    if not worst > 0.0:
        pos = np.unravel_index(flat, margins.shape)
        order = int(np.argmin(e[(slice(1, None), *pos)])) + 1
        node = tuple(int(i) + origin for i in pos)
        message = f"{what}: sigma_{order} = {worst:.6g} at node {node}, outside the order-{e.shape[0] - 1} cone"
        raise ConeError(message, order=order, value=worst, node=node)
    return worst


_NEWTON_RTOL, _NEWTON_ITER = 1e-12, 40  # _largest_root stops at a step <= _NEWTON_RTOL * (1 + |t|), or after 40


def _largest_root(coef: np.ndarray, lead) -> tuple[np.ndarray, np.ndarray]:
    """(t, converged): largest real root of lead*t^d + coef[0]*t^(d-1) + ... + coef[d-1] per column of coef (d, m).

    lead > 0 is a scalar or one per column.  The polynomial is real-rooted,
    or a real-rooted one minus a positive constant: convex and increasing
    right of the real-rooted one's largest root, so Newton from there descends
    monotonically and bounds the root from above up to rounding: near an r-fold
    root it may end about eps^(1/r) on either side.  It starts at
    the Laguerre-Samuelson bound mean + sqrt(d-1)*sd of d real roots (Laguerre
    1880; Samuelson 1968) plus 1e-3, read from the top three coefficients: the
    real-rooted one's for d >= 3, while for d <= 2 the polynomial is real-rooted.
    converged is whether Newton's last step was at most _NEWTON_RTOL * (1 + |t|).
    """
    d, m = coef.shape
    mean, var = _root_moments(coef, lead)
    t = mean + math.sqrt(d - 1) * np.sqrt(np.maximum(var, 0.0, out=var), out=var) + 1e-3
    p, dp = np.empty(m), np.empty(m)
    with np.errstate(all="ignore"):  # a column whose step is not finite never converges
        for _ in range(_NEWTON_ITER):
            np.multiply(t, lead, out=p)
            p += coef[0]
            dp[...] = lead
            for j in range(1, d):
                dp *= t
                dp += p
                p *= t
                p += coef[j]
            step = np.divide(p, dp, out=p)
            t -= step
            np.abs(t, out=dp)
            dp += 1.0
            dp *= _NEWTON_RTOL
            ok = np.abs(step, out=step) <= dp
            if ok.all():
                break
    return t, ok


def _root_moments(coef: np.ndarray, lead):
    """(mean, variance) of the d roots of lead*t^d + coef[0]*t^(d-1) + coef[1]*t^(d-2) + ..., by Vieta."""
    d = coef.shape[0]
    mean = coef[0] / (-d * lead)
    return mean, (coef[0] / lead) ** 2 / d - 2.0 * (coef[1] if d > 1 else 0.0) / (d * lead) - mean * mean


def newton_maclaurin_gap(lam, k: int, l: int, r: int, s: int):
    """Slack of the generalized Newton-MacLaurin inequality.

    Returns the normalized (r, s) ratio minus the normalized (k, l) ratio,
    each ratio being ((sigma_a / C(n,a)) / (sigma_b / C(n,b)))**(1/(a-b)).
    Nonnegative on the order-k cone, exactly zero at uniform spectra.
    """
    vals = _as_values(lam)
    n = vals.shape[-1]
    if not (n >= k > l >= 0 and n >= r > s >= 0 and k >= r and l >= s):
        raise ValueError(f"invalid index quadruple (k,l,r,s)=({k},{l},{r},{s}) for n={n}")
    e = _by_columns(_require_in_gamma, vals, k, "newton_maclaurin_gap")

    def ratio(a, b):
        num = e[..., a] / math.comb(n, a)
        den = e[..., b] / math.comb(n, b)
        return (num / den) ** (1.0 / (a - b))

    gap = ratio(r, s) - ratio(k, l)
    return float(gap) if vals.ndim == 1 else gap
