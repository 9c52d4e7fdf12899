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

    ``order`` is the 1-based order i of the first sigma_i that is not
    strictly positive, ``value`` its value.  Solver-side failures also carry
    the offending grid ``node``.
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


def _sigma_rows(vt: np.ndarray, kmax: int, out: np.ndarray) -> np.ndarray:
    """sigma_0 .. sigma_kmax of each column of vt (n, m), written into the rows of out (kmax+1, m).

    The coefficient recurrence of expanding prod_i (t + v_i), one entry at a
    time on contiguous rows: O(n*kmax), numerically stable, and sigma_q does
    not depend on kmax.
    """
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
    vt = np.ascontiguousarray(vals.reshape(-1, n).T)
    out = _sigma_rows(vt, kmax, np.empty((kmax + 1, vt.shape[1])))
    return np.ascontiguousarray(out.T).reshape(vals.shape[:-1] + (kmax + 1,))


def _deleted_sigmas(vals: np.ndarray, jmax: int) -> np.ndarray:
    """d[..., i, j] = sigma_j(vals | i), entry i zeroed, for 0 <= j <= jmax.

    One recurrence over the n copies of each spectrum with one entry zeroed;
    each d[..., j] is a contiguous array shaped like vals.
    """
    n = vals.shape[-1]
    flat = vals.reshape(-1, n)
    z = np.repeat(flat.T[:, :, None], n, axis=2)  # z[j, r, i] = flat[r, j]
    z[np.arange(n), :, np.arange(n)] = 0.0
    out = _sigma_rows(z.reshape(n, -1), jmax, np.empty((jmax + 1, z[0].size)))
    return np.moveaxis(out.reshape((jmax + 1,) + vals.shape), 0, -1)


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
    tmp = vals.copy()
    tmp[..., i] = 0.0
    tmp[..., j] = 0.0
    return sigma_all(tmp, k)[..., k]


def sigma_grad(lam, k: int) -> np.ndarray:
    """Gradient of sigma_k: entry i is sigma_{k-1} with entry i zeroed."""
    vals = _as_values(lam)
    n = vals.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"order k={k} outside [1, {n}]")
    return _deleted_sigmas(vals, k - 1)[..., k - 1]


def in_gamma(lam, k: int):
    """True iff sigma_i > 0 strictly for all 1 <= i <= k (the open cone)."""
    vals = _as_values(lam)
    n = vals.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"cone index k={k} outside [1, {n}]")
    ok = np.all(sigma_all(vals, k)[..., 1:] > 0.0, axis=-1)
    return bool(ok) if vals.ndim == 1 else ok


def cone_margin(lam, k: int):
    """Signed cone margin min_{1<=i<=k} sigma_i; positive iff strictly inside."""
    vals = _as_values(lam)
    n = vals.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"cone index k={k} outside [1, {n}]")
    m = np.min(sigma_all(vals, k)[..., 1:], axis=-1)
    return float(m) if vals.ndim == 1 else m


def _require_in_gamma(vals: np.ndarray, k: int, what: str) -> np.ndarray:
    """Return sigma_0..sigma_k, raising ConeError on the first violation."""
    e = sigma_all(vals, k)
    _check_in_gamma(e, what)
    return e


def _check_in_gamma(e: np.ndarray, what: str) -> None:
    """Raise ConeError at the first sample of the table e = sigma_0..sigma_k with some sigma_i <= 0."""
    k = e.shape[-1] - 1
    bad = e[..., 1:] <= 0.0
    if bad.any():
        flat = bad.reshape(-1, k)
        sample = int(np.argmax(flat.any(axis=1)))
        order = int(np.argmax(flat[sample])) + 1
        value = float(e.reshape(-1, k + 1)[sample, order])
        raise ConeError(
            f"{what}: sigma_{order} = {value:.6g} <= 0, spectrum outside the "
            f"order-{k} cone",
            order=order,
            value=value,
        )


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
    e = _require_in_gamma(vals, k, "newton_maclaurin_gap")

    def ratio(a, b):
        num = e[..., a] / math.comb(n, a)
        den = e[..., b] / math.comb(n, b)
        return (num / den) ** (1.0 / (a - b))

    gap = ratio(r, s) - ratio(k, l)
    return float(gap) if vals.ndim == 1 else gap
