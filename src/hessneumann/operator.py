"""The eta-transform and the normalized transformed-Hessian operators.

The equation's unknown matrix r (a pointwise real symmetric Hessian) enters
through eta(r) = trace(r) I - r.  With eta the eigenvalues of that transform,
the normalized operator is

    pure:      f(lam) = sigma_k(eta) ** (1/k)
    quotient:  f(lam) = (sigma_k(eta) / sigma_l(eta)) ** (1/(k-l))

both positively homogeneous of degree one.  Admissibility means eta lies in
the open cone of order k (pure) or k+1 (quotient).  Functions accept a single
spectrum/matrix or a batch on the leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symfun import _as_values, _by_columns, _check_in_gamma, _deleted_sigmas, _require_in_gamma
from .symfun import sigma_all, sigma_grad  # noqa: F401  (unused here; bench/tracing.py patches these bindings)

__all__ = [
    "OperatorSpec",
    "eta_from_lambda",
    "lambda_from_eta",
    "eta_matrix",
    "newton_tensors",
    "f_value",
    "f_grad",
    "f_grad_matrix",
    "admissible",
    "value_at_eta",
    "grad_at_eta",
]

_SYM_RTOL = 1e-12


@dataclass(frozen=True)
class OperatorSpec:
    """Operator selection: dimension n, order k, optional quotient order l.

    ``l`` absent (or 0) selects the pure operator; 1 <= l < k <= n-1 selects
    the quotient.  ``cone_order`` is the admissibility cone: k for pure, k+1
    for the quotient.
    """

    n: int
    k: int
    l: int | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not 1 <= self.k <= self.n - 1:
            raise ValueError(f"k={self.k} outside [1, {self.n - 1}]")
        if self.l == 0:
            object.__setattr__(self, "l", None)
        if self.l is not None and not 1 <= self.l < self.k:
            raise ValueError(f"l={self.l} outside [1, {self.k - 1}]")

    @property
    def cone_order(self) -> int:
        return self.k if self.l is None else self.k + 1

    @property
    def degree(self) -> int:
        """Denominator of the normalizing exponent: k (pure) or k-l (quotient)."""
        return self.k if self.l is None else self.k - self.l


def eta_from_lambda(lam) -> np.ndarray:
    """eta_i = sum_j lam_j - lam_i.  Reverses the ordering of the entries."""
    return _by_columns(_eta_of_lambda, _as_values(lam))


def lambda_from_eta(eta) -> np.ndarray:
    """Inverse transform lam_i = (sum_j eta_j) / (n-1) - eta_i."""
    return _by_columns(_lambda_of_eta, _as_values(eta))


def _eta_of_lambda(lt: np.ndarray) -> np.ndarray:
    """eta_from_lambda on the columns lt (n, m) of a spectrum table."""
    return lt.sum(axis=0) - lt


def _lambda_of_eta(et: np.ndarray) -> np.ndarray:
    """lambda_from_eta on the columns et (n, m) of a spectrum table."""
    return et.sum(axis=0) / (et.shape[0] - 1) - et


def _as_sym_matrix(r) -> np.ndarray:
    arr = np.asarray(r, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] < 2:
        raise ValueError("expected one or more square matrices of size >= 2")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    asym = np.abs(arr - np.swapaxes(arr, -1, -2)).max()
    if asym > _SYM_RTOL * max(1.0, np.abs(arr).max()):
        raise ValueError(f"matrix is asymmetric beyond tolerance (|r - r^T| = {asym:.3g})")
    return arr


def eta_matrix(r) -> np.ndarray:
    """Matrix form of the transform: trace(r) I - r."""
    return _eta(_as_sym_matrix(r))


def _eta(r: np.ndarray) -> np.ndarray:
    """eta_matrix on the trailing (n, n) axes of an array, unchecked."""
    tr = np.trace(r, axis1=-2, axis2=-1)
    return tr[..., None, None] * np.eye(r.shape[-1]) - r


def newton_tensors(s, c: int):
    """(sigma_0..sigma_c of s's eigenvalues on a leading axis, shape (c+1, ...), [T_0 .. T_{c-1}]) without eigenvalues.

    The Faddeev-LeVerrier recurrence T_0 = I, sigma_i = trace(s T_{i-1}) / i,
    T_i = sigma_i I - s T_{i-1} on symmetric s; T_{i-1} = d sigma_i / d s is
    the Newton tensor (Reilly 1973).  sigma_c costs max(0, c - 2) matrix products.
    """
    s = np.asarray(s, dtype=float)
    eye = np.eye(s.shape[-1])
    e = np.ones((c + 1,) + s.shape[:-2])
    tensors = [eye]
    for i in range(1, c + 1):
        e[i] = np.einsum("...ij,...ji->...", s, tensors[-1]) / i
        if i < c:
            tensors.append(e[i, ..., None, None] * eye - (s if i == 1 else s @ tensors[-1]))
    return e, tensors


def _grad_from_tensors(e: np.ndarray, tensors: list, spec: OperatorSpec) -> np.ndarray:
    """dF/dr = _eta(a) from eta(r)'s newton_tensors, a = df/d eta with d sigma_j = T_{j-1}."""
    a = _grad_from_sigmas(e[..., None, None], tensors, spec)
    return _eta(a)  # the transform is its own adjoint in the Frobenius pairing


def value_at_eta(eta, spec: OperatorSpec):
    """Normalized operator value from the transformed eigenvalues eta."""
    return _by_columns(
        lambda et: _value_from_sigmas(_require_in_gamma(et, spec.cone_order, "operator value"), spec), _as_values(eta)
    )


def _raw_value(e: np.ndarray, spec: OperatorSpec) -> np.ndarray:
    """sigma_k, or sigma_k / sigma_l for the quotient, from a table e of sigma_0..sigma_c (c >= spec.cone_order)."""
    return e[spec.k] if spec.l is None else e[spec.k] / e[spec.l]


def _value_from_sigmas(e: np.ndarray, spec: OperatorSpec) -> np.ndarray:
    """The normalized operator, _raw_value to the power 1/degree."""
    return _raw_value(e, spec) ** (1.0 / spec.degree)


def grad_at_eta(eta, spec: OperatorSpec) -> np.ndarray:
    """Entrywise derivative of the normalized operator with respect to eta."""

    def grad(et):
        e = _require_in_gamma(et, spec.cone_order, "operator gradient")
        return _grad_from_sigmas(e, _deleted_sigmas(et, spec.k - 1), spec)

    return _by_columns(grad, _as_values(eta))


def _grad_from_sigmas(e, d, spec: OperatorSpec):
    """df/d eta, _value_from_sigmas' chain rule, from e[j] = sigma_j(eta) and d[j - 1] = d sigma_j / d eta, broadcast.

    grad_at_eta passes the (c+1, m) sigma table and the deleted table, d sigma_j / d eta_i = sigma_{j-1}(eta | i).
    """
    k, l = spec.k, spec.l
    w = d[k - 1] if l is None else (d[k - 1] * e[l] - e[k] * d[l - 1]) / e[l] ** 2
    return (1.0 / spec.degree) * _raw_value(e, spec) ** (1.0 / spec.degree - 1.0) * w


def f_value(lam, spec: OperatorSpec):
    """Normalized operator value at the untransformed eigenvalues lam."""
    return value_at_eta(eta_from_lambda(lam), spec)


def f_grad(lam, spec: OperatorSpec) -> np.ndarray:
    """Closed-form gradient of f with respect to lam.

    Entry i is the sum over p != i of the eta-gradient entries, all of which
    are nonnegative on the admissible cone, so f_grad >= 0 entrywise.
    """
    return _by_columns(_lam_grad, grad_at_eta(eta_from_lambda(lam), spec))


def _lam_grad(g: np.ndarray) -> np.ndarray:
    """Gradient (n, m) with respect to lam from the gradient g (n, m) with respect to eta = eta_from_lambda(lam)."""
    return g.sum(axis=0) - g


def f_grad_matrix(r, spec: OperatorSpec) -> np.ndarray:
    """Derivative of F(r) = f(eigenvalues of r) with respect to the entries of r.

    Built from the Newton tensors of eta_matrix(r), so no eigendecomposition
    is needed; the result satisfies dF = <f_grad_matrix(r), dr> in the
    Frobenius pairing.  At diagonal r this is diagonal with the entries of
    f_grad.  Raises ConeError unless eta_matrix(r) lies in the open cone.
    """
    e, tensors = newton_tensors(eta_matrix(r), spec.cone_order)
    _check_in_gamma(e, "operator gradient")
    return _grad_from_tensors(e, tensors, spec)


def admissible(r, spec: OperatorSpec):
    """Whether eta_matrix(r)'s spectrum lies in the required cone, plus margin."""
    m = np.min(newton_tensors(eta_matrix(r), spec.cone_order)[0][1:], axis=0)
    if np.asarray(r).ndim == 2:
        return bool(m > 0.0), float(m)
    return m > 0.0, m
