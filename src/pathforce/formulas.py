"""Closed-form threshold arithmetic.

phi(n, d, k) is the least m such that every n-vertex graph with at least m
vertices of degree >= d contains a path on k+1 vertices. The piecewise closed
form lives here together with the conjectured bound it refutes at k = 4, and
the exact counting formulas for the two block-join families used to bound the
cycle and connected-path analogues of phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class PhiParams:
    """Validated (n, d, k) triple with n > d >= k >= 1."""

    n: int
    d: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"parameter domain violated: k={self.k} < 1")
        if self.d < self.k:
            raise ValueError(f"phi undefined: d={self.d} < k={self.k}")
        if self.n <= self.d:
            raise ValueError(f"parameter domain violated: n={self.n} <= d={self.d}")


def phi(p: PhiParams) -> int:
    """Exact threshold count of degree->=d vertices forcing a (k+1)-vertex path."""
    n, d, k = p.n, p.d, p.k
    if k % 2 == 1:
        q = n // (d + 1)
        return (k - 1) // 2 * q + 1
    if k == 2:
        return 1
    if k == 4:
        q, r = divmod(n, 2 * d)
        return 2 * q + 1 if r <= d else 2 * q + 2
    # even k >= 6
    q, r = divmod(n, d + 1)
    base = (k - 2) // 2 * q
    return base + 1 if r <= d - k // 2 else base + 2


def phi_conjecture_bound(p: PhiParams) -> int:
    """The conjectured value floor((k-1)/2)*floor(n/(d+1)) plus 1 (k odd) or 2 (k even).

    Exceeded by phi exactly when k = 4 and n is in the right residue window,
    which is what refutes the conjecture.
    """
    eps = 1 if p.k % 2 == 1 else 2
    return (p.k - 1) // 2 * (p.n // (p.d + 1)) + eps


def theta_chain_counts(d: int, k: int, alpha: int, beta: int) -> tuple[int, int]:
    """Vertex and high-degree counts for the chained block construction.

    Requires the exact parameterization d = (1+alpha)*floor(k/2) with
    alpha >= 1 for even k and alpha >= 2 for odd k (so that d >= k holds),
    and beta >= 1. Returns (n, high) with n = 1 + d + alpha*beta*d and
    high = (1+alpha*beta)*floor(k/2) + beta.
    """
    if k < 2:
        raise ValueError(f"parameter domain violated: k={k} < 2")
    if beta < 1:
        raise ValueError(f"parameter domain violated: beta={beta} < 1")
    min_alpha = 1 if k % 2 == 0 else 2
    if alpha < min_alpha:
        raise ValueError(f"parameter domain violated: alpha={alpha} < {min_alpha} for k={k}")
    if d != (1 + alpha) * (k // 2):
        raise ValueError(
            f"parameter domain violated: d={d} != (1+alpha)*floor(k/2)={(1 + alpha) * (k // 2)}"
        )
    return theta_chain_formula(d, k, alpha, beta)


def theta_chain_formula(d: int, k: int, alpha: int, beta: int) -> tuple[int, int]:
    """(n, high) of build_theta_chain on its whole domain, unvalidated."""
    return 1 + d + alpha * beta * d, (1 + alpha * beta) * (k // 2) + beta


def psi_tree_counts(d: int, k: int, alpha: int, beta: int) -> tuple[int, int]:
    """Vertex and high-degree counts for the starred block-tree construction.

    Requires k >= 7, alpha >= 2, beta >= d and d = 1 + alpha*floor((k-3)/4).
    Returns (n, high) with n = 1 + beta*(1 + alpha*d) and
    high = alpha*beta*floor((k-3)/4) + beta + 1.
    """
    if k < 7:
        raise ValueError(f"parameter domain violated: k={k} < 7")
    if alpha < 2:
        raise ValueError(f"parameter domain violated: alpha={alpha} < 2")
    if d != 1 + alpha * ((k - 3) // 4):
        raise ValueError(
            f"parameter domain violated: d={d} != 1 + alpha*floor((k-3)/4)={1 + alpha * ((k - 3) // 4)}"
        )
    if beta < d:
        raise ValueError(f"parameter domain violated: beta={beta} < d={d}")
    n = 1 + beta * (1 + alpha * d)
    high = alpha * beta * ((k - 3) // 4) + beta + 1
    return n, high


def _check_ndk(n: int, d: int, k: int, k_floor: int) -> None:
    # Reference bounds live in the long-target regime, so k may exceed d.
    if k < k_floor:
        raise ValueError(f"parameter domain violated: k={k} < {k_floor}")
    if d < 1:
        raise ValueError(f"parameter domain violated: d={d} < 1")
    if n <= d:
        raise ValueError(f"parameter domain violated: n={n} <= d={d}")


def psi_lower_bound(n: int, d: int, k: int) -> int:
    """Classical lower bound floor((k-3)/4)*floor((n-1)/d) + 2 for the
    connected-graph path threshold."""
    _check_ndk(n, d, k, 3)
    return (k - 3) // 4 * ((n - 1) // d) + 2


def theta_upper_bound(n: int, d: int, k: int) -> Fraction:
    """Classical upper bound (k+3)*(n-1)/(2d) for the cycle threshold,
    as an exact rational."""
    _check_ndk(n, d, k, 2)
    return Fraction((k + 3) * (n - 1), 2 * d)
