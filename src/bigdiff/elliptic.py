"""Elliptic side of the laboratory: resolvent, spectral projection, spectrum.

The operator A = -E d^2/dx^2 + I is diagonal in the shared cosine basis with
per-mode gains a_{i,k} = eps_i lam_k + 1, so

* the resolvent solve is a coefficient division,
* the operator norm of A^{-1} - P from L2 into the energy space is a maximum
  over scalar mode gains and comes out in closed form as (d lam_1 + 1)^{-1/2}
  with d = min_i eps_i (the d^{-1/2} rate is attained, not just bounded), and
* the Riesz projection onto the eigenvalue 1 coincides with the average
  projection P; a trapezoid contour quadrature of the resolvent exists purely
  to validate that shortcut.

Sign convention for the contour: the resolvent is written (xi + A)^{-1}, so
the eigenvalue 1 of A sits at xi = -1 and the contour |xi + 1| = delta
encloses it alone whenever delta < lam_2 - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .spectral import (
    CosineBasis,
    DiffusionSpec,
    SpectralField,
    average_projection,
    l2_norm,
)

__all__ = [
    "OptimalExampleReport",
    "SpectralProjection",
    "solve_resolvent",
    "resolvent_gap_exact",
    "resolvent_gap_sampled",
    "spectral_projection_Q",
    "projection_gap",
    "eigenvalue_table",
    "solve_pure_neumann",
    "optimal_example_check",
]


def solve_resolvent(g: SpectralField, E: DiffusionSpec) -> SpectralField:
    """Solve (-E d^2/dx^2 + I) u = g by per-mode division; always invertible."""
    return SpectralField(g.coeffs / E.gains(g.basis), g.basis)


def resolvent_gap_exact(E: DiffusionSpec, basis: CosineBasis) -> float:
    """Closed-form operator norm of A^{-1} - P from L2 into the energy space.

    Per mode (i, k >= 1) the gain is (eps_i lam_k + 1)^{-1/2}; the max sits at
    the smallest diffusion coefficient and k = 1, i.e. (d lam_1 + 1)^{-1/2}.
    """
    return float(E.second_eigenvalue(basis) ** -0.5)


def resolvent_gap_sampled(E: DiffusionSpec, basis: CosineBasis, trials: int,
                          seed: int | None = 0,
                          samples: list[SpectralField] | None = None) -> float:
    """Empirical lower bound on the resolvent gap from random right-hand sides.

    Maximizes the defect quotient over the span of `trials` random unit-L2
    fields (a small symmetric eigenproblem, since the operator is diagonal);
    once the span fills the discrete space the bound is exact.  Deterministic
    for a given seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = E.components
    dim = n * (basis.mode_count + 1)
    if samples is None:
        rng = default_rng(seed)
        mat = rng.standard_normal((dim, trials))
    else:
        mat = np.stack([f.coeffs.ravel() for f in samples], axis=1)
        if mat.shape[0] != dim:
            raise ValueError("sample fields do not match diffusion/basis dimensions")
    q, _ = np.linalg.qr(mat)
    gains = E.gains(basis)
    weights = 1.0 / gains
    weights[:, 0] = 0.0  # constants carry no defect
    t = weights.ravel()
    bmat = q.T @ (t[:, None] * q)
    top = float(np.linalg.eigvalsh(bmat)[-1])
    return float(np.sqrt(max(top, 0.0)))


class SpectralProjection:
    """Projection onto the eigenspace of eigenvalue 1 (the constants).

    `mode="eigen"` is the exact eigenprojection; `mode="contour"` evaluates
    the Riesz integral (2 pi i)^{-1} contour-int (xi + A)^{-1} d xi on
    |xi + 1| = delta with composite-trapezoid quadrature, which exists only to
    validate the shortcut.  Either way the result acts diagonally with
    per-mode weights stored in `weights`.
    """

    def __init__(self, E: DiffusionSpec, basis: CosineBasis, weights: np.ndarray, mode: str):
        self.diffusion = E
        self.basis = basis
        self.mode = mode
        w = np.array(weights, dtype=float, copy=True)
        w.setflags(write=False)
        self.weights = w

    def apply(self, f: SpectralField) -> SpectralField:
        if f.basis != self.basis:
            raise ValueError("field basis does not match projection basis")
        return SpectralField(self.weights * f.coeffs, f.basis)

    def __call__(self, f: SpectralField) -> SpectralField:
        return self.apply(f)


def spectral_projection_Q(E: DiffusionSpec, basis: CosineBasis, delta: float = 0.5,
                          mode: str = "eigen", contour_nodes: int = 64) -> SpectralProjection:
    lam2 = E.second_eigenvalue(basis)
    if not 0.0 < delta < lam2 - 1.0:
        raise ValueError(
            f"delta={delta} must lie in (0, lam_2 - 1) = (0, {lam2 - 1.0}); "
            f"the contour would capture lam_2 = {lam2}"
        )
    gains = E.gains(basis)
    if mode == "eigen":
        weights = np.where(np.abs(gains - 1.0) < delta, 1.0, 0.0)
    elif mode == "contour":
        if contour_nodes < 4:
            raise ValueError("contour_nodes must be >= 4")
        theta = 2 * np.pi * np.arange(contour_nodes) / contour_nodes
        z = delta * np.exp(1j * theta)  # xi = -1 + z
        # residue weight per mode: mean over nodes of z / ((a - 1) + z)
        w = np.mean(z[None, None, :] / ((gains - 1.0)[:, :, None] + z[None, None, :]), axis=2)
        weights = w.real
    else:
        raise ValueError(f"unknown projection mode {mode!r}")
    return SpectralProjection(E, basis, weights, mode)


def projection_gap(Q: SpectralProjection) -> float:
    """Operator norm of Q - P from L2 into the energy space (mode-wise max)."""
    gains = Q.diffusion.gains(Q.basis)
    p = np.zeros_like(gains)
    p[:, 0] = 1.0
    return float(np.max(np.abs(Q.weights - p) * np.sqrt(gains)))


def eigenvalue_table(E: DiffusionSpec, basis: CosineBasis, J: int) -> np.ndarray:
    """The J smallest operator eigenvalues, i.e. sorted {eps_i lam_k + 1}."""
    total = E.components * (basis.mode_count + 1)
    if not 1 <= J <= total:
        raise ValueError(f"J must be in 1..{total}")
    return np.sort(E.gains(basis).ravel())[:J]


def solve_pure_neumann(g: SpectralField, eps: float) -> SpectralField:
    """Solve -eps u_xx = g with Neumann ends for zero-mean g, zero-mean u.

    The pure operator has no +u term, so mode 0 is excluded: data with a
    nonzero average is rejected (the problem is only solvable modulo
    constants), and the returned solution has zero mean.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    mean = average_projection(g)
    if np.max(np.abs(mean)) > 1e-10 * max(1.0, l2_norm(g)):
        raise ValueError("pure Neumann solve requires zero-mean data")
    lam = g.basis.eigenvalues
    coeffs = np.zeros_like(g.coeffs)
    coeffs[:, 1:] = g.coeffs[:, 1:] / (eps * lam[1:])
    return SpectralField(coeffs, g.basis)


@dataclass(frozen=True)
class OptimalExampleReport:
    eps: float
    closed_form_error: float
    seminorm_sq: float


def optimal_example_check(eps: float, basis: CosineBasis) -> OptimalExampleReport:
    """Check the sharp-rate example -eps u_xx = cos(2 pi x).

    The solution is u(x) = cos(2 pi x) / (4 pi^2 eps); its weighted gradient
    energy int eps |u_x|^2 equals 1/(8 pi^2 eps), so the squared seminorm
    times eps is constant across eps: the eps^{-1/2} energy rate is exact.
    """
    nodes = basis.nodes
    data = SpectralField(basis.to_spectral(np.cos(2 * np.pi * nodes)[None, :]), basis)
    u = solve_pure_neumann(data, eps)
    closed_form = np.cos(2 * np.pi * nodes) / (4 * np.pi**2 * eps)
    err = float(np.max(np.abs(basis.to_grid(u.coeffs)[0] - closed_form)))
    weighted = eps * basis.eigenvalues[1:] * u.coeffs[:, 1:] ** 2
    return OptimalExampleReport(eps=eps, closed_form_error=err, seminorm_sq=float(np.sum(weighted)))
