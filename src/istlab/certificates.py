"""Convergence certificates and bound curves for the sketched iteration.

The quantities computed here certify (or refute) step-size rules for the
iteration x^{k+1} = x^k - gamma * g^k:

* the descent matrix ``W = (E[L_bar B + B L_bar]) / 2`` whose positive
  semi-definiteness is necessary for expected progress,
* the step constant ``theta``, the smallest scalar with
  ``E[B L_bar B] <= theta * W`` (as quadratic forms); admissible step sizes
  are ``gamma <= 1/theta``,
* the estimator bias ``h`` and the mean fixed point ``x_inf`` for the
  scaled permutation estimators,
* the heterogeneity second moment ``sigma2``,
* evaluable right-hand sides of the average-gradient and function-gap
  bounds, including the neighborhood multiplier ``psi``.

``theta`` is computed as the largest generalized eigenvalue of the pencil
(E[B L_bar B], W) restricted to range(W); if W fails the PSD check, or the
second moment leaks outside range(W), the certificate reports the pair as
inadmissible (a value, not an error, so sweeps can tabulate it).

Where the sketch fixes a value, it is returned exactly, with no products,
pencil or eigvalsh: E[B] = I gives W = L_bar, E[B L_bar B] = W gives
theta = 1, and W = L_bar positive definite gives rho = 1 - gamma.
scaled_perm_het states that B = I on every draw (its family's
``unit_curvature``), so its W and its second moment are both the problem's
``L_bar`` array, and identity tests on the arrays stand in for d x d scans.
Other moments meet the last two tests by value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import estimators, linalg, sketches
from .errors import (
    BetaOutOfRange,
    DenominatorNonpositive,
    NoExpectation,
    SingularMatrix,
    StepSizeOutOfRange,
    StepTooLarge,
    ThetaInadmissible,
    WrongKind,
)
from .quadratics import QuadraticProblem
from .sketches import UNIT_DIAG_TOL, SketchKind, SketchMoments, fixed_point_het  # noqa: F401


def descent_matrix(
    p: QuadraticProblem, kind: SketchKind, moments: SketchMoments | None = None
) -> NDArray:
    """W = (L_bar E[B] + E[B] L_bar) / 2.

    Where the family fixes E[B] = I and ``moments`` are its closed form or
    not given, W is the problem's read-only ``L_bar``, which the product
    formula gives bit for bit at E[B] = I.
    """
    family = kind.family
    if family.unit_curvature and (moments is None or moments.method == "closed_form"):
        family.check_problem(kind, p)
        return p.L_bar
    if moments is None:
        moments = sketches._moments(kind, p)
    eb = moments.curvature
    return 0.5 * linalg.symmetrize(p.L_bar @ eb + eb @ p.L_bar)


def step_constant(
    p: QuadraticProblem,
    kind: SketchKind,
    moments: SketchMoments | None = None,
    psd_tol: float = linalg.PSD_TOL,
    rank_tol_factor: float = linalg.RANK_TOL_FACTOR,
) -> float | None:
    """Smallest theta with E[B L_bar B] <= theta * W, or None if inadmissible.

    Inadmissible means either W fails the PSD check or the second moment is
    nonzero on the null space of W beyond the rank tolerance, in which case
    no finite theta exists.  Exactly 1.0 when E[B L_bar B] equals a PSD,
    nonzero W bit for bit (B = I on every draw), with no pencil formed.
    """
    return _descent_theta(p, kind, moments, psd_tol, rank_tol_factor)[2]


def _descent_theta(
    p: QuadraticProblem, kind: SketchKind, moments: SketchMoments | None = None, *tols: float
) -> tuple[NDArray, linalg.Spectrum, float | None]:
    """W, its eigendecomposition and theta, with the tolerances of :func:`_theta`.

    W and E[B L_bar B] come from ``moments`` where they hold the second
    moment, else by the route policy.  For a family with B = I on every draw
    that is the problem's ``L_bar`` for both, whose spectrum is the problem's
    cached one, with no d x d pass.
    """
    if moments is None or moments.curvature_second is None:
        moments = None if kind.family.unit_curvature else sketches._moments(kind, p, second=True)
    W = descent_matrix(p, kind, moments)
    spec = p.spectrum if W is p.L_bar else linalg.eig_sym(W)
    second = p.L_bar if moments is None else moments.curvature_second
    return W, spec, _theta(spec, W, second, *tols)


def _theta(
    spec: linalg.Spectrum,
    W: NDArray,
    curvature_second: NDArray,
    psd_tol: float = linalg.PSD_TOL,
    rank_tol_factor: float = linalg.RANK_TOL_FACTOR,
) -> float | None:
    """:func:`step_constant` given W and its eigendecomposition ``spec``."""
    if not linalg.psd_eigenvalues(spec.eigenvalues, psd_tol):
        return None
    mask = spec.rank_mask(rank_tol_factor)
    if mask.any() and (curvature_second is W or np.array_equal(curvature_second, W)):
        return 1.0  # the pencil (W, W) is the identity on range(W)
    second = linalg.symmetrize(curvature_second)

    def second_scale() -> float:
        return float(np.abs(np.linalg.eigvalsh(second)).max(initial=0.0))

    if not mask.any():
        # W numerically zero: theta exists only if the second moment vanishes.
        return 1.0 if second_scale() <= rank_tol_factor else None
    v_null = spec.eigenvectors[:, ~mask]
    if v_null.shape[1]:
        leak = np.abs(v_null.T @ second @ v_null).max(initial=0.0)
        if leak > rank_tol_factor * max(second_scale(), 1.0):
            return None
    inv_sqrt = 1.0 / np.sqrt(spec.eigenvalues[mask])
    scaled = spec.eigenvectors[:, mask] * inv_sqrt
    pencil = scaled.T @ second @ scaled
    theta = float(np.linalg.eigvalsh(linalg.symmetrize(pencil)).max())
    return max(theta, 0.0)


def contraction_factor(p: QuadraticProblem, W: NDArray, gamma: float) -> float:
    """rho = 1 - gamma * lambda_min(L_bar^{-1/2} W L_bar^{-1/2}); exactly 1 - gamma
    when W is L_bar bit for bit and every eigenvalue of L_bar is positive and
    above the rank tolerance, so that the inner matrix is I."""
    spec = p.spectrum
    exact = W is p.L_bar or np.array_equal(W, p.L_bar)
    if exact and (spec.eigenvalues > 0.0).all() and spec.rank_mask().all():
        return 1.0 - gamma
    inv_sqrt = spec.apply_function(lambda v: 1.0 / np.sqrt(v))
    inner = linalg.symmetrize(inv_sqrt @ W @ inv_sqrt)
    lam_min = float(np.linalg.eigvalsh(inner).min())
    return 1.0 - gamma * lam_min


def interpolation_rates(
    p: QuadraticProblem, kind: SketchKind, gamma: float
) -> tuple[float, float]:
    """(2/gamma, rho) for the averaged-gradient and iterate bounds.

    The first value scales (f(x^0) - f(x^K)) / K into the bound on the
    average of ||grad f(x^k)||^2 weighted by L_bar^{-1} W L_bar^{-1}; the
    second is the per-step contraction of ||x^k - x*||^2_{L_bar}.  The
    guarantees apply on interpolation problems.

    Raises
    ------
    ThetaInadmissible
        If no finite step constant exists for this pair.
    StepTooLarge
        If gamma is outside (0, 1/theta].
    """
    W, _, theta = _descent_theta(p, kind)
    if theta is None:
        raise ThetaInadmissible(f"sketch {kind.kind!r} admits no step constant here")
    if not (0.0 < gamma <= 1.0 / theta * (1.0 + 1e-12)):
        raise StepTooLarge(f"gamma={gamma} outside (0, 1/theta] with theta={theta}")
    return 2.0 / gamma, contraction_factor(p, W, gamma)


# ---------------------------------------------------------------------------
# bias, fixed point, exact mean recursion
# ---------------------------------------------------------------------------


def estimator_bias(p: QuadraticProblem) -> NDArray:
    """h = L_bar^{-1} b_bar - n^{-3/2} sum_i D_i^{-1/2} b_i.

    The gap between the minimizer and the scaled permutation estimator's
    mean fixed point.  Requires every [L_i]_jj > 0 and L_bar nonsingular.
    """
    x_star = p.solution()
    return x_star - fixed_point_het(p)


def fixed_point(p: QuadraticProblem, kind: SketchKind) -> NDArray:
    """Limit of E[x^k] for the sketch families that define one; each family's
    class in :mod:`sketches` says where.  Others raise :class:`WrongKind`."""
    if kind.family.fixed_point is None:
        raise WrongKind(f"fixed point not defined for sketch {kind.kind!r}")
    return kind.family.fixed_point(kind, p)


def expected_iterate(
    p: QuadraticProblem,
    kind: SketchKind,
    x0: NDArray,
    gamma: float,
    k: int,
) -> NDArray:
    """Exact mean iterate (1-gamma)^k x0 + (1 - (1-gamma)^k) x_inf.

    Valid for the scaled permutation estimators, whose mean update is the
    affine map E[x^{k+1}] = (1-gamma) E[x^k] + gamma x_inf; gamma = 1 jumps
    to the fixed point immediately.
    """
    if not (0.0 < gamma <= 1.0):
        raise StepSizeOutOfRange("expected_iterate requires 0 < gamma <= 1")
    if k < 0:
        raise ValueError("k must be nonnegative")
    x_inf = fixed_point(p, kind)
    x0 = np.asarray(x0, dtype=np.float64)
    decay = (1.0 - gamma) ** k
    return decay * x0 + (1.0 - decay) * x_inf


# ---------------------------------------------------------------------------
# bound curves
# ---------------------------------------------------------------------------


def step_cap(beta: float, c: float = 0.5) -> float:
    """Largest admissible step size (1 - c - beta) / (beta + 1/2)."""
    if beta <= 0.0:
        raise BetaOutOfRange("beta must be positive")
    if beta + c >= 1.0:
        raise BetaOutOfRange(f"beta + c must be < 1, got beta={beta}, c={c}")
    return (1.0 - c - beta) / (beta + 0.5)


def _validate_step(gamma: float, beta: float, c: float) -> None:
    cap = step_cap(beta, c)
    if not (0.0 < gamma <= cap * (1.0 + 1e-12)):
        raise StepSizeOutOfRange(
            f"gamma={gamma} outside (0, {cap:.6g}] for beta={beta}, c={c}"
        )


@dataclass(frozen=True)
class BoundCurve:
    """Right-hand side of a stationarity bound as a function of the horizon.

    ``values[j]`` bounds the average of ||grad f(x^k)||^2_{L_bar^{-1}} over
    the first ``horizons[j]`` iterations; ``neighborhood`` is the constant
    (horizon-independent) part.
    """

    gamma: float
    beta: float
    c: float
    horizons: NDArray
    values: NDArray
    neighborhood: float
    bias_sqnorm: float
    sigma2: float


def stationarity_bound(
    p: QuadraticProblem,
    gamma: float,
    beta: float,
    K: int,
    f0: float,
    f_final: float | None = None,
    c: float = 0.5,
    sigma2: float | None = None,
) -> BoundCurve:
    """Bound on the average L_bar^{-1}-weighted squared gradient norm.

    RHS(K) = (f0 - f_final) / (c gamma K)
             + ((1-gamma)/(c beta) + gamma/(2c)) ||h||^2_{L_bar}
             + gamma/(2c) sigma2.

    ``c = 1/2`` reproduces the coefficients 2/(gamma K),
    2 beta^{-1} (1-gamma) + gamma, and gamma.  ``f_final`` defaults to the
    problem's minimum value (a valid relaxation of the expected final
    value); pass a simulated mean final value for the sharp curve.
    ``sigma2`` defaults to the exact enumerated heterogeneity variance.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if c <= 0.0:
        raise ValueError("c must be positive")
    _validate_step(gamma, beta, c)
    h = estimator_bias(p)
    bias_sq = linalg.weighted_sqnorm(h, p.L_bar)
    if sigma2 is None:
        sigma2 = estimators.heterogeneity_variance(
            p, estimators.EstimatorKind.ist(SketchKind.scaled_perm_het())
        )
    if f_final is None:
        f_final = p.f(p.solution())
    neighborhood = ((1.0 - gamma) / (c * beta) + gamma / (2.0 * c)) * bias_sq
    neighborhood += gamma / (2.0 * c) * sigma2
    horizons = np.arange(1, K + 1)
    values = (f0 - f_final) / (c * gamma * horizons) + neighborhood
    return BoundCurve(
        gamma=gamma,
        beta=beta,
        c=c,
        horizons=horizons,
        values=values,
        neighborhood=float(neighborhood),
        bias_sqnorm=float(bias_sq),
        sigma2=float(sigma2),
    )


def function_gap_bound(
    p: QuadraticProblem,
    gamma: float,
    beta: float,
    c: float,
    k: int,
    f0: float,
) -> float:
    """Function-gap bound for the scaled sketch on a preconditioned
    homogeneous problem:

    (1 - 2 gamma c)^k (f0 - f*) + (1/(2c)) (beta^{-1}(1-gamma) + gamma/2) ||h||^2.

    Admissibility uses the exact progress condition
    c <= 1 - gamma/2 - beta(1-gamma) rather than the conservative step cap,
    so the one-iteration configuration gamma = 1, c = 1/2 is accepted (the
    beta-weighted term vanishes there).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if c <= 0.0:
        raise ValueError("c must be positive")
    if beta <= 0.0:
        raise BetaOutOfRange("beta must be positive")
    progress = 1.0 - gamma / 2.0 - beta * (1.0 - gamma)
    if not (0.0 < gamma <= 1.0) or progress < c - 1e-12:
        raise StepSizeOutOfRange(
            f"need c <= 1 - gamma/2 - beta(1-gamma); got c={c}, "
            f"margin={progress:.6g} at gamma={gamma}, beta={beta}"
        )
    sketches._require_unit_diag(p, "function_gap_bound")
    h = estimator_bias(p)
    bias_sq = linalg.weighted_sqnorm(h, p.L_bar)
    f_star = p.f(p.solution())
    neighborhood = (1.0 / (2.0 * c)) * ((1.0 - gamma) / beta + gamma / 2.0) * bias_sq
    return (1.0 - 2.0 * gamma * c) ** k * (f0 - f_star) + neighborhood


def neighborhood_psi(beta: float, gamma: float) -> float:
    """Neighborhood multiplier (beta^{-1}(1-gamma) + gamma/2) / (1 - gamma/2 - beta(1-gamma)).

    The denominator is the largest admissible progress constant c at
    (beta, gamma); evaluating where it is nonpositive raises
    :class:`DenominatorNonpositive`.
    """
    if beta <= 0.0:
        raise BetaOutOfRange("beta must be positive")
    denom = 1.0 - gamma / 2.0 - beta * (1.0 - gamma)
    if denom <= 0.0:
        raise DenominatorNonpositive(f"progress constant <= 0 at beta={beta}, gamma={gamma}")
    return ((1.0 - gamma) / beta + gamma / 2.0) / denom


def minimize_psi(
    beta_max: float = 5.0,
    gamma_max: float = 1.0,
    step: float = 1e-3,
) -> tuple[float, float, float]:
    """Dense-grid argmin of the neighborhood multiplier.

    Returns (beta*, gamma*, psi*).  The grid covers beta in (0, beta_max]
    and gamma in (0, gamma_max] with the given step; infeasible points
    (nonpositive denominator) are skipped.
    """
    betas = np.arange(step, beta_max + step / 2, step)
    gammas = np.arange(step, gamma_max + step / 2, step)
    best = (math.nan, math.nan, math.inf)
    for g in gammas:
        denom = 1.0 - g / 2.0 - betas * (1.0 - g)
        num = (1.0 - g) / betas + g / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            psi = np.where(denom > 0.0, num / denom, np.inf)
        j = int(np.argmin(psi))
        if psi[j] < best[2]:
            best = (float(betas[j]), float(g), float(psi[j]))
    return best


# ---------------------------------------------------------------------------
# full certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Everything the step-size theory says about one (problem, sketch) pair."""

    descent: NDArray
    descent_psd: bool
    theta: float | None
    gamma_max: float | None
    gamma: float | None
    rho: float | None
    bias: NDArray | None
    bias_norm: float | None  # ||h||_{L_bar}
    x_inf: NDArray | None
    sigma2: float | None
    notes: tuple[str, ...]

    @property
    def admissible(self) -> bool:
        return self.theta is not None


def certificate(
    p: QuadraticProblem,
    kind: SketchKind,
    gamma: float | None = None,
    sigma2_samples: int | None = None,
    rng: np.random.Generator | None = None,
) -> ConvergenceCertificate:
    """Assemble the full certificate for an IST run with sketch ``kind``.

    ``gamma`` defaults to 1/theta when a step constant exists.  The
    heterogeneity variance is exact where an exact route exists (for
    scaled_perm_het, any n = d at q = 1 and enumeration within the budget
    at q > 1), a Monte Carlo fallback when ``sigma2_samples`` is given, and
    is omitted (None, with a note) otherwise.  Bias-related fields are
    populated only for the scaled permutation estimators.
    """
    notes: list[str] = []
    W, spec, theta = _descent_theta(p, kind)
    psd = linalg.psd_eigenvalues(spec.eigenvalues)
    gamma_max = None if theta is None or theta == 0.0 else 1.0 / theta
    rho = None
    used_gamma = None
    if theta is not None:
        used_gamma = gamma if gamma is not None else (gamma_max if gamma_max else 1.0)
        rho = contraction_factor(p, W, used_gamma)
    else:
        notes.append("no finite step constant: descent matrix fails PSD or pencil leaks")

    bias = None
    bias_norm = None
    x_inf = None
    sigma2 = None
    if kind.family.fixed_point is not None:
        try:
            x_inf = fixed_point(p, kind)
            bias = p.solution() - x_inf
            bias_norm = math.sqrt(max(linalg.weighted_sqnorm(bias, p.L_bar), 0.0))
        except (WrongKind, SingularMatrix) as exc:
            notes.append(f"bias/fixed point unavailable: {exc}")
    if kind.family.sigma2 is not None:
        est = estimators.EstimatorKind.ist(kind)
        try:
            sigma2 = estimators.heterogeneity_variance(p, est)
        except NoExpectation:
            if sigma2_samples is not None:
                sigma2 = estimators.heterogeneity_variance(p, est, sigma2_samples, rng)
                notes.append(f"sigma2 via monte carlo ({sigma2_samples} draws)")
            else:
                notes.append("sigma2 omitted: enumeration infeasible, no sample budget given")
        except WrongKind as exc:
            notes.append(f"sigma2 unavailable: {exc}")

    return ConvergenceCertificate(
        descent=W,
        descent_psd=psd,
        theta=theta,
        gamma_max=gamma_max,
        gamma=used_gamma,
        rho=rho,
        bias=bias,
        bias_norm=bias_norm,
        x_inf=x_inf,
        sigma2=sigma2,
        notes=tuple(notes),
    )
