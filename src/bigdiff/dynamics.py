"""Time evolution of the PDE and its ODE limit, and homogenization decay.

State splitting: a solution u(t, x) decomposes as u = v(t) + w(t, x) with
v the spatial average and w mean-free.  Averaging the equation gives the
coupled system

    v' + v = S(v, w),        S(v, w) = int F(v + w) dx,
    w_t - E w_xx + w = Q(v, w),   Q(v, w) = F(v + w) - S(v, w),

so v obeys the limiting ODE up to the coupling S(v, w) - F(v), and w decays
exponentially at a rate that grows affinely with d = min eps.  This module
integrates both equations, tracks v and the energy norm of w, and fits decay
rates against the predicted exponent d*lam_1 + 1 - mu.

Integrators: the linear part is diagonal with exactly known propagator
exp(-(eps_i lam_k + 1) t), so exponential time differencing (the two-stage
ETD2RK of Cox & Matthews) removes stiffness entirely; stiffness grows with
d, which is the very regime under study.  phi-function weights switch to
series below |z| = 1e-4 to avoid cancellation in (e^z - 1)/z.

The limit ODE is mode 0 of the PDE, so the same ETD2RK steps it
(`OdeEtdStepper`, and `attractors.graph_iteration` backward in time), every
stepper taking its weights from `_etd_weights`; classic RK4 (`_rk4_step`)
steps only the reference trajectory, an oracle of the tests.

Every sampled flow (`evolve_pde`, the RK4 reference trajectory, manifold
arcs, perturbed tails, long-time ODE seeds, the decay sweep) runs through
`propagate`, one lockstep loop that takes a given number of whole steps of
a batch.  A stepper carries its own dt (`EtdStepper`, `OdeEtdStepper`, the
RK4 `_OdeStepper`); a duration T takes the ceil(T/dt - 1e-9) whole steps of
dt that cover it (`_step_count`).  The linear part is diagonal, so the rows of
one ETD batch may each carry their own exact propagator and dt (one per
swept d) while they share one batched evaluation of F.  Rows that share dt
share the running time, rows with their own dt each keep their own, and
either may retire (the arcs and tails of every d of an attractor sweep).  A
stepper built from the d of a sweep maps each row to its d, and a blow-up
fails only the d whose rows blew up (`EtdStepper.failed`).  Any other
failure of one d is a POINT_ERRORS error, caught only in `try_point`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .spectral import CosineBasis, DiffusionSpec, SpectralField, mean_free_energy

__all__ = [
    "Nonlinearity",
    "Trajectory",
    "DecayFit",
    "BlowUpError",
    "POINT_ERRORS",
    "try_point",
    "tanh_pitchfork",
    "saturated_cubic",
    "coupled_tanh",
    "zero_nonlinearity",
    "linear_nonlinearity",
    "validate_nonlinearity",
    "linear_semigroup_apply",
    "semigroup_kernel_bound",
    "compute_M_and_mu",
    "mu_from_M",
    "EtdStepper",
    "OdeEtdStepper",
    "propagate",
    "evolve_pde",
    "evolve_ode",
    "decay_rate_fit",
]


class BlowUpError(RuntimeError):
    """Raised when a trajectory norm exceeds the blow-up threshold."""

    def __init__(self, time: float, norm: float):
        super().__init__(f"trajectory blew up at t={time:.6g} (coefficient norm {norm:.3g})")
        self.time = time
        self.norm = norm


# the errors that fail one point of a sweep; any other exception is a bug and
# aborts the sweep
POINT_ERRORS = (RuntimeError, ValueError)


def try_point(measure, *args):
    """`measure(*args)`, or the point error it raised: the one place a sweep point fails."""
    try:
        return measure(*args)
    except POINT_ERRORS as err:
        return err


@dataclass(frozen=True)
class Nonlinearity:
    """A named map F: R^n -> R^n applied pointwise to field values.

    `fn` and `jac` are vectorized over trailing axes: input shape (n, ...)
    yields (n, ...) and (n, n, ...) respectively.  `bound` is a constant B
    with |F| <= B (None for unbounded desk variants), `lip` a global
    Lipschitz constant.
    """

    name: str
    params: dict
    fn: callable
    jac: callable
    bound: float | None
    lip: float

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(u, dtype=float))


def tanh_pitchfork(beta: float = 2.0) -> Nonlinearity:
    """Componentwise F(u) = beta tanh(u); three hyperbolic zeros of -u+F for beta > 1."""
    return Nonlinearity(
        name="tanh",
        params={"beta": beta},
        fn=lambda u: beta * np.tanh(u),
        jac=lambda u: _diagonal_jacobian(beta * (1.0 - np.tanh(u) ** 2)),
        bound=abs(beta),
        lip=abs(beta),
    )


def saturated_cubic(gamma: float = 2.0) -> Nonlinearity:
    """Componentwise F(u) = gamma tanh(u - u^3/3); bounded cubic-type forcing."""

    def fn(u):
        return gamma * np.tanh(u - u**3 / 3.0)

    def jac(u):
        inner = u - u**3 / 3.0
        return _diagonal_jacobian(gamma * (1.0 - np.tanh(inner) ** 2) * (1.0 - u**2))

    # |d/du (u - u^3/3)| is unbounded but the tanh saturates; the global
    # Lipschitz constant is attained where (1 - tanh^2(g(u)))|g'(u)| peaks.
    grid = np.linspace(-10, 10, 20001)
    lip = float(np.max(np.abs(gamma * (1 - np.tanh(grid - grid**3 / 3) ** 2) * (1 - grid**2))))
    return Nonlinearity("saturated_cubic", {"gamma": gamma}, fn, jac, abs(gamma), lip)


def coupled_tanh(a: float = 1.2, c: float = 0.6) -> Nonlinearity:
    """Two-component symmetric coupling F = (a tanh u1 + c tanh u2, c tanh u1 + a tanh u2)."""

    def fn(u):
        t = np.tanh(u)
        return np.stack([a * t[0] + c * t[1], c * t[0] + a * t[1]])

    def jac(u):
        s = 1.0 - np.tanh(u) ** 2
        row0 = np.stack([a * s[0], c * s[1]])
        row1 = np.stack([c * s[0], a * s[1]])
        return np.stack([row0, row1])

    bound = np.sqrt(2.0) * (abs(a) + abs(c))
    return Nonlinearity("coupled_tanh", {"a": a, "c": c}, fn, jac, bound, abs(a) + abs(c))


def zero_nonlinearity() -> Nonlinearity:
    return Nonlinearity(
        name="zero",
        params={},
        fn=lambda u: np.zeros_like(u),
        jac=lambda u: _diagonal_jacobian(np.zeros_like(u)),
        bound=0.0,
        lip=0.0,
    )


def linear_nonlinearity(c: float = 1.0) -> Nonlinearity:
    """Desk variant F(u) = c u; unbounded, boundedness checks are waived."""
    return Nonlinearity(
        name="linear",
        params={"c": c},
        fn=lambda u: c * u,
        jac=lambda u: _diagonal_jacobian(np.full_like(u, c)),
        bound=None,
        lip=abs(c),
    )


# name -> factory; a factory's keyword parameters are the nonlinearity's parameters
NONLINEARITIES = {
    "tanh": tanh_pitchfork,
    "saturated_cubic": saturated_cubic,
    "coupled_tanh": coupled_tanh,
    "zero": zero_nonlinearity,
    "linear": linear_nonlinearity,
}


def nonlinearity_from_spec(name: str, **params) -> Nonlinearity:
    """Build a registered nonlinearity from a plain (JSON-safe) spec."""
    try:
        factory = NONLINEARITIES[name]
    except KeyError:
        known = ", ".join(sorted(NONLINEARITIES))
        raise ValueError(f"unknown nonlinearity {name!r}; known: {known}") from None
    return factory(**params)


def _diagonal_jacobian(diag: np.ndarray) -> np.ndarray:
    d = np.asarray(diag)
    n = d.shape[0]
    out = np.zeros((n,) + d.shape, dtype=float)
    for i in range(n):
        out[i, i] = d[i]
    return out


def validate_nonlinearity(F: Nonlinearity, components: int, rng=None) -> None:
    """Numerical sanity checks: boundedness, Jacobian vs finite differences,
    and the inward-pointing (dissipativeness) surrogate on |u| = B + 1.

    Raises ValueError on the first violated predicate.
    """
    rng = default_rng(0) if rng is None else rng
    samples, fd_step = 64, 1e-6
    wide = rng.uniform(-50.0, 50.0, size=(components, samples))
    values = F(wide)
    if F.bound is not None:
        magnitudes = np.sqrt(np.sum(values**2, axis=0))
        if np.any(magnitudes > F.bound + 1e-9):
            raise ValueError(f"{F.name}: |F(u)| exceeds declared bound {F.bound}")
    points = rng.uniform(-3.0, 3.0, size=(components, 16))
    jac = F.jac(points)
    for j in range(components):
        bumped = points.copy()
        bumped[j] += fd_step
        dipped = points.copy()
        dipped[j] -= fd_step
        fd = (F(bumped) - F(dipped)) / (2 * fd_step)
        scale = np.maximum(np.abs(jac[:, j]), 1.0)
        if np.max(np.abs(fd - jac[:, j]) / scale) > 1e-6:
            raise ValueError(f"{F.name}: Jacobian column {j} disagrees with finite differences")
    if F.bound is not None:
        radius = F.bound + 1.0
        direction = rng.standard_normal((components, samples))
        direction /= np.sqrt(np.sum(direction**2, axis=0))
        sphere = radius * direction
        inward = np.sum((-sphere + F(sphere)) * sphere, axis=0)
        if np.any(inward >= 0.0):
            raise ValueError(f"{F.name}: vector field fails to point inward on |u| = B + 1")


def linear_semigroup_apply(u: SpectralField, E: DiffusionSpec, t: float) -> SpectralField:
    """Exact heat-type propagator: scale coefficients by exp(-(eps lam + 1) t)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return SpectralField(np.exp(-E.gains(u.basis) * t) * u.coeffs, u.basis)


def semigroup_kernel_bound(E: DiffusionSpec, basis: CosineBasis, t: float) -> float:
    """Exact L2 -> energy gain of the propagator on mean-free fields.

    kappa(t) = max over modes k >= 1 of exp(-a t) sqrt(a) with a the mode
    gain; bounded by (2 e t)^{-1/2} always, and equal to
    exp(-lam_2 t) sqrt(lam_2) once every gain sits right of the unconstrained
    maximizer a = 1/(2t).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    gains = E.gains(basis)[:, 1:].ravel()
    return float(np.max(np.exp(-gains * t) * np.sqrt(gains)))


def mu_from_M(M: float) -> float:
    """mu = sqrt(2 M Gamma(1/2)) with Gamma(1/2) = sqrt(pi)."""
    return float(np.sqrt(2.0 * M * np.sqrt(np.pi)))


@dataclass(frozen=True)
class SemigroupConstants:
    M: float
    mu: float
    mu_bar: float


def compute_M_and_mu(E: DiffusionSpec, basis: CosineBasis, horizon: float = 10.0,
                     coarse: int = 400, refine: int = 200) -> SemigroupConstants:
    """Operational constants of the mean-free semigroup estimate on (0, T*].

    M := max(1, sup_t kappa(t) e^{(d lam_1 + 1) t} sqrt(t)) over the horizon,
    located on a dense log grid with local refinement; mu = sqrt(2 M sqrt(pi))
    and mu_bar = (mu - 1)/lam_1.  The supremum over all t > 0 is infinite
    (kappa decays like e^{-lam_2 t} sqrt(lam_2), which beats t^{-1/2} only up
    to constants), so M means something only together with its horizon; on
    any fixed horizon it equals sqrt(lam_2 T*) once that exceeds 1, and
    therefore grows with both T* and d.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    lam2 = E.second_eigenvalue(basis)
    gains = E.gains(basis)[:, 1:].ravel()

    def log_objective(ts):
        # log(kappa(t) e^{lam2 t} sqrt(t)) evaluated stably; the plain product
        # overflows once lam2*t exceeds ~700
        log_kappa = np.max(-np.outer(ts, gains) + 0.5 * np.log(gains)[None, :], axis=1)
        return log_kappa + lam2 * ts + 0.5 * np.log(ts)

    ts = np.geomspace(min(1e-8, horizon / 10), horizon, coarse)
    vals = log_objective(ts)
    i = int(np.argmax(vals))
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, coarse - 1)]
    fine = np.linspace(lo, hi, refine)
    fvals = log_objective(fine)
    j = int(np.argmax(fvals))
    best = fvals[j] if fvals[j] >= vals[i] else vals[i]
    M = max(1.0, float(np.exp(best)))
    mu = mu_from_M(M)
    return SemigroupConstants(M=M, mu=mu, mu_bar=(mu - 1.0) / basis.lambda1)


@dataclass
class Trajectory:
    """Sampled PDE trajectory with the average and the mean-free energy norm."""

    times: np.ndarray
    coeffs: np.ndarray  # (samples, n, K+1)
    v: np.ndarray       # (samples, n)
    w_xhalf: np.ndarray  # energy norm of the mean-free part


def _phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z with series fallback near 0."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-4
    zs = z[small]
    out[small] = 1.0 + zs / 2.0 + zs**2 / 6.0 + zs**3 / 24.0
    zb = z[~small]
    out[~small] = np.expm1(zb) / zb
    return out


def _phi2(z: np.ndarray) -> np.ndarray:
    """(e^z - 1 - z)/z^2 with series fallback near 0."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-4
    zs = z[small]
    out[small] = 0.5 + zs / 6.0 + zs**2 / 24.0 + zs**3 / 120.0
    zb = z[~small]
    out[~small] = (np.expm1(zb) - zb) / zb**2
    return out


def _etd_weights(h, gains):
    """The ETD2RK weights exp(-h g), h phi1(-h g) and h phi2(-h g) of a step h at gains g."""
    z = -h * gains
    return np.exp(z), h * _phi1(z), h * _phi2(z)


def _galerkin_F(F: Nonlinearity, c: np.ndarray, basis: CosineBasis) -> np.ndarray:
    """Cosine coefficients of F(u) for the coefficients `c` of u.

    `c` is one state (n, K+1) or a batch (rows, n, K+1).  Mode 0 of the
    result is S(v, w), the grid mean of F(v + w) since phi_0 = 1; the other
    modes are Q(v, w).
    """
    phi = basis.synthesis_matrix()
    # F takes the component axis first; a batch (rows, n, K+1) has it second
    values = F((c @ phi).swapaxes(0, -2))
    return values.swapaxes(0, -2) @ phi.T / basis.quad_points


BLOWUP_LIMIT = 1e8  # a larger |coefficient| is a blow-up


class EtdStepper:
    """Reusable ETD2RK step for u_t + A u = F(u).

    Precomputes the exact linear propagator exp(-dt A) and the phi-function
    weights.  Given one DiffusionSpec and a scalar dt they serve a state or
    every row of a batch, and a blow-up raises a BlowUpError.  Given a
    sequence E of m DiffusionSpecs (the d of a sweep), and a scalar dt or m
    of them, row r of a batch steps under E[owner[r]] (and its dt), bit for
    bit as a scalar stepper would step it alone, while all rows share one
    batched evaluation of F; `owner` defaults to one row per E.  A blow-up
    then fails only its own d: `failed[i]` holds the BlowUpError that the
    rows of E[i] raise stepped alone (their time, their max|c|), and those
    rows are zeroed and step on as ballast until the caller retires them.
    `dt` is the step, a scalar or one per row; `step` advances a coefficient
    array; `rows` gives the stepper of a subset of the rows.
    """

    def __init__(self, basis: CosineBasis, E, F: Nonlinearity, dt, owner=None):
        dt = np.asarray(dt, dtype=float)
        per_row = not isinstance(E, DiffusionSpec)
        if dt.ndim and (not per_row or len(E) != len(dt)):
            raise ValueError("give a scalar dt, or one dt per diffusion of a sequence")
        if np.any(dt <= 0):
            raise ValueError("dt must be positive")
        self.basis = basis
        self.nonlinearity = F
        self.failed = {}  # E index -> BlowUpError; stays empty for one DiffusionSpec
        self.owner = None
        if per_row:
            self.owner = np.arange(len(E)) if owner is None else np.asarray(owner, dtype=int)
            gains = np.array([e.gains(basis) for e in E])[self.owner]
            dt = dt[self.owner] if dt.ndim else dt
        else:
            gains = E.gains(basis)
        self.dt = dt if dt.ndim else float(dt)
        self.exp_full, self.w1, self.w2 = _etd_weights(dt[..., None, None], gains)

    def rows(self, keep) -> "EtdStepper":
        """The stepper of the rows that `keep` (a mask or indices) selects.

        It shares `failed`.  Shared weights serve any rows, so a stepper
        built from one DiffusionSpec returns itself.
        """
        if self.owner is None:
            return self
        kept = copy.copy(self)
        kept.exp_full, kept.w1, kept.w2 = self.exp_full[keep], self.w1[keep], self.w2[keep]
        kept.owner = self.owner[keep]
        if np.ndim(self.dt):
            kept.dt = self.dt[keep]
        return kept

    def step(self, c: np.ndarray, t_now=0.0) -> np.ndarray:
        """One step of every row of `c`, shape (n, K+1) or a batch (rows, n, K+1).

        `t_now` is the time before the step, shared or one per row.  A
        non-finite value of F spreads into the new coefficients, so the
        post-step max|c| test catches it at the step where it appeared.
        """
        n0 = _galerkin_F(self.nonlinearity, c, self.basis)
        a = self.exp_full * c + self.w1 * n0
        c = a + self.w2 * (_galerkin_F(self.nonlinearity, a, self.basis) - n0)
        top = float(np.max(np.abs(c)))
        if top <= BLOWUP_LIMIT:  # False for NaN
            return c
        if self.owner is None:
            raise BlowUpError(float(np.min(t_now)), top)
        tops = np.max(np.abs(c), axis=(-2, -1))
        t_now = np.broadcast_to(t_now, tops.shape)  # a scalar before the first step
        for i in np.unique(self.owner[~(tops <= BLOWUP_LIMIT)]):  # NaN rows too
            rows = self.owner == i
            if int(i) not in self.failed:
                self.failed[int(i)] = BlowUpError(float(t_now[rows][0]), float(np.max(tops[rows])))
            c[rows] = 0.0
        return c


class OdeEtdStepper:
    """ETD2RK step(batch, t) of v' + v = F(v) for rows of states (F takes components first).

    The limit ODE is mode 0 of the PDE, whose gain eps lam_0 + 1 is exactly
    1, so the weights exp(-dt), dt phi1(-dt) and dt phi2(-dt) are the mode-0
    entries of `EtdStepper`'s `exp_full`, `w1` and `w2`, and a step is
    `EtdStepper.step` on that one mode, in its order of operations: two
    evaluations of F.  Its rows share everything, so it serves any subset of
    them.
    """

    def __init__(self, F: Nonlinearity, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = dt
        self.fn = F.fn
        self.exp, self.w1, self.w2 = (w[0] for w in _etd_weights(dt, np.ones(1)))
        self.failed = {}  # no row fails: an orbit that leaves its box raises EscapeError

    def step(self, batch, t):
        n0 = self.fn(batch.T).T
        a = self.exp * batch + self.w1 * n0
        return a + self.w2 * (self.fn(a.T).T - n0)

    def rows(self, keep):
        return self


def _step_count(T: float, dt: float) -> int:
    """The whole steps of `dt` that cover a duration T (none for T <= 0)."""
    return max(0, int(np.ceil(T / dt - 1e-9)))


def propagate(stepper, batch: np.ndarray, steps: int, stride: int = 1, sample=None):
    """Advance `batch` in lockstep by `steps` whole steps of `stepper.dt`.

    `stepper.step(batch, t)` advances every row by `stepper.dt` from the
    running time t, which accumulates as t = t + dt; with one dt per row t is
    the vector of their running times.  After every `stride`-th step the new
    batch and time go to `sample(batch, t)`; a boolean mask it returns over
    the rows (axis 0) retires the rows marked False, whose stepper
    `stepper.rows(keep)` and running times then step on, and the flow stops
    once none is left.  Returns the rows still running and their time.
    """
    t = 0.0
    for k in range(1, steps + 1):
        batch = stepper.step(batch, t)
        t = t + stepper.dt
        if sample is not None and k % stride == 0:
            keep = sample(batch, t)
            if keep is not None and not keep.all():
                batch = batch[keep]
                if np.ndim(t):
                    t = t[keep]
                if not keep.any():
                    break
                stepper = stepper.rows(keep)
    return batch, t


def _sampled(stepper, c0: np.ndarray, steps: int, stride: int):
    """Take `steps` whole steps from `c0`; return the (times, states) at t = 0,
    after every `stride`-th step and after the last step."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    samples = [(0.0, c0)]
    c, t = propagate(stepper, c0, steps, stride, lambda c, t: samples.append((t, c)))
    if steps % stride:
        samples.append((t, c))
    return np.array([s[0] for s in samples]), np.array([s[1] for s in samples])


def evolve_pde(u0: SpectralField, E: DiffusionSpec, F: Nonlinearity, T: float,
               dt: float = 1e-3, stride: int = 10) -> Trajectory:
    """Integrate u_t + A u = F(u) with ETD2RK in whole steps of `dt`.

    The linear propagator is exact, so the step is unconditionally stable.
    Diagnostics are recorded every `stride` steps (and at t = 0 and t = T).
    `T` must be a non-negative whole number of `dt` steps, to rounding;
    there is no shortened final step.
    """
    steps = round(T / dt)
    if steps < 0 or abs(T / dt - steps) > 1e-9:
        raise ValueError(f"T = {T:g} is not a whole number of dt = {dt:g} steps")
    times, coeffs = _sampled(EtdStepper(u0.basis, E, F, dt), u0.coeffs, steps, stride)
    return Trajectory(times=np.minimum(times, T), coeffs=coeffs, v=coeffs[:, :, 0],
                      w_xhalf=mean_free_energy(coeffs, E.gains(u0.basis)))


def _rk4_step(v: np.ndarray, h: float, rhs) -> np.ndarray:
    """One classic RK4 step of v' = rhs(v), elementwise over any batch."""
    k1 = rhs(v)
    k2 = rhs(v + 0.5 * h * k1)
    k3 = rhs(v + 0.5 * h * k2)
    k4 = rhs(v + h * k3)
    return v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


class _OdeStepper:
    """RK4 step(batch, t) of v' = -v + F(v) for rows of states (F takes components first).

    It steps only the RK4 reference trajectory.  Its rows share everything,
    so it serves any subset of them.  `rhs` is `F.fn(u) - u`, bit-equal to
    -u + F(u) (IEEE a - b is a + (-b)) without the negation or
    `Nonlinearity.__call__`'s conversion; the rows are already float arrays.
    """

    def __init__(self, F: Nonlinearity, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = dt
        self.rhs = lambda u: F.fn(u) - u
        self.failed = {}  # no row fails: an orbit that leaves its box raises EscapeError

    def step(self, batch, t):
        return _rk4_step(batch.T, self.dt, self.rhs).T

    def rows(self, keep):
        return self


def evolve_ode(v0: np.ndarray, F: Nonlinearity, T: float, dt: float = 1e-3,
               stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Classic RK4 on v' = -v + F(v) in the whole steps of `dt` that cover T.

    Returns (times, values), recorded at t = 0, every `stride` steps and
    after the last step.  `v0` may be a single state (n,) or a batch (n, m)
    integrated in lockstep.
    """
    v = np.atleast_1d(np.asarray(v0, dtype=float))
    times, states = _sampled(_OdeStepper(F, dt), v.T, _step_count(T, dt), stride)
    return times, states.swapaxes(1, -1)  # each state back to (n,) or (n, m)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit of a positive trajectory quantity."""

    fitted_rate: float
    residual: float
    theoretical_rate: float
    truncated: bool


_FLOOR = 1e-290


def decay_rate_fit(times: np.ndarray, w_xhalf: np.ndarray, lam2: float,
                   mu: float | None = None) -> DecayFit:
    """Fit log(w_xhalf) ~ log A - rate * t over the post-transient window.

    The window discards the first 20% of the horizon.  Samples at or
    below the machine floor are dropped and the fit flagged as truncated;
    the residual (RMS misfit of the line) is always reported.  The
    theoretical rate is lam2 - mu (nan without mu).
    """
    mask = times >= 0.2 * times[-1]
    alive = w_xhalf > _FLOOR
    truncated = bool(np.any(mask & ~alive))
    mask &= alive
    if np.count_nonzero(mask) < 2:
        # underflow ate the window: fall back to the usable prefix
        mask = alive.copy()
        truncated = True
        if np.count_nonzero(mask) < 2:
            raise ValueError("quantity not positive on enough samples to fit")
        usable_end = times[mask][-1]
        mask &= (times >= 0.2 * usable_end)
        if np.count_nonzero(mask) < 2:
            mask = alive
    ts = times[mask]
    ys = np.log(w_xhalf[mask])
    slope, intercept = np.polyfit(ts, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * ts + intercept)) ** 2)))
    theo = lam2 - mu if mu is not None else float("nan")
    return DecayFit(fitted_rate=float(-slope), residual=resid, theoretical_rate=theo,
                    truncated=truncated)
