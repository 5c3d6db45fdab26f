"""Temporal factor: the nonlinear Cauchy problem Q(d/dt) phi = lambda_1 phi^2.

Q is the monic polynomial t^m + c_{m-1} t^{m-1} + ... + c_0, and the initial
data prescribe phi and its first m-1 derivatives at t = 0 from the parameter
vector, phi^(j)(0) = lambda_{j+2}.  The problem converts to a first-order
system of dimension m integrated with the classical fourth-order one-step
scheme at a fixed step, so trajectories are bit-reproducible.  Nonlinear
growth can be genuine (for m = 1, c_0 = 0 the solution is the Riccati
hyperbola lambda_2 / (1 - lambda_1 lambda_2 t)), so a partial trajectory cut
at a blow-up ceiling is a first-class output, not an error.

The reported residual |Q(d/dt) phi - lambda_1 phi^2| differentiates the
highest stored derivative by finite differences of the sample sequence; the
defining right side is not reused, so the number measures the integrator
rather than restating it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CauchySpec",
    "Trajectory",
    "solve_cauchy",
]

CEILING = 1e12  # a state leaving the ball of this radius has blown up


@dataclass(frozen=True)
class CauchySpec:
    """One Cauchy problem: Q coefficients, parameter vector, horizon, step.

    Every step starts inside the ball |y| <= s, s = max(CEILING, |y(0)|),
    where |y'| <= F(r) = |lambda_1| r^2 + (sum_j |c_j| + 1) r, so the
    RK4 stages stay within r_2 = s + h F(s)/2, r_3 = s + h F(r_2)/2 and
    r_4 = s + h F(r_3), and the update within h F(r_4).  A step h for which
    F(r_4) max(h, 1) overflows float64 is refused, naming tau and the
    horizon: its stages could overflow where the solution stays finite.
    """

    m: int
    c: tuple  # (c_0, ..., c_{m-1}); Q is monic
    lam: tuple  # (lambda_1, ..., lambda_{m+1}), lambda_1 != 0
    horizon: float
    tau: float | None = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("polynomial degree m must be at least 1")
        if len(self.c) != self.m:
            raise ValueError(f"need {self.m} lower coefficients, got {len(self.c)}")
        if len(self.lam) != self.m + 1:
            raise ValueError(
                f"parameter vector needs {self.m + 1} entries, got {len(self.lam)}"
            )
        for name, v in (("c", self.c), ("lambda", self.lam)):
            if not np.isfinite(np.asarray(v, dtype=complex)).all():
                raise ValueError(f"{name} must be finite, got {v}")
        if self.lam[0] == 0:
            raise ValueError("lambda_1 must be nonzero")
        for name, value in (("horizon", self.horizon), ("tau", self.step)):
            if not 0 < value < np.inf:
                raise ValueError(
                    f"{name} must be finite and positive, got {value}")
        # Python floats, which overflow to inf without a warning
        lam1 = abs(complex(self.lam[0]))
        lin = sum(abs(complex(c)) for c in self.c) + 1.0
        s = max(CEILING, *(abs(complex(v)) for v in self.lam[1:]))
        h, r = min(self.step, self.horizon), s
        for frac in (0.5, 0.5, 1.0):
            r = s + frac * h * (lam1 * r * r + lin * r)
        if not (lam1 * r * r + lin * r) * max(h, 1.0) < np.inf:
            raise ValueError(
                f"step {h:.6g} overflows: the RK4 stages of a step from "
                f"|y| <= {s:g} leave float64; shorten tau or the horizon")

    @property
    def step(self) -> float:
        return self.tau if self.tau is not None else 1e-3 * self.horizon

    @property
    def initial_state(self) -> np.ndarray:
        return np.asarray(self.lam[1:], dtype=np.complex128)


@dataclass
class Trajectory:
    """Samples of phi and its derivatives up to order m-1 on a time grid."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), m)
    residuals: np.ndarray
    blew_up: bool = False
    blowup_time: float | None = None
    spec: CauchySpec | None = None

    @property
    def values(self) -> np.ndarray:
        return self.states[:, 0]


def _rhs(spec: CauchySpec):
    m = spec.m
    lam1 = complex(spec.lam[0])
    c = np.asarray(spec.c, dtype=np.complex128)

    def f(y: np.ndarray) -> np.ndarray:
        out = np.empty_like(y)
        out[: m - 1] = y[1:]
        out[m - 1] = lam1 * y[0] * y[0] - np.sum(c * y)
        return out

    return f


def _fd_residual(spec: CauchySpec, times: np.ndarray,
                 states: np.ndarray) -> np.ndarray:
    """|Q(d/dt) phi - lambda_1 phi^2| with the top derivative taken by
    differencing the stored phi^(m-1) samples."""
    if len(times) < 3:
        return np.zeros(len(times))
    top = np.gradient(states[:, -1], times)
    q = top.astype(np.complex128)
    for i, ci in enumerate(spec.c):
        q += ci * states[:, i]
    return np.abs(q - spec.lam[0] * states[:, 0] ** 2)


def solve_cauchy(spec: CauchySpec) -> Trajectory:
    """Integrate the problem to the horizon or to blow-up.

    Classical fourth-order one-step scheme with the fixed step spec.step
    (one shorter final step closes any remainder).  Stops as soon as the
    state leaves the finite ball of radius CEILING and returns the
    finite part with the blow-up flag set.
    """
    f = _rhs(spec)
    tau = spec.step
    y = spec.initial_state.copy()
    t = 0.0
    times = [0.0]
    states = [y.copy()]
    blew_up = False
    blowup_time = None
    n_full = int(np.floor(spec.horizon / tau + 1e-12))
    steps = [tau] * n_full
    rest = spec.horizon - n_full * tau
    if rest > 1e-12 * spec.horizon:
        steps.append(rest)
    for h in steps:
        k1 = f(y)
        k2 = f(y + (h / 2.0) * k1)
        k3 = f(y + (h / 2.0) * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        if not np.all(np.isfinite(y.view(np.float64))) or (
            np.max(np.abs(y)) > CEILING
        ):
            blew_up = True
            blowup_time = t
            break
        times.append(t)
        states.append(y.copy())
    times = np.asarray(times)
    states = np.vstack(states)
    return Trajectory(
        times=times,
        states=states,
        residuals=_fd_residual(spec, times, states),
        blew_up=blew_up,
        blowup_time=blowup_time,
        spec=spec,
    )
