"""Implicit Newmark (average acceleration) time integration with a Newton
solve per step; dimension-agnostic, so full and reduced systems share it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, IntegrationError
from .models import Trajectory

__all__ = ["NewmarkSettings", "TransientSystem", "newmark_integrate"]


#: Average-acceleration Newmark parameters: unconditionally stable and
#: second-order accurate.
BETA = 0.25
GAMMA = 0.5

#: Secondary Newton acceptance: relative displacement increment. Residual
#: round-off from large internal forces can sit above newton_tol times a
#: quiet step's predictor residual; a stagnated machine-precision update is
#: then accepted on the increment.
NEWTON_UTOL = 1e-12

#: Blow-up guard: largest response, relative to the warm-up scale.
GROWTH_LIMIT = 1e6


@dataclass(frozen=True)
class NewmarkSettings:
    """Newton tolerance and iteration cap of the integrator."""

    newton_tol: float = 1e-8
    max_newton: int = 25

    def __post_init__(self):
        if self.max_newton < 1:
            raise ContractError("max_newton must be >= 1")


class TransientSystem(ABC):
    """Residual/tangent provider for the integrator.

    Time enters a system only through ``begin_step(t_start, t_end)``: there
    it freezes everything time dependent for one step (temperature, load,
    reduction basis and origin); the default is a no-op. The integrator
    calls it once per step, and once as ``begin_step(0, 0)`` before the
    initial residual, and evaluates every residual and iteration matrix of
    the step at ``t_end``. Before the first call it hands the system the
    intervals of all these calls, in order, through :meth:`plan_steps`,
    so that a system can freeze the time-only quantities of many steps at
    once; the default ignores the plan, and a system must still answer a
    ``begin_step`` that is not the next planned one (the systems of
    :mod:`thermrom.rom` freeze that one interval alone). The residual is
    ``M a + C v + f(u) - g`` in whatever coordinates the system lives in.

    ``iteration_matrix(c_acc, c_vel)`` is the tangent at the state of the
    last ``residual`` call; the integrator calls it once per Newton
    iteration, after the residual of the current iterate. So a system
    evaluates its weak form at most once per iterate, in ``residual``, and
    keeps what the tangent needs (a force affine in the state, ``K u + b``,
    needs at most one evaluation per step). What it keeps must not refer to the system: the
    reference cycle would keep it alive until a full garbage collection.
    The integrator updates a step's Newton iterates in place, in the rows
    of its histories, so a system that needs a state past the next
    iteration copies it.
    """

    @property
    @abstractmethod
    def ndof(self) -> int: ...

    def plan_steps(self, t_start: np.ndarray, t_end: np.ndarray) -> None:
        """The intervals of every ``begin_step`` call of a run, in call
        order, the initial ``(0, 0)`` first."""
        return None

    def begin_step(self, t_start: float, t_end: float) -> None:
        return None

    @abstractmethod
    def mass(self) -> np.ndarray: ...

    @abstractmethod
    def residual(self, u, v, a) -> np.ndarray: ...

    @abstractmethod
    def iteration_matrix(self, c_acc, c_vel) -> np.ndarray:
        """Effective tangent ``c_acc*M + c_vel*C + K_t(u)`` at the ``u`` of
        the last :meth:`residual`, in whatever storage :meth:`solve` takes."""

    def solve(self, s_mat, rhs) -> np.ndarray:
        """Solve ``s_mat x = rhs`` for an :meth:`iteration_matrix`; dense
        by default."""
        return np.linalg.solve(s_mat, rhs)


def newmark_integrate(system, u0, v0, dt, n_steps, settings=None,
                      coordinate_space="full", metadata=None):
    """Integrate ``n_steps`` implicit Newmark steps from ``(u0, v0)``.

    The initial acceleration is solved consistently from the residual at
    ``t = 0``. Each step runs Newton-Raphson on the end-of-step displacement
    until the residual drops below ``newton_tol`` relative to the step's
    predictor residual. A residual norm that is not finite, or blow-up
    beyond ``GROWTH_LIMIT`` times the initial response scale, aborts with
    :class:`IntegrationError`. Returns a :class:`Trajectory` including the
    per-step converged residual norms and Newton iteration counts.
    """
    settings = settings or NewmarkSettings()
    dt = float(dt)
    if dt <= 0.0 or n_steps < 1:
        raise ContractError("need dt > 0 and n_steps >= 1")
    n = system.ndof
    u = np.asarray(u0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    if u.shape != (n,) or v.shape != (n,):
        raise ContractError(f"initial state must have shape ({n},)")

    times = dt * np.arange(n_steps + 1)
    hist_u = np.empty((n_steps + 1, n))
    hist_v = np.empty((n_steps + 1, n))
    hist_a = np.empty((n_steps + 1, n))
    step_residuals = np.zeros(n_steps + 1)
    newton_iterations = np.zeros(n_steps + 1, dtype=int)

    system.plan_steps(np.concatenate(([0.0], times[:-1])), times)
    system.begin_step(0.0, 0.0)
    rhs0 = -system.residual(u, v, np.zeros(n))
    # Every norm is sqrt(x.dot(x)), the arithmetic of np.linalg.norm for a
    # vector without its per-call overhead.
    res_hist = [math.sqrt(rhs0.dot(rhs0))]
    if not math.isfinite(res_hist[0]):
        raise _not_finite(res_hist, 0, 0.0)
    a = np.linalg.solve(system.mass(), rhs0)
    hist_u[0], hist_v[0], hist_a[0] = u, v, a

    c_acc = 1.0 / (BETA * dt * dt)
    c_vel = GAMMA / (BETA * dt)
    # The scalar factors of the predictor and corrector, as the products
    # associate left to right.
    c_pred_u = dt * dt * (0.5 - BETA)
    c_pred_v = dt * (1.0 - GAMMA)
    c_corr_v = GAMMA * dt
    zero = np.zeros(n)
    # Response scale for blow-up detection is established over a short
    # warmup window (zero initial conditions start at amplitude zero).
    warmup = min(100, n_steps)
    ref_amp = max(math.sqrt(u.dot(u)), 1e-300)

    for step in range(1, n_steps + 1):
        t1 = times[step]
        system.begin_step(times[step - 1], t1)

        u_pred = u + dt * v + c_pred_u * a
        v_pred = v + c_pred_v * a
        u1, v1, a1 = u_pred, v_pred, zero

        r = system.residual(u1, v1, a1)
        r_ref = math.sqrt(r.dot(r))
        res_hist = [r_ref]
        if not math.isfinite(r_ref):
            raise _not_finite(res_hist, step, t1)
        iters = 0
        while res_hist[-1] > settings.newton_tol * r_ref and r_ref > 0.0:
            if iters >= settings.max_newton:
                raise IntegrationError(
                    f"Newton stalled at step {step} (t = {t1:.6g}), residual "
                    f"{res_hist[-1]:.3e}",
                    step=step, time=t1, residual_history=res_hist,
                )
            s_mat = system.iteration_matrix(c_acc, c_vel)
            du = system.solve(s_mat, -r)
            # The iterate lives in the step's history rows: the accepted one
            # is not copied.
            u1 = np.add(u1, du, out=hist_u[step])
            a1 = np.subtract(u1, u_pred, out=hist_a[step])
            a1 *= c_acc
            v1 = np.multiply(c_corr_v, a1, out=hist_v[step])
            v1 += v_pred
            r = system.residual(u1, v1, a1)
            res_hist.append(math.sqrt(r.dot(r)))
            if not math.isfinite(res_hist[-1]):
                raise _not_finite(res_hist, step, t1)
            iters += 1
            amp = math.sqrt(u1.dot(u1))
            if math.sqrt(du.dot(du)) <= NEWTON_UTOL * (1.0 + amp):
                break
        if iters == 0:
            hist_u[step], hist_v[step], hist_a[step] = u1, v1, a1
            amp = math.sqrt(u1.dot(u1))
        newton_iterations[step] = iters
        step_residuals[step] = res_hist[-1]

        u, v, a = hist_u[step], hist_v[step], hist_a[step]
        if step <= warmup:
            ref_amp = max(ref_amp, amp)
        elif amp > GROWTH_LIMIT * ref_amp:
            raise IntegrationError(
                f"response grew beyond {GROWTH_LIMIT:.1e} times the "
                f"initial scale at step {step} (t = {t1:.6g})",
                step=step, time=t1,
            )

    meta = dict(metadata or {})
    meta.setdefault("dt", dt)
    iters = newton_iterations[1:]
    meta["max_newton_iterations"] = int(iters.max())
    meta["mean_newton_iterations"] = float(iters.mean())
    meta["p99_newton_iterations"] = float(np.percentile(iters, 99))
    meta["max_step_residual"] = float(step_residuals.max())
    return Trajectory(
        times=times,
        displacement=hist_u,
        velocity=hist_v,
        acceleration=hist_a,
        coordinate_space=coordinate_space,
        metadata=meta,
        step_residuals=step_residuals,
        newton_iterations=newton_iterations,
    )


def _not_finite(res_hist, step, t):
    """The error for a residual norm, the last of ``res_hist``, that is not
    finite."""
    return IntegrationError(f"residual is not finite at step {step} (t = {t:.6g})",
                            step=step, time=t, residual_history=res_hist)
