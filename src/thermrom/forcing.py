"""Seeded random perturbation loading for the curved-beam experiments.

The load is ``g(t) = l0*sin(omega_c*t) + eps*l1*a(t)``: a uniform-pressure
carrier plus a small random perturbation whose shape is a seeded
combination of the first five modes and whose amplitude ``a(t)`` is
per-step uniform noise with all frequency content above the third natural
frequency removed by a zero-phase spectral cut, then renormalized into
[0, 1].

``l1`` is the consistent load of the mode-shaped distributed field, i.e.
``M @ (sum_i c_i phi_i)`` rescaled so ``|l1|_2 = |l0|_2``. Using the mass
weighting keeps the perturbation spectrally confined to the combined modes
(mass-orthogonality) and keeps its response comparable to the carrier's;
raw mass-normalized mode vectors are dominated by their rotation entries
and would act as large nodal moments instead of a small distributed noise
field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

__all__ = ["PerturbationForcing", "lowpass_filter", "make_perturbation"]


def lowpass_filter(samples, dt, cutoff_rad):
    """Zero-phase brick-wall low-pass of evenly sampled data.

    Zeroes every discrete-Fourier bin with angular frequency above
    ``cutoff_rad`` and transforms back; the result is real and phase free.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    spectrum = np.fft.rfft(samples)
    freqs = 2.0 * np.pi * np.fft.rfftfreq(n, d=dt)
    spectrum[freqs > cutoff_rad] = 0.0
    return np.fft.irfft(spectrum, n=n)


@dataclass
class PerturbationForcing:
    """Carrier + filtered-noise load realization on a fixed time grid."""

    l0: np.ndarray
    l1: np.ndarray
    amplitude: np.ndarray
    times: np.ndarray
    omega_carrier: float
    cutoff: float

    def __post_init__(self):
        self._dt = float(self.times[1] - self.times[0])

    def amplitude_at(self, t):
        """Noise amplitude at a grid time; ``t`` must lie on the grid."""
        k = int(round(t / self._dt))
        if not 0 <= k < self.times.size or abs(t - self.times[k]) > 1e-9 * max(self._dt, 1.0):
            raise ContractError(f"time {t!r} is not on the forcing grid")
        return self.amplitude[k]

    def leading_load(self, t):
        """Load at zero scale separation, ``l0*sin(omega_c*t)``."""
        return self.l0 * np.sin(self.omega_carrier * t)

    def eps_load(self, t):
        """Derivative of the load with respect to the scale parameter."""
        return self.l1 * self.amplitude_at(t)

    def full_load(self, t, eps):
        return self.leading_load(t) + eps * self.eps_load(t)


def make_perturbation(l0, modes, omega3, times, seed, omega_carrier, mass):
    """Build the seeded perturbation for one run.

    ``modes`` are the first five mass-normalized modes at the mid-span pulse
    configuration; the combination coefficients are drawn uniformly from
    (0, 1), the shape is weighted by ``mass`` (consistent load of the
    combined field, see module docstring) and rescaled to
    ``|l1|_2 = |l0|_2``. ``a(t)`` is drawn per grid node, low-passed at
    ``omega3`` and mapped affinely onto [0, 1]. The same seed reproduces
    both bit-identically.
    """
    l0 = np.asarray(l0, dtype=float)
    modes = np.asarray(modes, dtype=float)
    times = np.asarray(times, dtype=float)
    if modes.ndim != 2 or modes.shape[0] != l0.size:
        raise ContractError("modes must be columns matching the load dimension")
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(0.0, 1.0, size=modes.shape[1])
    l1 = mass @ (modes @ coeffs)
    l1 *= np.linalg.norm(l0) / np.linalg.norm(l1)

    raw = rng.uniform(0.0, 1.0, size=times.size)
    dt = float(times[1] - times[0])
    filtered = lowpass_filter(raw, dt, omega3)
    lo, hi = filtered.min(), filtered.max()
    if hi > lo:
        amplitude = (filtered - lo) / (hi - lo)
    else:
        amplitude = np.zeros_like(filtered)
    return PerturbationForcing(
        l0=l0, l1=l1, amplitude=amplitude, times=times,
        omega_carrier=float(omega_carrier), cutoff=float(omega3),
    )
