"""Seeded workload definitions for the linresp benchmark.

A workload is a list of CLI commands, each a subcommand name plus the job
config written for it.  The seed only chooses inputs; the program under
test receives nothing but the generated config files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The wavy map 2x + 0.1 sin(2 pi x): mode -1 is 0.05i and mode +1 is -0.05i.
WAVY = {"degree": 2,
        "periodic_part": {"N": 1, "coeffs": [[0.0, 0.05], [0.0, 0.0], [0.0, -0.05]]}}
DOUBLING = {"degree": 2, "periodic_part": {"N": 0, "coeffs": [[0.0, 0.0]]}}

# At N=64 the program refuses some of these maps with a density fixed-point
# residual above 1e-9 (truncation error, and the fixed quadrature of ROADMAP
# item 3); a quarter of the seeds from 1 to 60 have such a map.  At N=96
# every seed from 1 to 300 and 1000 to 1100 resolves, so a run has no
# failed operation whose count would hinge on the run's length.
SWEEP_ORDER = 96
# Degrees of the seven random maps.  Fixed rather than drawn, so that the
# cost of a sweep, which grows with the number of branches, does not hinge
# on the seed's degree mix; the seed draws everything else.
SWEEP_DEGREES = (2, 2, 3, 3, 3, 4, 4)
MAX_FREQUENCY = 4
MIN_SLOPE_RANGE = (1.3, 2.5)


@dataclass(frozen=True)
class Command:
    subcommand: str
    config: dict
    label: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # seed -> list[Command]


def _series_dict(coeffs: np.ndarray) -> dict:
    order = (coeffs.size - 1) // 2
    return {"N": order, "coeffs": [[float(c.real), float(c.imag)] for c in coeffs]}


def _random_trig(rng, max_terms: int) -> np.ndarray:
    """Zero-mean real trigonometric polynomial with 1..max_terms frequencies <= 4."""
    count = int(rng.integers(1, max_terms + 1))
    freqs = rng.choice(np.arange(1, MAX_FREQUENCY + 1), size=count, replace=False)
    c = np.zeros(2 * MAX_FREQUENCY + 1, dtype=complex)
    for k in freqs:
        amp = rng.uniform(0.2, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        c[MAX_FREQUENCY + k] = 0.5 * amp * np.exp(1j * phase)
        c[MAX_FREQUENCY - k] = np.conj(c[MAX_FREQUENCY + k])
    return c


def _min_derivative(coeffs: np.ndarray, size: int = 4096) -> float:
    """Minimum over a fine grid of p'(x) for the series p with these coefficients."""
    order = (coeffs.size - 1) // 2
    n = np.arange(-order, order + 1)
    spectrum = np.zeros(size, dtype=complex)
    spectrum[n % size] = 2j * np.pi * n * coeffs
    return float(np.min((np.fft.ifft(spectrum) * size).real))


def random_map(rng, degree: int) -> dict:
    """Map with 1-3 frequencies <= 4, scaled so min T' is drawn from [1.3, 2.5].

    min T' = d + min p' is below d, so for degree 2 the upper end of the
    range is capped at 1.9.
    """
    shape = _random_trig(rng, 3)
    lo, hi = MIN_SLOPE_RANGE
    min_slope = rng.uniform(lo, min(hi, degree - 0.1))
    scale = (degree - min_slope) / -_min_derivative(shape)
    return {"degree": degree, "periodic_part": _series_dict(scale * shape)}


def random_epsilon(rng) -> dict:
    """Small zero-mean perturbation direction with 1-3 frequencies <= 4."""
    return _series_dict(rng.uniform(0.01, 0.1) * _random_trig(rng, 3))


def control_n256(seed: int) -> list[Command]:
    config = {"map": WAVY, "target": "mix", "weights": {"a": 0.5, "d": 1.0}, "N": 256}
    return [Command("control", config, "wavy-N256")]


def verify_bins64k(seed: int) -> list[Command]:
    config = {"map": WAVY, "target": "mix", "weights": {"a": 0.5, "d": 1.0}, "N": 64,
              "verify": {"delta": 1e-3, "bins": 2**16}}
    return [Command("verify", config, "wavy-N64-bins65536")]


def respond_sweep(seed: int) -> list[Command]:
    """The doubling map, then seven random maps, each with its own epsilon.

    Maps are used as drawn, never dropped or re-drawn: one the program
    cannot solve at SWEEP_ORDER counts as a failed operation.
    """
    rng = np.random.default_rng(seed)
    maps = [DOUBLING] + [random_map(rng, degree) for degree in SWEEP_DEGREES]
    return [Command("respond", {"map": m, "epsilon": random_epsilon(rng), "N": SWEEP_ORDER},
                    f"map{i}-degree{m['degree']}")
            for i, m in enumerate(maps)]


WORKLOADS = {w.name: w for w in (
    Workload("control-n256",
             "linresp control at N=256 on the wavy map: Galerkin and constraint assembly "
             "plus the weighted SVD dominate, import is a small share",
             control_n256),
    Workload("verify-bins64k",
             "linresp verify at N=64 with 2^16 Ulam bins: Newton/Horner branch inversion "
             "dominates, dense linear algebra is under 3%",
             verify_bins64k),
    Workload("respond-sweep",
             "linresp respond at N=96 on 8 seeded maps: import and per-command overhead "
             "dominate, assembly runs on many small problems",
             respond_sweep),
)}
