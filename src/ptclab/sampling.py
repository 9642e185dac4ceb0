"""Seeded sample points in (p, m, t) for numeric operator comparisons.

Momentum components are drawn uniformly from [-2, 2] with a guard band around
zero, so rational coefficients in p, m, E stay away from their singular set.
Masses and times cycle through small fixed menus; the defaults reproduce the
golden outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0x5EED
DEFAULT_COUNT = 20
DEFAULT_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-8
MIN_COMPONENT = 1e-3


@dataclass(frozen=True)
class Point:
    p1: float
    p2: float
    p3: float
    m: float
    t: float

    @property
    def energy(self) -> float:
        return math.sqrt(self.p1 ** 2 + self.p2 ** 2 + self.p3 ** 2 + self.m ** 2)

    def env(self) -> dict:
        return {
            "p1": self.p1,
            "p2": self.p2,
            "p3": self.p3,
            "m": self.m,
            "t": self.t,
            "E": self.energy,
        }


def sample_points(
    count: int = DEFAULT_COUNT,
    seed: int = DEFAULT_SEED,
    masses: tuple = (1.0, 1.7),
    times: tuple = (0.0, 0.6),
    momentum_range: float = 2.0,
    min_component: float = MIN_COMPONENT,
) -> list:
    """Draw `count` reproducible sample points.

    Components with |p_a| < min_component are rejected and redrawn, so all
    points are generic.  Pass masses=(0.0,) for massless sampling; the
    momentum guard keeps |p| bounded away from zero there as well.
    """
    check_settings(seed=seed, samples=count)
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        p = rng.uniform(-momentum_range, momentum_range, size=3)
        if np.any(np.abs(p) < min_component):
            continue
        i = len(points)
        m = masses[i % len(masses)]
        t = times[(i // len(masses)) % len(times)]
        points.append(Point(float(p[0]), float(p[1]), float(p[2]), float(m), float(t)))
    return points


def check_settings(seed=None, samples=None, tol=None, rank_tol=None):
    """Raise ValueError for a setting outside its range; None skips a check.

    The seed is a non-negative integer (what numpy's generators accept),
    there is at least one sample, tol is finite and positive, and rank_tol is
    a finite fraction of the largest singular value, strictly inside (0, 1).
    """
    for name, value in (("seed", seed), ("samples", samples)):
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if rank_tol is not None and not (math.isfinite(rank_tol) and 0 < rank_tol < 1):
        raise ValueError(f"rank_tol must be finite and in (0, 1), got {rank_tol!r}")


def env_arrays(points) -> dict:
    """Stack points into a vectorized evaluation environment."""
    arr = {
        name: np.array([getattr(pt, name) for pt in points], dtype=float)
        for name in ("p1", "p2", "p3", "m", "t")
    }
    arr["E"] = np.sqrt(arr["p1"] ** 2 + arr["p2"] ** 2 + arr["p3"] ** 2 + arr["m"] ** 2)
    return arr
