"""Seeded sample points in (p, m, t) for numeric operator comparisons.

Momentum components are drawn uniformly from [-2, 2] with a guard band around
zero, so rational coefficients in p, m, E stay away from their singular set.
Masses and times cycle through small fixed menus.  In the package only
`algebra --dump-generators` reads a sample point; every check decides on the
exact normal form, and the tests use these points as an independent,
sampled reference.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .vocabulary import DEFAULT_COUNT, DEFAULT_SEED, check_settings

MOMENTUM_RANGE = 2.0
MIN_COMPONENT = 1e-3


class Point(NamedTuple):
    p1: float
    p2: float
    p3: float
    m: float
    t: float


def sample_points(
    count: int = DEFAULT_COUNT,
    seed: int = DEFAULT_SEED,
    masses: tuple = (1.0, 1.7),
    times: tuple = (0.0, 0.6),
) -> list:
    """Draw `count` reproducible sample points.

    Components with |p_a| < MIN_COMPONENT are rejected and redrawn, so all
    points are generic.  Pass masses=(0.0,) for massless sampling; the
    momentum guard keeps |p| bounded away from zero there as well.
    """
    check_settings(seed=seed, samples=count)
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        p = rng.uniform(-MOMENTUM_RANGE, MOMENTUM_RANGE, size=3)
        if np.any(np.abs(p) < MIN_COMPONENT):
            continue
        i = len(points)
        m = masses[i % len(masses)]
        t = times[(i // len(masses)) % len(times)]
        points.append(Point(float(p[0]), float(p[1]), float(p[2]), float(m), float(t)))
    return points


def env_arrays(points) -> dict:
    """Stack points into a vectorized evaluation environment: p1, p2, p3, m,
    t, the energy E and the connector norm W = sqrt(2E(E+m))."""
    arr = {
        name: np.array([getattr(pt, name) for pt in points], dtype=float)
        for name in ("p1", "p2", "p3", "m", "t")
    }
    arr["E"] = np.sqrt(arr["p1"] ** 2 + arr["p2"] ** 2 + arr["p3"] ** 2 + arr["m"] ** 2)
    arr["W"] = np.sqrt(2 * arr["E"] * (arr["E"] + arr["m"]))
    return arr
