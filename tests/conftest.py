"""Shared draw helpers for randomized property tests (all seeded), and the
environment for tests that run the CLI as a child process."""

import os
from pathlib import Path

import numpy as np
import pytest

import acimlab
from acimlab.wmap import WParams


def valid_a_max(s1, s2, p, q, r):
    """Largest a keeping the map valid (lift below 1, breakpoints ordered)."""
    bounds = [0.5 / r]
    if 2 * r > p:
        bounds.append((s1 - 1) / (2 * r - p))
    if 2 * r > q:
        bounds.append((s2 - 1) / (2 * r - q))
    return min(bounds)


def draw_rates(rng):
    p, q, r = rng.uniform(0.3, 3.0, 3)
    return float(p), float(q), float(r)


def draw_a(rng, s1, s2, p, q, r, a_cap=0.1, a_min=1e-4):
    cap = min(valid_a_max(s1, s2, p, q, r), a_cap)
    # keep the turning-point orbit in its structured regime: the lifted image
    # must land on the falling branch, r*a*(s2 + q*a - 1) < 1/2
    cap = min(cap, 0.45 / (r * (s2 + q * a_cap - 1)))
    return float(rng.uniform(a_min, max(0.6 * cap, 2 * a_min)))


def draw_case_i(rng):
    """1/s1 + 1/s2 > 1, with a below the invariant-interval sign threshold.

    The turning image stays under the interval's right endpoint only while
    a*(q*s1 + p*s2 - p - q + p*q*a) < s1 + s2 - s1*s2, so a is capped at
    half that root.
    """
    s1 = float(rng.uniform(1.15, 1.9))
    s2_boundary = s1 / (s1 - 1)
    s2 = float(1.1 + rng.uniform(0.1, 0.85) * (s2_boundary - 1.1))
    p, q, r = draw_rates(rng)
    sign_cap = 0.5 * (s1 + s2 - s1 * s2) / (q * s1 + p * s2 - p - q + p * q * 0.05)
    a = draw_a(rng, s1, s2, p, q, r, a_cap=min(0.05, sign_cap))
    return WParams(s1, s2, p, q, r, a)


def draw_case_ii(rng, a_cap=0.1):
    """s2 on the boundary s1/(s1 - 1); s1 <= 2 keeps s1 <= s2."""
    s1 = float(rng.uniform(1.2, 2.0))
    s2 = s1 / (s1 - 1)
    p, q, r = draw_rates(rng)
    a = draw_a(rng, s1, s2, p, q, r, a_cap=a_cap)
    return WParams(s1, s2, p, q, r, a)


def draw_case_iii(rng, a_cap=0.1):
    """1/s1 + 1/s2 < 1 with s1 <= s2."""
    s1 = float(rng.uniform(2.05, 3.5))
    s2 = float(rng.uniform(s1, 5.0))
    p, q, r = draw_rates(rng)
    a = draw_a(rng, s1, s2, p, q, r, a_cap=a_cap)
    return WParams(s1, s2, p, q, r, a)


def draw_any_case(rng):
    pick = rng.integers(0, 3)
    return (draw_case_i, draw_case_ii, draw_case_iii)[pick](rng)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def cli_env():
    """Environment for `python -m acimlab.cli` child processes.

    The children run in a temporary directory, where a relative PYTHONPATH
    (such as `src`) no longer resolves. Prepend the absolute directory that
    holds the package this test run imported, so each child imports the same
    checkout rather than failing or picking up another installed copy.
    RuntimeWarnings are errors in the children too, as pyproject's
    filterwarnings makes them in this process.
    """
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    package_root = str(Path(acimlab.__file__).resolve().parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root + (os.pathsep + inherited if inherited else "")
    return env
