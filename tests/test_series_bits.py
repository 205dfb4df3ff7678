"""The series route's outputs, pinned bit for bit.

``goldens/series_bits.json`` holds, for six case-II/III families on the
nine-point schedule a = 10^(-2 - i/2), every ``SweepRecord`` field as
``float.hex``, the orbit indices, every ``LambdaData`` field and a sha256 of
the raw series density's breakpoint and value bytes; plus the rows of
``counterexample_sequence(24)``.  A speed-up of the orbit walk, the series
sums or Wasserstein-1 must reproduce all of it exactly.

A change that is meant to move these numbers regenerates the file with
``PYTHONPATH=src python tests/test_series_bits.py`` and says which rows moved
and why.  Making the case-II stopping rules relative to ||f||_1 moved the
case-II rows: the first three families below, and the counterexample rows,
whose maps (s1 = s2 = 2) are case II too; the case-III rows did not move.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

from acimlab.density import solve_series
from acimlab.experiments import Family, counterexample_sequence, sweep

GOLDEN = Path(__file__).parent / "goldens" / "series_bits.json"
FAMILIES = (
    (1.5, 3.0, 3.0, 2.0, 2.0),
    (2.0, 2.0, 1.0, 1.0, 1.0),
    (1.25, 5.0, 1.0, 2.0, 1.0),
    (3.0, 3.0, 1.0, 1.0, 1.0),
    (2.5, 4.0, 1.0, 1.0, 1.0),
    (3.0, 5.0, 0.5, 2.0, 1.5),
)
SCHEDULE = tuple(10.0 ** (-2 - 0.5 * i) for i in range(9))
COUNTEREXAMPLE_N = 24


def _bits(value):
    """JSON-safe exact form: floats as hex, containers element-wise."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    return value


def series_bits() -> dict:
    points = []
    for fam in FAMILIES:
        family = Family(*fam)
        for a in SCHEDULE:
            (record,) = sweep(family, [a])
            solution = solve_series(family.at(a))
            orbit, raw = solution.orbit, solution.density
            digest = hashlib.sha256(raw.breakpoints.tobytes() + raw.values.tobytes())
            points.append(
                {
                    "family": _bits(fam),
                    "record": {k: _bits(v) for k, v in dataclasses.asdict(record).items()},
                    "k": orbit.k,
                    "k1": orbit.k1,
                    "closed_form_k": orbit.closed_form_k,
                    "lambda": {k: _bits(v) for k, v in dataclasses.asdict(solution.lam).items()},
                    "density_sha256": digest.hexdigest(),
                }
            )
    rows = [
        {k: _bits(v) for k, v in dataclasses.asdict(row).items()}
        for row in counterexample_sequence(COUNTEREXAMPLE_N)
    ]
    return {"points": points, "counterexample": rows}


def test_series_outputs_match_pinned_bits():
    expected = json.loads(GOLDEN.read_text())
    produced = series_bits()
    assert len(produced["points"]) == len(expected["points"]) == 54
    for got, want in zip(produced["points"], expected["points"]):
        assert got == want, (want["family"], want["record"]["a"])
    assert produced["counterexample"] == expected["counterexample"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(series_bits(), indent=1) + "\n")
