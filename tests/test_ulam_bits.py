"""The Ulam route's outputs, pinned bit for bit.

``goldens/ulam_bits.json`` holds, for W maps at a = 1e-2 and 1e-3 on coarse,
odd and fine grids, a = 0 maps on half-aligned odd grids and two case-I
restricted maps (the second is the periodic chain that takes a Ritz
restart): a sha256 of the grid edges, of the forward CSR matrix's
``data``/``indices``/``indptr``, of the stationary density and of its
push-forward under the exact transfer operator; and, as ``float.hex``, the
L1 distance of the Ulam density to the series density (``h0`` at a = 0)
and the invariance residuals of both.  A speed-up of ``build_ulam``,
``refine_pair``/``l1_distance`` or ``transfer_operator_apply`` must
reproduce all of it exactly.

A change that is meant to move these numbers regenerates the file with
``PYTHONPATH=src python tests/test_ulam_bits.py`` and says which entries
moved and why.

The bits must not depend on how many threads BLAS runs: the route takes
its long dot products and norms with einsum, and the 2^14-bin entry is
checked under one and two OpenBLAS threads.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from acimlab.density import h0, l1_distance, normalize, solve_series, transfer_operator_apply
from acimlab.ulam import build_ulam, stationary_density
from acimlab.wmap import WParams, build_w_map, restricted_turning_map

GOLDEN = Path(__file__).parent / "goldens" / "ulam_bits.json"
W_FAMILIES = ((1.5, 3.0, 3.0, 2.0, 2.0), (2.5, 4.0, 1.0, 1.0, 1.0))
W_BINS = (2, 3, 7, 64, 1025, 4096)
FINE = ((1.5, 3.0, 3.0, 2.0, 2.0), 1e-2, 2**14)
AT_ZERO = ((1.5, 3.0), (2.0, 2.0))
AT_ZERO_BINS = (1025, 4095)
CASE_I = (
    ((1.5, 2.0, 1.0, 1.0, 1.0), 5e-3),
    ((1.883, 1.214, 1.605, 1.036, 1.886), 0.0053),  # periodic: takes a Ritz restart
)
CASE_I_BINS = 4096


def _sha(*arrays) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def _entry(label, pl_map, n_bins, align_half=False, exact=None):
    ulam = build_ulam(pl_map, n_bins, align_half=align_half)
    h = stationary_density(ulam)
    ph = transfer_operator_apply(pl_map, h)
    m = ulam.matrix
    entry = {
        "input": label,
        "edges": _sha(ulam.edges),
        "matrix": _sha(m.data, m.indices, m.indptr),
        "density": _sha(h.breakpoints, h.values),
        "push_forward": _sha(ph.breakpoints, ph.values),
        "ulam_residual": l1_distance(ph, h).hex(),
    }
    if exact is not None:
        entry["gap"] = l1_distance(exact, h).hex()
        entry["exact_residual"] = l1_distance(transfer_operator_apply(pl_map, exact), exact).hex()
    return entry


def ulam_bits() -> list:
    entries = []
    for fam in W_FAMILIES:
        for a in (1e-2, 1e-3):
            params = WParams(*fam, a)
            w, g = build_w_map(params), normalize(solve_series(params).density)
            for n in W_BINS + ((FINE[2],) if (fam, a) == FINE[:2] else ()):
                entries.append(_entry([list(fam), a.hex(), n], w, n, exact=g))
    for s1, s2 in AT_ZERO:
        w = build_w_map(WParams(s1, s2, 1.0, 1.0, 1.0, 0.0))
        for n in AT_ZERO_BINS:
            entries.append(_entry([[s1, s2], "a=0", n], w, n, align_half=True, exact=h0(s1, s2)))
    for fam, a in CASE_I:
        restricted = restricted_turning_map(WParams(*fam, a))
        entries.append(_entry([list(fam), a.hex(), CASE_I_BINS], restricted, CASE_I_BINS))
    return entries


def test_ulam_outputs_match_pinned_bits():
    expected = json.loads(GOLDEN.read_text())
    produced = ulam_bits()
    assert len(produced) == len(expected) == 31
    for got, want in zip(produced, expected):
        assert got == want, want["input"]


# prints the 2^14-bin entry, run from this directory
FINE_PROBE = """
import json
from acimlab.density import normalize, solve_series
from acimlab.wmap import WParams, build_w_map
from test_ulam_bits import FINE, _entry
params = WParams(*FINE[0], FINE[1])
g = normalize(solve_series(params).density)
print(json.dumps(_entry(None, build_w_map(params), FINE[2], exact=g)))
"""


def test_fine_entry_does_not_depend_on_blas_threads(cli_env):
    outputs = []
    for threads in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-c", FINE_PROBE],
            cwd=Path(__file__).parent,
            env={**cli_env, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(ulam_bits(), indent=1) + "\n")
