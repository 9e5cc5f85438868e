"""Stdout of representative CLI invocations, pinned byte for byte.

Each invocation's stdout is compared with a file in ``tests/golden/``. The
sampled invocations run at small n with ``--chunk-size 4096 --threads 2``,
so several chunks are drawn by more than one worker; ``scatter`` draws its
sample in one call and takes only ``--seed``. Any change that moves a
single bit of an interval, point estimate or draw shows up here.

A change that moves fitted parameters or draws in the last bits re-captures
these files, but only after checking the new stdout numerically against the
old files under a tolerance stated beforehand: identical keys, key order
and non-numeric text, every number within the stated relative tolerance,
no fit residual larger than before. The bracketed-root fitter did so at
1e-12 relative (see CHANGES.md). ROADMAP item 1, the tabulated inverse-CDF
kernel, did so together with the Rogan-Gladen operation order under this
tolerance: identical keys, key order, non-numeric text and integers;
byte-identical fit residuals; every full-precision number within 1e-10
relative; every 10-significant-digit ``sweep_4_rows`` cell within one unit
in its last digit. To re-capture them, run
``PYTHONPATH=src python tests/test_golden_stdout.py``.
"""

import contextlib
import io
import pathlib

import pytest

from copulaboot.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

SAMPLED = ["--n", "20000", "--chunk-size", "4096", "--threads", "2"]

SARS_CIS = [
    "--prev-ci", "0.136,0.204",
    "--sens-ci", "0.837,0.918",
    "--spec-ci", "0.857,0.975",
]

HDV_DISTS = ["--dist", "beta:0.027:0.050", "--dist", "beta:0.036:0.057"]

INVOCATIONS = {
    "combine_hdv_rho05_hdi": [
        "combine", *HDV_DISTS, "--expr", "x1*x2", "--sigma", "1,0.5;0.5,1",
        "--method", "hdi", "--seed", "123", *SAMPLED,
    ],
    "adjust_prev_rho_minus05_points": [
        "adjust-prev", *SARS_CIS,
        "--prev", "0.168",
        "--sens", "0.8814814814814815",
        "--spec", "0.9318181818181818",
        "--rho-sens-spec", "-0.5", "--method", "hdi", "--seed", "123", *SAMPLED,
    ],
    "sweep_4_rows": [
        "sweep", *SARS_CIS, "--rho-from", "0", "--rho-to", "-0.9", "--steps", "3",
        "--seed", "7", *SAMPLED,
    ],
    "scatter_m500": [
        "scatter", "--sens-ci", "0.837,0.918", "--spec-ci", "0.857,0.975",
        "--rho", "-0.5", "--m", "500", "--seed", "11",
    ],
    "combine_rogan_gladen": [
        "combine",
        "--dist", "beta:0.136:0.204",
        "--dist", "beta:0.837:0.918",
        "--dist", "beta:0.857:0.975",
        "--combiner", "roganGladen", "--seed", "5", *SAMPLED,
    ],
}


def _stdout(args) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_stdout_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.out").read_text()
    assert _stdout(INVOCATIONS[name]) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, args in INVOCATIONS.items():
        (GOLDEN_DIR / f"{name}.out").write_text(_stdout(args))
        print(f"wrote {GOLDEN_DIR / (name + '.out')}")
