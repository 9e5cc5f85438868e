"""Stdout of representative CLI invocations, pinned byte for byte.

Each invocation's stdout is compared with a file in ``tests/golden/``. The
sampled invocations run at small n with ``--chunk-size 4096 --threads 2``,
so several chunks are drawn by more than one worker; ``scatter`` takes only
``--seed`` and draws its 500 draws as one default-size chunk. Any change that moves a
single bit of an interval, point estimate or draw shows up here.

A change that moves fitted parameters or draws in the last bits re-captures
these files, but only after checking the new stdout numerically against the
old files under a tolerance stated beforehand. The bracketed-root fitter did
so at 1e-12 relative (see CHANGES.md). ROADMAP item 1, the tabulated
inverse-CDF kernel, did so together with the Rogan-Gladen operation order
under this tolerance: identical keys, key order, non-numeric text and
integers; byte-identical fit residuals; every full-precision number within
1e-10 relative; every 10-significant-digit ``sweep_4_rows`` cell within one
unit in its last digit. The beta fit through ``special.btdtrib`` did so with
identical keys, key order, text and integers, every float other than a fit
residual within 1e-13 relative, and every fit residual at most 1e-15. To
re-capture them, run ``PYTHONPATH=src python tests/test_golden_stdout.py``.

To measure how far the current stdout has drifted from another set of
files (say, a parent commit's ``tests/golden``), run
``PYTHONPATH=src python tests/test_golden_stdout.py --compare DIR --rtol R``.
It requires identical keys, key order, other text and integers, checks
every float within R relative, prints the maximum drift per file, and
exits 1 if any file fails. Fit residuals are the exception: they sit near
1e-16, where any change reads as a relative drift of order 1, so the floats
inside ``fit_residuals`` are held to the absolute bound ``RESIDUAL_BOUND``
instead and reported on their own line, as the largest old and new value.
"""

import argparse
import contextlib
import io
import itertools
import pathlib
import re
import shutil
import sys

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


def _stdout(name: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(INVOCATIONS[name])
    assert code == 0
    return buf.getvalue()


# a number standing on its own, not part of a name like x1 or a version 0.1.0
_NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?(?![\w.])")


# fit residuals are held to this absolute bound, not to a relative tolerance
RESIDUAL_BOUND = 1e-15

_RESIDUALS = re.compile(r'"fit_residuals": \[[^\]]*\]')


def drift(expected: str, actual: str) -> tuple[float, list[tuple[float, float]]]:
    """The largest relative difference between the floats of two outputs.

    Everything else must be identical: keys, key order, other text, and
    integers (numbers written without a point or an exponent). A mismatch
    raises ``ValueError`` naming the first line where it shows. The floats
    inside ``fit_residuals`` are left out of the relative difference and
    returned instead, as (old, new) pairs.
    """
    lines = itertools.zip_longest(
        expected.splitlines(True), actual.splitlines(True), fillvalue=""
    )
    for i, (old, new) in enumerate(lines, start=1):
        if _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
            raise ValueError(f"line {i}: text differs: {old!r} vs {new!r}")
    spans = [m.span() for m in _RESIDUALS.finditer(expected)]
    worst, residuals = 0.0, []
    for match, new in zip(_NUMBER.finditer(expected), _NUMBER.findall(actual)):
        old = match.group()
        if not all(any(c in token for c in ".eE") for token in (old, new)):
            if old != new:
                raise ValueError(f"integer {old} became {new}")
            continue
        a, b = float(old), float(new)
        if any(lo <= match.start() < hi for lo, hi in spans):
            residuals.append((a, b))
        elif a != b:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return worst, residuals


def compare_text(name: str, expected: str, actual: str, rtol: float) -> bool:
    """Print one output's drift from its golden; within rtol and RESIDUAL_BOUND?"""
    try:
        worst, residuals = drift(expected, actual)
    except ValueError as exc:
        print(f"{name}: FAIL: {exc}")
        return False
    ok = worst <= rtol
    verdict = "ok" if ok else f"FAIL: above rtol {rtol:g}"
    print(f"{name}: max relative drift {worst:.3g}: {verdict}")
    if residuals:
        old, new = (max(column) for column in zip(*residuals))
        within = new <= RESIDUAL_BOUND
        verdict = "ok" if within else f"FAIL: above {RESIDUAL_BOUND:g}"
        print(f"{name}: max fit residual {old:.3g} -> {new:.3g}: {verdict}")
        ok = ok and within
    return ok


def compare(golden_dir, rtol: float) -> bool:
    """Print each invocation's drift from the files in golden_dir; all within bounds?"""
    ok = True
    for name in INVOCATIONS:
        expected = (pathlib.Path(golden_dir) / f"{name}.out").read_text()
        ok = compare_text(name, expected, _stdout(name), rtol) and ok
    return ok


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_stdout_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.out").read_text()
    assert _stdout(name) == expected


def test_compare_measures_drift(tmp_path, capsys):
    assert compare(GOLDEN_DIR, rtol=0.0)
    assert capsys.readouterr().out.count("max relative drift 0: ok") == len(INVOCATIONS)
    # one float moved by 1e-9 relative
    moved = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, moved)
    path = moved / "combine_hdv_rho05_hdi.out"
    text = path.read_text()
    low = float(re.search(r'"low": (\S+),', text).group(1))
    path.write_text(text.replace(repr(low), repr(low * (1 + 1e-9)), 1))
    assert not compare(moved, rtol=1e-12)
    assert compare(moved, rtol=1e-8)
    # an integer or a piece of text that differs fails at any tolerance
    with pytest.raises(ValueError, match="integer 20000 became 20001"):
        drift(text, text.replace("20000", "20001", 1))
    with pytest.raises(ValueError, match="line 5: text differs"):
        drift(text, text.replace('"hdi"', '"HDI"', 1))
    # a fit residual is held to RESIDUAL_BOUND at any rtol, not to rtol
    residual = re.search(r'"fit_residuals": \[\s*(\S+),', text).group(1)
    before = text.replace(residual, "3.5e-16", 1)
    assert compare_text("moved", before, before.replace("3.5e-16", "5.7e-16"), 0.0)
    assert not compare_text("moved", before, before.replace("3.5e-16", "2e-15"), 1.0)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Re-capture the golden stdout files, or with --compare, "
        "measure the current stdout's drift from another set of them."
    )
    parser.add_argument("--compare", metavar="DIR", help="directory of .out files")
    parser.add_argument(
        "--rtol", type=float, default=0.0, help="relative tolerance of --compare"
    )
    args = parser.parse_args()
    if args.compare is not None:
        sys.exit(0 if compare(args.compare, args.rtol) else 1)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in INVOCATIONS:
        (GOLDEN_DIR / f"{name}.out").write_text(_stdout(name))
        print(f"wrote {GOLDEN_DIR / (name + '.out')}")
