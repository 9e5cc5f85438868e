"""Self-test of the benchmark itself (not of copulaboot). Takes about a minute.

    python3 benchmarks/selftest.py

Checks that:
- every end-to-end and per-layer metric named in BENCHMARK.json is printed,
  with its unit, for every workload (the passes run at tiny n);
- the traced pass restores every wrapped entry point;
- an expected layer that sees no calls is reported as missing, not as 0;
- each correctness gate passes on a real full-size operation and trips on a
  deliberately wrong reference;
- the determinism cross-check trips on a one-ulp difference;
- without src/ the benchmark exits non-zero and prints no result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import bench_pipeline as bp

bp.import_program()

import layertrace  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((bp.ROOT / "BENCHMARK.json").read_text())
TINY_N = 4000

failures = []


def check(ok: bool, what: str):
    print(("ok      " if ok else "FAILED  ") + what)
    if not ok:
        failures.append(what)


def tiny(workload):
    if isinstance(workload, workloads.CoverageTrials):
        return replace(workload, n=TINY_N, trials=2)
    return replace(workload, n=TINY_N)


def boundary_state():
    tracer = layertrace.Tracer()
    state = {}
    for path, attr, _ in layertrace._boundaries(tracer):
        owner = layertrace._resolve(path)
        state[(path, attr)] = vars(owner).get(attr)
    return state


def check_metrics(name, rows, spec_key):
    printed = {row[0]: row[2] for row in rows if row[1] is not None}
    for metric in SPEC[spec_key]:
        check(printed.get(metric["name"]) == metric["unit"],
              f"{name}: {metric['name']} printed in {metric['unit']}")


def check_workload(workload):
    small = tiny(workload)
    ledger = bp.Ledger(small)
    rows = bp.end_to_end(small, workloads.op_seeds(1), 0, ledger)
    check_metrics(workload.name, rows, "end_to_end")

    before = boundary_state()
    rows = bp.traced(small, workloads.op_seeds(1), 0, ledger, seed=1)
    check(boundary_state() == before, f"{workload.name}: trace wrappers restored")
    check_metrics(workload.name, rows, "per_layer")
    check(not [r for r in rows if r[1] is None],
          f"{workload.name}: no expected layer missing")

    # a layer the workload never reaches, declared expected, must be missing
    absent = "coverage.run" if workload.name != "coverage_trials" else "exprlang.eval"
    rows = bp.traced(replace(small, expected=small.expected + (absent,)),
                     workloads.op_seeds(1), 0, ledger, seed=1)
    missing = {r[0] for r in rows if r[1] is None}
    check(bool(missing), f"{workload.name}: unexpected-zero layer {absent} "
          f"reported missing ({sorted(missing)})")


WRONG = {
    "hdv_product": ((0.0016, 0.0032), 2e-4),
    "sars_prevalence": ((0.048, 0.204), 0.003),
    "coverage_trials": (0.02, 0.01, 0.999),
}


def check_gate(workload):
    outcome = workload.run(next(workloads.op_seeds(2)), workload.threads)
    ok, detail = workload.gate(outcome)
    check(ok, f"{workload.name}: gate passes on a real op: {detail}")
    if workload.name == "closed_form_expr":
        (low, upp), tol = workloads.closed_form_reference()
        wrong = ((low + 10 * tol[0], upp), tol)
    else:
        wrong = WRONG[workload.name]
    ok, detail = workload.gate(outcome, wrong)
    check(not ok, f"{workload.name}: gate trips on a wrong reference: {detail}")
    if workload.name == "coverage_trials":
        ok, detail = workload.run_gate([outcome] * 5, wrong)
        check(not ok, f"{workload.name}: pooled gate trips on a wrong reference: {detail}")
        ok, detail = workload.run_gate([outcome] * 5)
        check(ok, f"{workload.name}: pooled gate passes on real ops: {detail}")


def check_determinism_check():
    ledger = bp.Ledger(None)
    same = workloads.Outcome((0.001, 0.0026), 1, {})
    ulp = workloads.Outcome((0.001, 0.0026 + 4e-19), 1, {})
    ledger.compare({"a": same, "b": same})
    ledger.compare({"a": same, "b": ulp})
    ledger.compare({"a": same, "b": None})
    check((ledger.attempted, ledger.failed) == (3, 2),
          "determinism check trips on a one-ulp difference and on a failed op")


def check_bare_directory():
    bare = bp.SPAN_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(bp.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(bp.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + ["--workload", "hdv_product", "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"bare directory: exit {proc.returncode}, no result printed")


def main() -> int:
    catalogue = workloads.all_workloads()
    check(sorted(catalogue) == sorted(w["name"] for w in SPEC["workloads"]),
          "BENCHMARK.json lists exactly the implemented workloads")
    for workload in catalogue.values():
        check_workload(workload)
        check_gate(workload)
    check_determinism_check()
    check_bare_directory()
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
