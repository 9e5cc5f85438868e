"""copulaboot benchmark: one workload per process, closed loop.

Run from the repository root:

    python3 benchmarks/bench_pipeline.py --workload hdv_product --seed 1 \
        --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation:
``interval_s_p50`` (median wall seconds per operation after one warm-up
operation), ``draws_per_s``, ``setup_s`` (median wall time of a fresh
interpreter importing ``copulaboot.cli``) and ``peak_rss_mb``. ``error_rate``
is printed with them and carried by ``failed``/``attempted`` in the result.

``--trace 1`` runs the per-layer pass. Each cycle runs one operation seed
untraced at threads=nproc, untraced at threads=1, and traced at threads=1;
the three intervals must agree bit-for-bit. Per-layer numbers come from
``layertrace``, which wraps module boundaries from outside the package.

Every operation is gated on a correctness check (see ``workloads``). The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` also counts each
determinism check of the traced pass and a workload's pooled run gate. The program is imported from
``src/`` of the checkout and nowhere else; without it the benchmark exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
IMPORT_CODE = f"import sys; sys.path.insert(0, {str(SRC)!r}); import copulaboot.cli"


def import_program():
    """Import copulaboot from this checkout's src/, or exit 2."""
    if not (SRC / "copulaboot" / "__init__.py").is_file():
        sys.exit(f"error: no copulaboot package under {SRC}")
    sys.path.insert(0, str(SRC))
    import copulaboot

    if Path(copulaboot.__file__).resolve().parent != SRC / "copulaboot":
        sys.exit(f"error: copulaboot imported from {copulaboot.__file__}, not {SRC}")


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _size_bytes(size: str) -> int:
    # sysfs cache sizes read like "2048K"
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if size[-1:] in units:
        return int(size[:-1]) * units[size[-1]]
    return int(size) if size.isdigit() else 0


def environment(workload) -> dict:
    """Versions, CPU and cache sizes (read-only), and computed chunk bytes."""
    import numpy
    import scipy

    from copulaboot import engine

    model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Data", "Unified"):
            caches[f"L{level}"] = _read(index / "size")
    chunk = engine.BootstrapConfig(n=engine.MIN_DRAWS).chunk_size
    chunk_bytes = chunk * workload.d * 8
    l2 = _size_bytes(caches.get("L2", ""))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_per_core": caches,
        # computed from the chunk size, not measured: one float64 array of a
        # chunk's draws (chunk x d) and one marginal's column (chunk)
        "chunk_size": chunk,
        "computed_chunk_array_bytes": chunk_bytes,
        "computed_chunk_column_bytes": chunk * 8,
        "computed_chunk_array_over_l2": chunk_bytes / l2 if l2 else None,
    }


# ---------------------------------------------------------------------------
# end-to-end pass


def measure_setup() -> float:
    """Median wall seconds for a fresh interpreter to import copulaboot.cli."""
    cmd = [sys.executable, "-c", IMPORT_CODE]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, timeout=120)
        if i:  # the first import may compile bytecode; users pay that once
            times.append(time.perf_counter() - start)
    return statistics.median(times)


class Ledger:
    """Attempted and failed operations; every op runs and is gated in ``run``."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.outcomes = {}  # op seed -> outcome, for the workload's run gate

    def run(self, seed: int, threads: int):
        """Run and gate one op; return (seconds, outcome or None)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = self.workload.run(seed, threads)
        except Exception:
            elapsed = time.perf_counter() - start
            self.failed += 1
            print(f"op failed (seed {seed}, threads {threads}):", file=sys.stderr)
            traceback.print_exc()
            return elapsed, None
        elapsed = time.perf_counter() - start
        self.outcomes[seed] = outcome
        self.check(self.workload.gate(outcome), f"seed {seed}")
        return elapsed, outcome

    def check(self, verdict, what: str):
        ok, detail = verdict
        if not ok:
            self.failed += 1
            print(f"correctness gate failed ({what}): {detail}", file=sys.stderr)

    def finish(self):
        """Apply the workload's gate over all of the run's distinct ops."""
        verdict = self.workload.run_gate(list(self.outcomes.values()))
        if verdict is not None:
            self.attempted += 1
            self.check(verdict, "pooled over the run")

    def compare(self, outcomes: dict):
        """Count one determinism check: every run's fingerprint must agree."""
        self.attempted += 1
        fingerprints = {label: out.fingerprint for label, out in outcomes.items() if out}
        if len(fingerprints) == len(outcomes) and len(set(fingerprints.values())) == 1:
            return
        self.failed += 1
        print(f"determinism check failed: {fingerprints}", file=sys.stderr)


def _keep_going(start: float, seconds: float, last: float) -> bool:
    return time.perf_counter() - start + last <= seconds


def end_to_end(workload, seeds, seconds: float, ledger: Ledger) -> list:
    setup = measure_setup()
    ledger.run(next(seeds), workload.threads)  # warm-up, gated but not timed
    times, draws = [], 0
    start = time.perf_counter()
    while True:
        elapsed, outcome = ledger.run(next(seeds), workload.threads)
        times.append(elapsed)
        draws += outcome.draws if outcome else 0
        if not _keep_going(start, seconds, statistics.median(times)):
            break
    return [
        ("interval_s_p50", statistics.median(times), "s", f"median of {len(times)} ops"),
        ("draws_per_s", draws / sum(times), "1/s", f"{draws} draws"),
        ("setup_s", setup, "s", f"median of {SETUP_REPEATS} imports"),
        ("peak_rss_mb", peak_rss_mb(), "MB", "this process"),
    ]


# ---------------------------------------------------------------------------
# traced pass


def import_breakdown() -> dict:
    """Median self seconds of each package's modules while importing the CLI."""
    cmd = [sys.executable, "-X", "importtime", "-c", IMPORT_CODE]
    samples = {"copulaboot": [], "scipy": [], "numpy": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            cmd, check=True, cwd=ROOT, timeout=120, capture_output=True, text=True
        )
        totals = dict.fromkeys(samples, 0.0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            top = name.strip().split(".")[0]
            if top in totals:
                totals[top] += int(self_us) / 1e6
        for key, value in totals.items():
            samples[key].append(value)
    return {key: statistics.median(v) for key, v in samples.items()}


def traced(workload, seeds, seconds: float, ledger: Ledger, seed: int) -> list:
    import layertrace

    nproc = len(os.sched_getaffinity(0))
    imports = import_breakdown()
    tracer = layertrace.Tracer()
    ledger.run(next(seeds), workload.threads)  # warm-up
    t_n, t_1, t_tr = [], [], []
    start = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        op_seed = next(seeds)
        a, out_n = ledger.run(op_seed, nproc)
        b, out_1 = ledger.run(op_seed, 1)
        tracer.op = len(t_tr)
        with layertrace.installed(tracer):
            c, out_tr = ledger.run(op_seed, 1)
        t_n.append(a)
        t_1.append(b)
        t_tr.append(c)
        ledger.compare({f"threads={nproc}": out_n, "threads=1": out_1,
                        "traced threads=1": out_tr})
        if not _keep_going(start, seconds, time.perf_counter() - cycle):
            break

    SPAN_DIR.mkdir(exist_ok=True)
    (SPAN_DIR / f"spans-{workload.name}-{seed}.json").write_text(
        json.dumps({"columns": ["op", "name", "start", "end", "parent"],
                    "spans": tracer.dump()})
    )
    breakdown(tracer, len(t_tr), statistics.median(t_tr))
    rows = []
    for name, value, unit, guard in layer_rows(tracer, len(t_tr), t_n, t_1, t_tr, imports):
        if guard in workload.expected and not tracer.seen(guard):
            # an expected layer that saw no calls is a gap, never a zero
            print(f"warning: {name}: expected layer {guard} saw no calls",
                  file=sys.stderr)
            rows.append((name, None, unit, f"MISSING: {guard} saw no calls"))
        else:
            rows.append((name, value, unit, ""))
    return rows


def layer_rows(tracer, ops, t_n, t_1, t_tr, imports) -> list:
    """(name, value, unit, guard key) for every per-layer metric, per op."""
    self_t, calls, counts = tracer.self_time, tracer.calls, tracer.counts

    def per_op(value):
        return value / ops

    rows = []
    for fam in ("beta", "normal", "exponential"):
        key = f"distributions.quantile.{fam}"
        values = counts[f"distributions.quantile_values.{fam}"]
        rows += [
            (f"distributions.quantile_s.{fam}", per_op(self_t[key]), "s", key),
            (f"distributions.quantile_n.{fam}", per_op(values), "count", key),
            (f"distributions.quantile_ns.{fam}",
             self_t[key] / values * 1e9 if values else 0.0, "ns", key),
        ]
    trials = counts["coverage.trials"]
    drawn = counts["engine.drawn"]
    rows += [
        ("copula.ndtri_s", per_op(self_t["copula.ndtri"]), "s", "copula.ndtri"),
        ("copula.ndtr_s", per_op(self_t["copula.ndtr"]), "s", "copula.ndtr"),
        ("copula.ndtri_n", per_op(counts["copula.ndtri_values"]), "count", "copula.ndtri"),
        ("copula.block_s", per_op(self_t["copula.block"]), "s", "copula.block"),
        ("copula.factor_s", per_op(self_t["copula.factor"]), "s", "copula.factor"),
        ("copula.clamped_n", per_op(counts["copula.clamped"]), "count", "rng.uniforms"),
        ("rng.uniforms_s", per_op(self_t["rng.uniforms"]), "s", "rng.uniforms"),
        ("rng.uniforms_n", per_op(counts["rng.uniform_values"]), "count", "rng.uniforms"),
        ("rng.streams_n", per_op(counts["rng.streams"]), "count", "rng.streams"),
        ("fitting.fit_s", per_op(self_t["fitting.fit"]), "s", "fitting.fit"),
        ("fitting.fits_n", per_op(calls["fitting.fit"]), "count", "fitting.fit"),
        ("fitting.cdf_evals_n", per_op(counts["fitting.cdf_evals"]), "count", "fitting.cdf_evals"),
        ("fitting.max_residual", tracer.maxima.get("fitting.max_residual", 0.0), "prob", "fitting.fit"),
        ("exprlang.eval_s", per_op(self_t["exprlang.eval"]), "s", "exprlang.eval"),
        ("exprlang.eval_n", per_op(counts["exprlang.eval_values"]), "count", "exprlang.eval"),
        ("engine.combine_s", per_op(self_t["engine.combine"]), "s", "engine.combine"),
        ("engine.summary_s", per_op(self_t["engine.summary"]), "s", "engine.summary"),
        ("engine.self_s", per_op(self_t["engine.boot_comb"] + self_t["engine.chunk"]), "s", "engine.boot_comb"),
        ("engine.chunks_n", per_op(calls["engine.chunk"]), "count", "engine.chunk"),
        ("engine.sample_bytes", tracer.maxima.get("engine.sample_bytes", 0.0), "B", "engine.boot_comb"),
        ("engine.thread_speedup", statistics.median(t_1) / statistics.median(t_n), "ratio", None),
        ("prevalence.kept_frac", counts["engine.kept"] / drawn if drawn else 0.0, "ratio", "engine.boot_comb"),
        ("coverage.trial_s", tracer.total_time["coverage.run"] / trials if trials else 0.0, "s", "coverage.run"),
        ("coverage.clopper_pearson_s", per_op(self_t["coverage.clopper_pearson"]), "s", "coverage.clopper_pearson"),
        ("coverage.excluded_frac", counts["coverage.excluded"] / trials if trials else 0.0, "ratio", "coverage.run"),
        ("coverage.hits_n", per_op(counts["coverage.hits"]), "count", "coverage.run"),
        ("trace.overhead_frac", statistics.median(t_tr) / statistics.median(t_1) - 1.0, "ratio", None),
        ("cli.import_copulaboot_s", imports["copulaboot"], "s", None),
        ("cli.import_scipy_s", imports["scipy"], "s", None),
        ("cli.import_numpy_s", imports["numpy"], "s", None),
    ]
    return rows


def breakdown(tracer, ops, op_seconds):
    """Self-time shares of the traced op, to standard error."""
    print(f"traced op {op_seconds:.4f} s (median of {ops}); self time per op:",
          file=sys.stderr)
    spent = 0.0
    for name, total in sorted(tracer.self_time.items(), key=lambda kv: -kv[1]):
        spent += total / ops
        print(f"  {name:34s} {total / ops:9.5f} s  {total / ops / op_seconds:6.1%}",
              file=sys.stderr)
    rest = op_seconds - spent
    print(f"  {'(outside any span)':34s} {rest:9.5f} s  {rest / op_seconds:6.1%}",
          file=sys.stderr)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    catalogue = workloads.all_workloads()
    if args.workload not in catalogue:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(catalogue)}")
    workload = catalogue[args.workload]
    seeds = workloads.op_seeds(args.seed)
    ledger = Ledger(workload)

    print(f"# workload {workload.name}: n={workload.n} method={workload.method} "
          f"threads={workload.threads} seed={args.seed} trace={args.trace}")
    print("# env " + json.dumps(environment(workload)))

    if args.trace:
        rows = traced(workload, seeds, args.seconds, ledger, args.seed)
    else:
        rows = end_to_end(workload, seeds, args.seconds, ledger)
    ledger.finish()

    for name, value, unit, note in rows:
        shown = "-" if value is None else repr(value)
        print(f"{name:34s} {shown} {unit}" + (f"  ({note})" if note else ""))
    print(f"{'error_rate':34s} {ledger.failed / ledger.attempted!r} ratio  "
          f"({ledger.failed} failed of {ledger.attempted} attempted)")
    metrics = {
        name: {"value": value, "unit": unit}
        for name, value, unit, note in rows
        if value is not None
    }
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
