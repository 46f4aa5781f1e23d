"""Measurement loop, checks and metrics of one benchmark run; see run.py."""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from doubleslit import (ExperimentConfig, QubitBehavior, accumulate, build_grids, build_mask,
                        cli, derive, intensity, render_mask, screen_state_weights, validate,
                        write_mask_file, write_profile_svg, write_report)

import cases
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "doubleslit"
# Set-up runs in a fresh interpreter several times, spread evenly over the
# run so the median samples the host's speed across it.
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
# Other tenants of a shared host slow this process by up to 60 % for
# seconds to minutes at a time, and a 30 s run cannot outlast that.  A fixed
# numpy loop shaped like the kernel's rows (a complex exponential over 1024
# points, then a cumulative sum, 64 times) slows with it: in 15 s windows
# of sweep-small ops the median op time ranged over 38 % of its median and
# the median of op time over the loop's time next to it over 5 %.  The loop
# uses numpy alone, so no change to the program changes it.
_CAL_RNG = np.random.default_rng(0)
CAL_SLIT = np.sort(_CAL_RNG.random(1024))
CAL_ROWS = _CAL_RNG.random(64)
# A round figure for the loop's time on the host of bench/BASELINE.json,
# where it ran in 1.5 ms when quiet and up to 3 ms when contended: scaled
# times read as seconds on a host that runs the loop in 2 ms.
CAL_REFERENCE_S = 2.0e-3
# The host's speed changes within a second, so next to a long operation the
# loop runs for a share of its time rather than once.  Its rows are split
# over as many threads as the operations use: over 67 large-none operations
# (two threads) the spread (IQR/median) of op time over the loop's time was
# 0.14 with two threads and 0.21 with one, against 0.21 for op time alone.
CAL_SHARE = 0.05

SETUP_CODE = """\
import json, sys
import doubleslit, doubleslit.cli
from doubleslit import ExperimentConfig, GeometryMode, build_grids, derive
kwargs = json.loads(sys.argv[1])
kwargs["geometry_mode"] = GeometryMode(kwargs["geometry_mode"])
config = ExperimentConfig(**kwargs)
build_grids(config, derive(config))
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_op(case: cases.Case, outdir: Path) -> tuple[float, object]:
    """One CLI call into an empty ``outdir``: (wall seconds, exit code or error)."""
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    argv = case.argv(outdir)
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback fails the operation, not the run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code


def _calibration_rows(rows: np.ndarray) -> None:
    for x in rows:
        d = x - CAL_SLIT
        np.exp(1j * (d * d)).cumsum()[-1]


class HostClock:
    """Scales wall times to the reference host speed of ``CAL_REFERENCE_S``.

    The calibration loop runs before the first timed event and after each
    one, for ``CAL_SHARE`` of the last event's time, with its rows split
    over as many threads as the events use; an event's time is divided by
    the mean of the loop's times on either side of it.  Call
    ``recalibrate`` when something else ran since the last event.
    """

    def __init__(self, threads: int):
        self.blocks = np.array_split(CAL_ROWS, threads)
        self.pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
        self.loops = 1
        self.calibrations = []
        self.recalibrate()

    def recalibrate(self) -> None:
        """Times the loop afresh, as the base for the next event."""
        self.calibrations.append(self.loop_seconds(self.loops))

    def loop_seconds(self, loops: int) -> float:
        """Mean wall time of ``loops`` runs of the calibration loop."""
        start = time.perf_counter()
        for _ in range(loops):
            if self.pool is None:
                _calibration_rows(CAL_ROWS)
            else:
                list(self.pool.map(_calibration_rows, self.blocks))
        return (time.perf_counter() - start) / loops

    def scale(self, seconds: float) -> float:
        self.loops = max(1, round(CAL_SHARE * seconds / CAL_REFERENCE_S))
        self.recalibrate()
        return seconds * 2 * CAL_REFERENCE_S / sum(self.calibrations[-2:])

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()


def per_case_median(times_by_case: list[list[float]]) -> float:
    """Mean over cases of each case's median time, so every config of a
    sweep weighs the same whatever its size and however often it ran."""
    return statistics.mean(statistics.median(t) for t in times_by_case)


def _check(case: cases.Case, outdir: Path, code) -> cases.Outcome:
    try:
        return cases.check(case, outdir, code)
    except (OSError, ValueError, KeyError, StopIteration, IndexError) as exc:
        return cases.Outcome([f"outputs unreadable: {type(exc).__name__}: {exc}"])


def _setup_seconds(config: ExperimentConfig) -> float:
    """Wall time of a fresh interpreter that sets up ``config``, as a user sees it."""
    kwargs = dataclasses.asdict(config)
    kwargs["geometry_mode"] = kwargs["geometry_mode"].value
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(kwargs)],
                   cwd=ROOT, env=_child_env(), check=True)
    return time.perf_counter() - start


def _import_seconds() -> dict[str, float]:
    """Cumulative import time of each package module, from ``-X importtime``.

    Cumulative includes the third-party modules a module is first to import:
    ``analysis`` is imported first and carries numpy and scipy.signal.
    """
    samples: dict[str, list[float]] = {layer: [] for layer in tracing.LAYERS}
    line = re.compile(r"import time:\s*\d+ \|\s*(\d+) \|\s*doubleslit\.(\w+)\s*$")
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import doubleslit, doubleslit.cli"],
                              cwd=ROOT, env=_child_env(), check=True,
                              capture_output=True, text=True)
        for match in map(line.match, proc.stderr.splitlines()):
            if match and match.group(2) in samples:
                samples[match.group(2)].append(int(match.group(1)) * 1e-6)
    return {layer: statistics.median(v) for layer, v in samples.items()}


def _weights_probe(case: cases.Case) -> float:
    """A standalone ``screen_state_weights`` call per behavior of the case."""
    start = time.perf_counter()
    for b in case.behaviors:
        screen_state_weights(b, case.config.n_positions)
    return time.perf_counter() - start


def _all_profiles(case: cases.Case) -> dict:
    """The case's profile for every behavior, as ``validate`` needs them."""
    derived = derive(case.config)
    grids = build_grids(case.config, derived)
    return {b: intensity(accumulate(case.config, derived, grids, b, threads=case.threads))
            for b in QubitBehavior}


def _output_probes(case: cases.Case, profiles: dict, probe_dir: Path) -> dict[str, float]:
    """Standalone calls of the output stage on the case's profiles.

    Every workload times them, also where its operations write no SVG,
    masks or report, so each figure means the same call on every workload.
    """
    probe_dir.mkdir(parents=True, exist_ok=True)
    own = [profiles[b] for b in case.behaviors]
    start = time.perf_counter()
    masks = [build_mask(b, cases.MASK_N) for b in case.behaviors]
    for mask in masks:
        render_mask(mask)
    mask_s = time.perf_counter() - start
    start = time.perf_counter()
    for profile in own:
        write_profile_svg(profile, probe_dir / f"profile_{profile.behavior.value}.svg")
    svg_s = time.perf_counter() - start
    start = time.perf_counter()
    for mask in masks:
        write_mask_file(mask, probe_dir / f"mask_{mask.behavior.value}.txt")
    mask_file_s = time.perf_counter() - start
    start = time.perf_counter()
    report = validate(profiles, case.config)
    validate_s = time.perf_counter() - start
    start = time.perf_counter()
    write_report(report, probe_dir / "report.json")
    report_s = time.perf_counter() - start
    return {"qubit.mask_s": mask_s, "reporting.svg_s": svg_s,
            "reporting.mask_file_s": mask_file_s, "reporting.report_s": report_s,
            "analysis.validate_s": validate_s}


def _peak_alloc_mb(case: cases.Case) -> float:
    """tracemalloc peak across ``accumulate``, largest over the case's behaviors."""
    derived = derive(case.config)
    grids = build_grids(case.config, derived)
    peak = 0
    tracemalloc.start()
    try:
        for b in case.behaviors:
            tracemalloc.reset_peak()
            accumulate(case.config, derived, grids, b, threads=case.threads)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _layer_metrics(case: cases.Case, spans, outdir: Path, profiles: dict) -> dict[str, float]:
    """Per-layer figures of one traced operation and the probes after it."""
    inclusive, layer_self = tracing.op_profile(spans)
    accumulate_s = inclusive["propagation.accumulate"]
    metrics = {
        "propagation.accumulate_s": accumulate_s,
        "propagation.accumulate_cpu_s": sum(s.cpu for s in spans
                                            if s.name == "propagation.accumulate"),
        "propagation.pair_terms": case.pair_terms,
        "propagation.ns_per_pair": accumulate_s / case.pair_terms * 1e9,
        "propagation.intensity_s": inclusive["propagation.intensity"],
        "reporting.csv_s": inclusive["reporting.write_profile_csv"],
        "reporting.bytes_written": sum(p.stat().st_size for p in outdir.rglob("*")
                                       if p.is_file()),
        "cli.parse_args_s": inclusive["cli.parse_args"],
        "physics.build_grids_s": inclusive["physics.build_grids"],
        "trace.self_sum_s": sum(layer_self.values()),
    }
    # analysis has no self_s: large-none's operations never call it, and
    # analysis.validate_s times its one call on every workload.
    metrics.update({f"{layer}.self_s": layer_self[layer]
                    for layer in tracing.LAYERS if layer != "analysis"})
    metrics["qubit.weights_probe_s"] = _weights_probe(case)
    metrics.update(_output_probes(case, profiles, outdir.parent / "probe"))
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> tuple[dict, list[str]]:
    """Run one workload; returns the JSON result and human-readable lines.

    ``tiny`` shrinks the workload's inputs for the benchmark's own tests.
    """
    work = WORK / f"run-{os.getpid()}"
    try:
        return _run(workload, seed, seconds, trace, tiny, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
         work: Path) -> tuple[dict, list[str]]:
    pool = cases.build_cases(workload, seed, work / "configs", tiny=tiny)
    outdir = work / "out"
    tracer = tracing.Tracer() if trace else None
    # Warm-up on a tiny config through every output and the thread pool, so
    # lazy imports and first-call costs stay out of the timed operations.
    warm_up = cases.make_case(ExperimentConfig(n_positions=16), cases.ALL,
                              ("--n", "16", "--threads", "2"), cases.EVERY_OUTPUT, 1,
                              np.random.default_rng(0))
    _run_op(warm_up, outdir)

    profiles = [_all_profiles(case) for case in pool] if trace else None
    # Wall and scaled times of each case's operations, and of the set-ups.
    untraced, traced = [[] for _ in pool], [[] for _ in pool]
    scaled_untraced, scaled_traced = [[] for _ in pool], [[] for _ in pool]
    per_op, failures, setup, scaled_setup = [], [], [], []
    clock = HostClock(pool[0].threads)  # all cases of a workload use one thread count
    attempted = failed = 0
    case_err, pairwise = [0.0] * len(pool), None
    try:
        start = time.perf_counter()
        k = 0
        setup_runs = 0 if trace else SETUP_REPEATS
        # Every case runs at least once, so the oracle error covers the whole pool.
        while (k < len(pool) or len(setup) < setup_runs
               or time.perf_counter() - start < seconds):
            if (len(setup) < setup_runs
                    and time.perf_counter() - start >= len(setup) * seconds / setup_runs):
                # A set-up is one fresh single-threaded interpreter.
                setup_clock = HostClock(1)
                setup.append(_setup_seconds(pool[len(setup) % len(pool)].config))
                scaled_setup.append(setup_clock.scale(setup[-1]))
                clock.recalibrate()
                continue
            case = pool[k % len(pool)]
            # A traced run times each case untraced and traced, alternating the order.
            modes = ((False, True) if k % 2 == 0 else (True, False)) if trace else (False,)
            for traced_op in modes:
                op = attempted
                if traced_op:
                    first = len(tracer.spans)
                    with tracer.tracing(op):
                        elapsed, code = _run_op(case, outdir)
                    scaled_traced[k % len(pool)].append(clock.scale(elapsed))
                    per_op.append(_layer_metrics(case, tracer.spans[first:], outdir,
                                                 profiles[k % len(pool)]))
                    traced[k % len(pool)].append(elapsed)
                else:
                    elapsed, code = _run_op(case, outdir)
                    scaled_untraced[k % len(pool)].append(clock.scale(elapsed))
                    untraced[k % len(pool)].append(elapsed)
                outcome = _check(case, outdir, code)
                attempted += 1
                if outcome.failures:
                    failed += 1
                    failures += [f"op {op}: {f}" for f in outcome.failures]
                case_err[k % len(pool)] = max(case_err[k % len(pool)], outcome.oracle_err)
                pairwise = outcome.pairwise if outcome.pairwise is not None else pairwise
            k += 1
    finally:
        clock.close()

    pass_s = per_case_median(scaled_untraced)
    ops = sorted(t for times in untraced for t in times)
    speed = CAL_REFERENCE_S / statistics.median(clock.calibrations)
    lines = [f"workload {workload}  seed {seed}  trace {int(trace)}",
             f"fail_ratio = {failed}/{attempted} = {failed / attempted:.4g}", *failures[:10]]
    if trace:
        metrics = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
        metrics["propagation.peak_alloc_mb"] = _peak_alloc_mb(
            max(pool, key=lambda c: c.pair_terms))
        metrics.update({f"{layer}.import_s": v for layer, v in _import_seconds().items()})
        metrics["trace.overhead_s"] = per_case_median(scaled_traced) - pass_s
        lines += [
            f"pass_s untraced = {pass_s:.6g} s over {len(ops)} ops, traced = "
            f"{per_case_median(scaled_traced):.6g} s over {sum(map(len, traced))} ops "
            f"(scaled to the reference host speed)",
            f"wall time untraced = {per_case_median(untraced):.6g} s, traced = "
            f"{per_case_median(traced):.6g} s, at {speed:.3f} of the reference speed",
            f"sum of layer self times = {metrics['trace.self_sum_s']:.6g} s, "
            f"{metrics['trace.self_sum_s'] - per_case_median(untraced):.3g} s from the "
            f"untraced wall time; "
            f"trace.overhead_s = {metrics['trace.overhead_s']:.3g} s",
            "qubit.weights_probe_s is a standalone screen_state_weights call; accumulate "
            "makes the same call again inside propagation.accumulate_s",
            "propagation.pair_terms is computed from N and the behaviors, not counted",
            "<module>.import_s is cumulative, with the third-party modules it imports first",
        ]
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / "traces" / f"spans_{workload}_{seed}.jsonl")
    else:
        metrics = {
            "setup_s": statistics.median(scaled_setup),
            "pass_s": pass_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "oracle_digits": statistics.mean(-math.log10(max(e, 1e-17)) for e in case_err),
        }
        lines += [
            f"setup_s = {metrics['setup_s']:.6g} s (median of {len(setup)} fresh interpreters; "
            f"wall time {statistics.median(setup):.6g} s)",
            f"pass_s = {pass_s:.6g} s (median per config, mean over {len(pool)} config(s), "
            f"{len(ops)} ops; wall time {per_case_median(untraced):.6g} s)",
            f"host ran at {speed:.3f} of the reference speed (calibration median "
            f"{statistics.median(clock.calibrations) * 1e3:.4g} ms over "
            f"{len(clock.calibrations)} loops, reference {CAL_REFERENCE_S * 1e3:g} ms)",
            *([f"op wall time over all ops: p90 {ops[math.ceil(0.9 * len(ops)) - 1]:.6g} s"]
              if len(ops) >= 100 else []),
            f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB",
            f"oracle_err = {max(case_err):.4g} of the peak over {len(pool)} config(s), "
            f"{sum(len(c.samples) for c in pool)} points x {len(pool[0].behaviors)} behavior(s); "
            f"oracle_digits = {metrics['oracle_digits']:.4f} (mean over configs)",
            f"max kernel phase = {max(c.max_phase for c in pool):.4g} rad",
        ]
    if pairwise is not None:
        lines.append(f"normalization_pairwise = {pairwise:.4g} against its 1e-06 gate "
                     f"(known red, informational)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines
