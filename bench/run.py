"""fermisect benchmark: seeded CLI request streams, timed in process.

Usage, from the repository root::

    python3 bench/run.py [--workload spectra|dump|oracles|all] [--seed N]
                         [--seconds S] [--trace 0|1]

One client drives ``fermisect.cli.main(argv)`` in this process in a closed
loop: the next request is sent only after the previous one returned.  A run
builds the workload's request list from ``--seed``, makes one untimed
warm-up pass whose outputs are checked against independent references, then
repeats timed passes until ``--seconds`` have passed (at least
``MIN_PASSES``).  Every later pass must reproduce the warm-up outputs byte
for byte.

End-to-end timings are in reference seconds: each latency is scaled by the
`speed_probe` times measured just before and after it, which takes out the
drift of a shared host's speed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer split (see
``spans.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
repeat every metric with its unit, plus the run environment.  A full record
of each run, and the spans of a traced run, go to ``bench/out/``.

The malformed requests of ``spectra`` probe input validation.  They are run
and checked in every pass and reported as ``fail_frac`` and
``malformed_rejected``, but they are not counted in ``attempted``/``failed``
and are left out of the latency percentiles.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3
#: Time of a `speed_probe` call at the reference speed.  End-to-end
#: timings are reported in seconds at that speed; the ``raw_*`` entries of
#: the run record hold plain wall seconds.
REF_SLICE_S = 0.006
SETUP_RUNS = 5
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); from fermisect import cli; "
              "raise SystemExit(cli.main([]))")
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_s.p50": "s",
    "req_s.p90": "s",
    "peak_mb": "MB",
    "spectrum_err": "1",
}


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_package():
    """Import ``fermisect`` from this checkout's ``src``, nowhere else."""
    if not (SRC / "fermisect" / "__init__.py").is_file():
        _fail(f"no fermisect sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fermisect
    from fermisect import cli

    if Path(fermisect.__file__).resolve().parent != SRC / "fermisect":
        _fail(f"imported fermisect from {fermisect.__file__}, not from {SRC}")
    return cli


# ---------------------------------------------------------------------------
# passes


def run_pass(cli, reqs, rec=None, slices=None):
    """Send every request once; return the pass wall time and ``(latency, Outcome)`` pairs.

    With a ``slices`` list, `speed_probe` runs before every request and
    after the last one; its times go to the list and are left out of the
    pass wall time.
    """
    from streams import Outcome

    results = []
    t_pass = time.perf_counter()
    for i, req in enumerate(reqs):
        if slices is not None:
            slices.append(speed_probe())
        if rec is not None:
            rec.begin_request(i)
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(req.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # the client survives whatever escapes main
            rc, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        results.append((latency, Outcome(rc, out.getvalue(), err.getvalue(), error)))
    if slices is not None:
        slices.append(speed_probe())
        return time.perf_counter() - t_pass - sum(slices[-len(reqs) - 1:]), results
    return time.perf_counter() - t_pass, results


def digests(reqs, results) -> list[str]:
    """One hash per request over exit code, escaped exception, stdout and the written file.

    Standard error is left out: numpy prints a warning only the first time a
    line of code triggers it in a process.
    """
    out = []
    for req, (_, o) in zip(reqs, results):
        h = hashlib.sha1(f"{o.rc!r}\0{o.error}\0{o.stdout}\0".encode())
        if req.out is not None and req.out.exists():
            h.update(req.out.read_bytes())
        out.append(h.hexdigest())
    return out


def check_pass(reqs, results) -> tuple[list[bool], list[dict], list[str]]:
    """Check every outcome; return per-request ok flags, measured numbers, messages."""
    from streams import CheckFailed, check

    ok, info, messages = [], [], []
    for req, (_, outcome) in zip(reqs, results):
        try:
            info.append(check(req, outcome))
            ok.append(True)
        except (CheckFailed, ValueError, KeyError, IndexError) as exc:
            info.append({})
            ok.append(False)
            messages.append(f"{' '.join(req.argv)}: {type(exc).__name__}: {exc}")
    return ok, info, messages


_PROBE_CELLS = np.arange(3000) * (0.1 + 0.37j)


def speed_probe() -> float:
    """Time of a fixed ~6 ms kernel that tracks the speed of the machine.

    The kernel formats complex array cells into CSV text the way the
    package's writers do, then runs numpy arithmetic on fresh arrays; it
    never touches ``fermisect``.  On a shared host the speed of the machine
    drifts by tens of percent over seconds to minutes, and probes
    interleaved with the requests measure it at the same moments.
    """
    t0 = time.perf_counter()
    buf = io.StringIO()
    for i in range(_PROBE_CELLS.size):
        c = complex(_PROBE_CELLS[i])
        buf.write(f"{i},{c.real!r},{c.imag!r}\n")
    a = np.linspace(0.0, 1.0, 50_000)
    for _ in range(10):
        a = np.sqrt(a * a + 1.0) - 1.0
    return time.perf_counter() - t0


def reference_seconds(times: list[float], slices: list[float]) -> list[float]:
    """Scale ``times[i]``, taken between ``slices[i]`` and ``slices[i+1]``, to reference speed."""
    return [t * 2.0 * REF_SLICE_S / (slices[i] + slices[i + 1]) for i, t in enumerate(times)]


def setup_seconds() -> tuple[float, float]:
    """Median time from a fresh interpreter to ``fermisect.cli`` imported and its parser built.

    Returns the reference-speed value and the raw one.
    """
    slices, times = [], []
    for _ in range(SETUP_RUNS):
        slices.append(speed_probe())
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 1 or "error" not in proc.stderr:
            _fail(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    slices.append(speed_probe())
    return statistics.median(reference_seconds(times, slices)), statistics.median(times)


def peak_child(workload: str, seed: int) -> float:
    """Resident-memory growth (MB) over one pass in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(Path(__file__)), "--peak-child", "--workload",
                           workload, "--seed", str(seed)], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        _fail(f"peak-memory pass exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["peak_mb"]


def _peak_rss_mb() -> float:
    """This process's resident-set high-water mark.

    ``getrusage`` would not do: after fork and exec it still holds the parent's
    peak.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def peak_child_main(workload: str, seed: int) -> None:
    import streams

    cli = _import_package()
    reqs = streams.build(workload, seed, OUT / workload, shuffle=False)
    before = _peak_rss_mb()
    run_pass(cli, reqs)
    print(json.dumps({"peak_mb": _peak_rss_mb() - before}))


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, else the usual environment overrides."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_int
                return getattr(lib, symbol)()
    return {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS") if k in os.environ} or "unknown"


# ---------------------------------------------------------------------------
# one workload


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import streams

    reqs = streams.build(workload, seed, OUT / workload)
    (OUT / workload).mkdir(parents=True, exist_ok=True)
    setup, setup_raw = (None, None) if trace else setup_seconds()

    _, warm = run_pass(cli, reqs)
    ok, info, messages = check_pass(reqs, warm)
    reference = digests(reqs, warm)
    well = [i for i, r in enumerate(reqs) if not r.malformed]
    malformed = [i for i, r in enumerate(reqs) if r.malformed]

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "requests": [" ".join(r.argv) for r in reqs], "check_failures": messages}
    tally = {"attempted": 0, "failed": 0, "all": 0, "all_failed": 0}

    def account(results) -> None:
        same = [d == ref for d, ref in zip(digests(reqs, results), reference)]
        bad = [not (o and s) for o, s in zip(ok, same)]
        tally["attempted"] += len(well)
        tally["failed"] += sum(bad[i] for i in well)
        tally["all"] += len(reqs)
        tally["all_failed"] += sum(bad)

    if trace:
        metrics, correct = traced(cli, reqs, seconds, account, record, reference)
    else:
        walls, raw_walls, latencies, samples = [], [], [], []
        t_start = time.perf_counter()
        while len(walls) < MIN_PASSES or time.perf_counter() - t_start < seconds:
            slices = []
            wall, results = run_pass(cli, reqs, slices=slices)
            scaled = reference_seconds([lat for lat, _ in results], slices)
            samples.append({"raw_latencies_s": [lat for lat, _ in results], "slices_s": slices})
            raw_walls.append(wall)
            walls.append(sum(scaled))
            latencies += [scaled[i] for i in well]
            account(results)
        correct = True
        if workload != "spectra":  # it prints no spectra: run the default-probe ones once
            probe = streams.accuracy_probe()
            probe_ok, info, probe_messages = check_pass(probe, run_pass(cli, probe)[1])
            messages += probe_messages
            correct = all(probe_ok)
        spectrum_err = max(d.get("spectrum_err", 0.0) for d in info)
        # nearest rank, so that p90 falls on the same request of the pass
        # whatever the number of passes
        p90 = sorted(latencies)[math.ceil(0.9 * len(latencies)) - 1]
        metrics = {
            "setup_s": setup,
            "wall_s": statistics.median(walls),
            "req_s.p50": statistics.median(latencies),
            "req_s.p90": p90,
            "peak_mb": peak_child(workload, seed),
            "spectrum_err": spectrum_err,
        }
        record.update(passes=len(walls), pass_walls_s=walls, raw_pass_walls_s=raw_walls,
                      raw_wall_s=statistics.median(raw_walls), raw_setup_s=setup_raw,
                      latency_samples=len(latencies), pass_samples=samples,
                      samples_above_p90=sum(v > p90 for v in latencies))

    fail_frac = tally["all_failed"] / tally["all"]
    if trace:
        metrics["cli.fail_frac"] = fail_frac
    record.update(
        correct=correct and tally["failed"] == 0,
        attempted=tally["attempted"],
        failed=tally["failed"],
        fail_frac=fail_frac,
        malformed_rejected=f"{sum(ok[i] for i in malformed)} of {len(malformed)}",
        metrics=metrics,
    )
    return record


def traced(cli, reqs, seconds, account, record, reference):
    """Alternate untraced and traced passes; report the median traced pass's split."""
    from spans import Recording, Tracer

    tracer = Tracer()
    untraced_walls, passes = [], []  # passes: (wall, recording, origin_ns)
    identical = True
    t_start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t_start < seconds:
        wall, results = run_pass(cli, reqs)
        untraced_walls.append(wall)
        account(results)
        tracer.rec = Recording()
        tracer.install()
        origin = time.perf_counter_ns()
        try:
            wall, results = run_pass(cli, reqs, tracer.rec)
        finally:
            tracer.uninstall()
        identical &= digests(reqs, results) == reference
        account(results)
        passes.append((wall, tracer.rec, origin))
    passes.sort(key=lambda p: p[0])
    wall, rec, origin = passes[len(passes) // 2]
    tracer.rec = rec
    metrics = tracer.metrics()
    untraced_wall = statistics.median(untraced_walls)
    metrics.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
    })
    spans_path = OUT / f"spans-{record['workload']}-seed{record['seed']}.json"
    rec.write(spans_path, tracer.names, tracer.layer_of, origin)
    record.update(traced_passes=len(passes), untraced_passes=len(untraced_walls),
                  traced_output_identical=identical, spans_file=str(spans_path.relative_to(ROOT)))
    return metrics, identical


# ---------------------------------------------------------------------------
# reporting


def per_layer_units() -> dict[str, str]:
    from spans import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "bogoliubov.kernel.entries": "count",
        "bogoliubov.kernel.repeat_frac": "1",
        "spectrum.truncation.probe_steps": "count",
        "spectrum.truncation.resolved_n": "count",
        "spectrum.truncation.probe_share": "1",
        "spectrum.io.bytes": "B",
        "bogoliubov.io.bytes": "B",
        "bogoliubov.oracle.nodes": "count",
        "bogoliubov.oracle.unresolved": "count",
        "fock.dim_max": "count",
        "detector.overlaps": "count",
        **{f"verify.c{n}_s": "s" for n in range(1, 10)},
        "cli.fail_frac": "1",
        "trace.spans": "count",
        "trace.self_sum_s": "s",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
    })
    return units


def check_declared(units: dict[str, str], trace: bool) -> None:
    """The metric names and units must match ``BENCHMARK.json`` when it is present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    declared = json.loads(path.read_text(encoding="utf-8"))["per_layer" if trace else "end_to_end"]
    if {m["name"]: m["unit"] for m in declared} != units:
        _fail(f"metrics differ from {path.name}")


def report(record: dict, units: dict[str, str], env: dict) -> dict:
    record["environment"] = env
    metrics = record["metrics"]
    w = record["workload"]
    print(f"== {w} (seed {record['seed']}, {'traced' if record['trace'] else 'untraced'})")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:.6g} {unit}")
    print(f"  {'fail_frac':36s} {record['fail_frac']:.6g} 1"
          f"  (malformed requests rejected correctly: {record['malformed_rejected']})")
    for key in ("raw_wall_s", "raw_setup_s", "passes", "latency_samples", "samples_above_p90",
                "traced_passes", "traced_output_identical"):
        if key in record:
            print(f"  {key:36s} {record[key]}")
    for message in record["check_failures"]:
        print(f"  check failed: {message}")
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{w}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    import streams

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=streams.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--peak-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.peak_child:
        peak_child_main(args.workload, args.seed)
        return 0

    cli = _import_package()
    trace = bool(args.trace)
    units = per_layer_units() if trace else END_TO_END
    check_declared(units, trace)
    env = environment()
    print("environment: " + json.dumps(env))
    names = streams.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        record = run_workload(cli, workload, args.seed, args.seconds, trace)
        results[workload] = (record, report(record, units, env))
    if len(names) == 1:
        record, metrics = results[names[0]]
    else:
        record = {"correct": all(r["correct"] for r, _ in results.values()),
                  "attempted": sum(r["attempted"] for r, _ in results.values()),
                  "failed": sum(r["failed"] for r, _ in results.values())}
        metrics = {f"{w}.{k}": v for w, (_, m) in results.items() for k, v in m.items()}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
