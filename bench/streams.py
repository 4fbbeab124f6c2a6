"""Seeded request streams of the benchmark workloads and their output checks.

A workload is a list of ``fermisect`` command lines (``Request``).  The seed
draws every free input (``mu*L`` values, region, time, detector width and
grid span, request order), while the request sizes that set the cost are a
fixed mix per workload, so passes built from different seeds do the same
amount of work and their timings can be compared across seeds.

The checks read only what a request printed or wrote and compare it to an
independent reference: the committed converged spectra (``reference.json``)
for ``spectrum``/``correlation``, the quadrature oracle for ``bogoliubov``
dumps, the exact Fock twin for ``joint-correlation`` and the Gram overlaps
for ``detector``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from make_reference import GRID

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

WORKLOADS = ("spectra", "dump", "oracles")

# Every workload sends 25 or 15 well-formed requests per pass.  With R
# requests, 0.9R and 0.5R then fall mid-way into a request's block of the
# sorted latencies whatever the number of passes, so p50 and p90 do not jump
# between neighbouring requests from run to run.  In ``dump`` and
# ``oracles`` the two requests around 0.9R have the same size, so p90 rests
# on twice as many samples.

#: ``(k_max, truncation)`` cells of the seeded part of ``spectra``; ``None``
#: selects the CLI's doubling probe.  Correlation takes one cell per
#: ``k_max`` plus the 16385 cutoff; its larger cells cost up to 3 s each.
SPECTRUM_CELLS = [(k, n) for k in (16, 64, 128) for n in (None, 1025, 4097, 16385)]
CORRELATION_CELLS = [(16, None), (16, 16385), (64, None), (128, 1025)]
#: Input-validation probes taken from known failures; the correct outcome is
#: exit 1 with a message.
MALFORMED = (
    ["spectrum", "--mu-l", "nan", "--k-max", "16"],
    ["spectrum", "--mu-l", "inf", "--k-max", "16"],
    ["spectrum", "--mu-l", "1.0", "--time", "nan", "--k-max", "16"],
    ["correlation", "--mu-l", ","],
)
#: Coefficient-dump cutoffs, one request each per pass; the cost of a dump
#: grows like N**2.
DUMP_CUTOFFS = (64, 64, 64, 72, 72, 80, 80, 96, 96, 112, 112, 128, 160, 192, 192)
DUMP_TIMES = (0.0, 0.25, 0.5, 1.0)
#: ``joint-correlation`` grid point counts (cost grows like count**2) and
#: ``detector`` grid point counts.
JOINT_COUNTS = (8, 12, 16, 20, 28, 28)
DETECTOR_COUNTS = (250, 500, 750, 1000, 1250, 1500, 1750, 2000)
SIGMAS = (0.5, 1.0, 2.0)

#: Criterion numbers ``verify`` passes, and the three known deviations
#: that fail by mathematical necessity (README, "Known deviations").
VERIFY_PASS = {1, 5, 6, 7, 8, 9}
VERIFY_FAIL = {2, 3, 4}

REF_TOL = 1e-8  # reference residual (relative, measured 9e-9) plus rounding
ORACLE_TOL = 1e-6  # criterion 1
ORACLE_M_MAX, ORACLE_K_MAX = 12, 40
JOINT_TOL = 1e-10  # criterion 8
DETECTOR_TOL = 1e-12  # criterion 6
SAMPLES_PER_CHECK = 48


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    malformed: bool = False
    out: Path | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


def build(workload: str, seed: int, out_dir: Path, shuffle: bool = True) -> list[Request]:
    """The request list of one pass; the same seed gives the same list.

    Unshuffled, the list is in construction order (each size mix ascending),
    which the memory pass uses so that the allocator's reuse of freed memory,
    and with it the resident high-water mark, does not depend on the seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    reqs = {"spectra": _spectra, "dump": _dump, "oracles": _oracles}[workload](rng, out_dir)
    if shuffle:
        rng.shuffle(reqs)
    return reqs


def accuracy_probe() -> list[Request]:
    """The CLI-default (doubling probe) ``spectrum`` at k_max=128 over the grid."""
    return [Request(("spectrum", "--mu-l", repr(g), "--k-max", "128")) for g in GRID]


def _truncation_args(n):
    return () if n is None else ("--truncation", str(n))


def _spectra(rng: random.Random, out_dir: Path) -> list[Request]:
    reqs = accuracy_probe()
    for k, n in SPECTRUM_CELLS:
        reqs.append(Request(("spectrum", "--mu-l", repr(rng.choice(GRID)), "--k-max", str(k))
                            + _truncation_args(n)))
    for k, n in CORRELATION_CELLS:
        reqs.append(Request(("correlation", "--mu-l", repr(rng.choice(GRID)), "--k-max", str(k))
                            + _truncation_args(n)))
    reqs += [Request(tuple(argv), malformed=True) for argv in MALFORMED]
    return reqs


def _dump(rng: random.Random, out_dir: Path) -> list[Request]:
    reqs = []
    for i, n in enumerate(DUMP_CUTOFFS):
        out = out_dir / f"dump_{i}.csv"
        reqs.append(Request(("bogoliubov", "--mu-l", repr(rng.choice(GRID)),
                             "--truncation", str(n), "--region", rng.choice(("left", "right")),
                             "--time", repr(rng.choice(DUMP_TIMES)), "--out", str(out)), out=out))
    return reqs


def _oracles(rng: random.Random, out_dir: Path) -> list[Request]:
    reqs = [Request(("verify", "--seed", str(rng.randrange(1 << 30))))]
    for count in JOINT_COUNTS:
        stop = rng.choice((2.0, 2.5, 3.0, 3.5))
        reqs.append(Request(("joint-correlation", "--sigma", repr(rng.choice(SIGMAS)),
                             "--grid", f"0:{stop!r}:{count}")))
    for count in DETECTOR_COUNTS:
        stop = rng.choice((3.0, 4.0, 5.0))
        reqs.append(Request(("detector", "--sigma", repr(rng.choice(SIGMAS)),
                             "--grid", f"0:{stop!r}:{count}")))
    return reqs


# ---------------------------------------------------------------------------
# checks


@dataclass
class Outcome:
    """What one request returned: exit code, captured streams, escaped exception."""

    rc: object
    stdout: str
    stderr: str
    error: str | None = None


class CheckFailed(Exception):
    pass


def tail_bound(n: int, k: int) -> float:
    """Largest truncation error of a raw cutoff-``n`` sum for half mode ``k``.

    Every dropped term is ``|kappa|^2 s^2 / ((j -+ 2k)/2)^2`` with spinor
    factor ``s^2 <= 1`` and ``|kappa|^2 = 1/(2 pi^2)``; summing over odd
    ``|j| > n`` on both sides gives at most
    ``(1/pi^2) * (1/(n - 2k) + 1/(n + 2k))``.  A cutoff below ``2k`` also
    drops an even-column term, which no bound covers.
    """
    if n <= 2 * k:
        return -math.inf
    return (1.0 / (n - 2 * k) + 1.0 / (n + 2 * k)) / math.pi**2


def _grid_index(mu_l: float) -> int:
    try:
        return GRID.index(mu_l)
    except ValueError:
        raise CheckFailed(f"mu*L {mu_l!r} is not on the reference grid") from None


def _header(line: str) -> dict[str, str]:
    if not line.startswith("# "):
        raise CheckFailed(f"missing config header, got {line[:60]!r}")
    return dict(tok.split("=", 1) for tok in line[2:].split())


def check(req: Request, outcome: Outcome) -> dict:
    """Raise `CheckFailed` unless the outcome is correct; return measured numbers."""
    if req.malformed:
        if outcome.error is not None or outcome.rc != 1 or not outcome.stderr.strip():
            raise CheckFailed(f"want exit 1 with a message, got exit {outcome.rc!r}"
                              f" ({outcome.error or 'no exception'})")
        return {}
    if outcome.error is not None:
        raise CheckFailed(f"exception escaped main: {outcome.error}")
    want_rc = 2 if req.command == "verify" else 0
    if outcome.rc != want_rc:
        raise CheckFailed(f"exit code {outcome.rc!r}, want {want_rc}: {outcome.stderr.strip()[:200]}")
    return _CHECKS[req.command](req, outcome)


def _check_spectrum(req: Request, outcome: Outcome) -> dict:
    lines = outcome.stdout.splitlines()
    header = _header(lines[0])
    n = int(header["truncation"])
    columns = lines[1].split(",")[1:]
    mus = [float(c.removeprefix("n_muL_")) for c in columns]
    refs = [REFERENCE["occupation"][_grid_index(mu)] for mu in mus]
    worst = 0.0
    for line in lines[2:]:
        k_s, *vals = line.split(",")
        k = int(k_s)
        for ref_row, val in zip(refs, vals):
            ref = ref_row[k - 1]
            gap = ref - float(val)  # a raw sum only ever misses positive terms
            if not -REF_TOL <= gap <= tail_bound(n, k) + REF_TOL:
                raise CheckFailed(f"occupation k={k} at N={n}: {val} vs reference {ref!r}")
            worst = max(worst, abs(gap) / ref)
    if len(lines) - 2 != int(req.argv[req.argv.index("--k-max") + 1]):
        raise CheckFailed("wrong number of spectrum rows")
    return {"spectrum_err": worst}


def _check_correlation(req: Request, outcome: Outcome) -> dict:
    lines = outcome.stdout.splitlines()
    header = _header(lines[0])
    n = int(header["truncation"])
    ref_row = REFERENCE["diagonal"][_grid_index(float(header["mass"]) * float(header["half_length"]))]
    k_max = int(req.argv[req.argv.index("--k-max") + 1])
    if len(lines) - 2 != k_max * k_max:
        raise CheckFailed("wrong number of correlation rows")
    for line in lines[2 :: k_max + 1]:  # rows are k-major, so every (k_max+1)-th is k == m
        k_s, m_s, re_s, _ = line.split(",")
        k = int(k_s)
        if k != int(m_s):
            raise CheckFailed(f"row {line!r} is not diagonal")
        # D = (W^2 - B)(1/2 - A) with both truncated sums short by at most T
        t = tail_bound(n, k)
        if not abs(float(re_s) - ref_row[k - 1]) <= 2 * t + t * t + REF_TOL:
            raise CheckFailed(f"diagonal k={k} at N={n}: {re_s} vs reference {ref_row[k - 1]!r}")
    return {}


def _sample(rng: random.Random, population, count: int):
    population = list(population)
    return population if len(population) <= count else rng.sample(population, count)


def _check_bogoliubov(req: Request, outcome: Outcome) -> dict:
    from fermisect.bogoliubov import overlap_oracle
    from fermisect.field import Branch, FieldConfig, Region

    lines = req.out.read_text(encoding="utf-8").splitlines()
    header = _header(lines[0])
    n = int(header["n_max"])
    cfg = FieldConfig(mass=float(header["mass"]), half_length=float(header["half_length"]),
                      time=float(header["time"]))
    region = Region(header["region"])
    # The oracle's quadrature order grows with |m| and |k| and its node sets cost
    # O(order^3) to build, so the sampled entries stay in the low-mode window
    # criterion 1 uses; the row count below covers the rest of the matrix.
    rng = random.Random(" ".join(req.argv))
    m_win, k_win = min(n, ORACLE_M_MAX), min(n, ORACLE_K_MAX)
    wanted = {(rng.randint(-m_win, m_win), rng.randint(-k_win, k_win))
              for _ in range(SAMPLES_PER_CHECK)}
    m0 = rng.randint(1, min(m_win, n // 2))  # the matched alpha and beta entries
    wanted |= {(m0, 2 * m0), (m0, -2 * m0)}
    odd_columns = 2 * ((n + 1) // 2)
    nonzero = (2 * n + 1) * odd_columns + 4 * (n // 2) + 1
    if len(lines) - 2 != nonzero:
        raise CheckFailed(f"N={n} dump has {len(lines) - 2} rows, want {nonzero}")
    found = {}
    for line in lines[2:]:
        m_s, k_s, rest = line.split(",", 2)
        key = (int(m_s), int(k_s))
        if key in wanted:
            ra, ia, rb, ib = rest.split(",")
            found[key] = (complex(float(ra), float(ia)), complex(float(rb), float(ib)))
    for m, k in sorted(wanted):
        alpha, beta = found.get((m, k), (0j, 0j))
        a_or = overlap_oracle(m, k, region, (Branch.POSITIVE, Branch.POSITIVE), cfg)
        b_or = overlap_oracle(m, k, region, (Branch.POSITIVE, Branch.NEGATIVE), cfg)
        if abs(a_or - alpha) > ORACLE_TOL or abs(b_or - beta) > ORACLE_TOL:
            raise CheckFailed(f"entry (m={m}, k={k}) of N={n} dump disagrees with the oracle")
    return {}


def _check_verify(req: Request, outcome: Outcome) -> dict:
    status = {}
    for line in outcome.stdout.splitlines():
        word, _, rest = line.partition(" criterion ")
        status[int(rest.split(":", 1)[0])] = word
    passed = {n for n, s in status.items() if s == "[PASS]"}
    failed = {n for n, s in status.items() if s == "[FAIL]"}
    if passed != VERIFY_PASS or failed != VERIFY_FAIL:
        raise CheckFailed(f"verify passed {sorted(passed)} and failed {sorted(failed)}")
    return {}


def _check_joint(req: Request, outcome: Outcome) -> dict:
    from fermisect.detector import PhasePoint, joint_correlation_exact

    lines = outcome.stdout.splitlines()
    sigma = float(_header(lines[0])["sigma"])
    count = int(req.argv[req.argv.index("--grid") + 1].rsplit(":", 1)[1])
    rows = lines[2:]
    if len(rows) != 2 * count * count:
        raise CheckFailed("wrong number of joint-correlation rows")
    for line in _sample(random.Random(" ".join(req.argv)), rows, SAMPLES_PER_CHECK):
        kind, a_s, b_s, c_s = line.split(",")
        a, b = float(a_s), float(b_s)
        point_b = (PhasePoint(sigma, x=b / sigma) if kind == "real_real"
                   else PhasePoint(sigma, p=2.0 * sigma * b))
        exact = joint_correlation_exact(PhasePoint(sigma, x=a / sigma), point_b)
        if abs(float(c_s) - exact) > JOINT_TOL:
            raise CheckFailed(f"joint correlation {line!r} vs Fock twin {exact!r}")
    return {}


def _check_detector(req: Request, outcome: Outcome) -> dict:
    from fermisect.detector import DetectorMode, PhasePoint, mode_overlap

    lines = outcome.stdout.splitlines()
    sigma = float(_header(lines[0])["sigma"])
    origin = PhasePoint(sigma)
    rows = lines[2:]
    if len(rows) != int(req.argv[req.argv.index("--grid") + 1].rsplit(":", 1)[1]):
        raise CheckFailed("wrong number of detector rows")
    for line in _sample(random.Random(" ".join(req.argv)), rows, SAMPLES_PER_CHECK):
        r_s, p1_s, p2_s = line.split(",")
        b = PhasePoint(sigma, x=float(r_s) / sigma)
        g1 = abs(mode_overlap(DetectorMode(origin, 0), DetectorMode(b, 0))) ** 2
        g2 = g1 + abs(mode_overlap(DetectorMode(origin, 1), DetectorMode(b, 0))) ** 2
        if abs(float(p1_s) - g1) > DETECTOR_TOL or abs(float(p2_s) - g2) > DETECTOR_TOL:
            raise CheckFailed(f"detector row {line!r} vs Gram ({g1!r}, {g2!r})")
    return {}


_CHECKS = {
    "spectrum": _check_spectrum,
    "correlation": _check_correlation,
    "bogoliubov": _check_bogoliubov,
    "verify": _check_verify,
    "joint-correlation": _check_joint,
    "detector": _check_detector,
}
