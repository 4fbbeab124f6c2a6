"""The benchmark's own output checks (``bench/streams.py``) accept what the CLI prints.

Each request runs ``cli.main`` in process, as ``bench/run.py`` does, and ``streams.check``
compares its outcome with the committed reference spectra, the quadrature oracle, the exact
Fock twin, the detector Grams and the ``verify`` pass/fail tables; a malformed request must
exit 1 with a message.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from fermisect import cli

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import streams  # noqa: E402

MU_L = repr(streams.GRID[3])
REQUESTS = [
    ("spectrum", "--mu-l", MU_L, "--k-max", "16"),
    ("spectrum", "--mu-l", MU_L, "--k-max", "16", "--truncation", "1025"),
    ("correlation", "--mu-l", MU_L, "--k-max", "16"),
    ("detector", "--sigma", "0.5", "--grid", "0:3.0:40"),
    ("joint-correlation", "--sigma", "2.0", "--grid", "0:2.5:4"),
    ("verify", "--seed", "7"),
]


def _check(req):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(req.argv))
        except SystemExit as exc:
            rc = exc.code
    return streams.check(req, streams.Outcome(rc, out.getvalue(), err.getvalue()))


@pytest.mark.parametrize("argv", REQUESTS, ids=" ".join)
def test_bench_checks_accept_the_output(argv):
    _check(streams.Request(argv))


def test_bench_checks_accept_a_dump(tmp_path):
    # the check reads the dump's "# region=right" header back through Region(...)
    out = tmp_path / "dump.csv"
    _check(streams.Request(("bogoliubov", "--mu-l", MU_L, "--truncation", "8", "--region", "right",
                            "--time", "0.25", "--out", str(out)), out=out))


def test_bench_checks_accept_a_malformed_request_refused():
    _check(streams.Request(tuple(streams.MALFORMED[0]), malformed=True))
