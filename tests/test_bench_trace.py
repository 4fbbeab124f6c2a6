"""The bench tracer (``bench/spans.py``) covers the package and leaves its output alone."""

import contextlib
import importlib.util
import io
from pathlib import Path

from fermisect import cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
ARGVS = (["bogoliubov", "--truncation", "8"], ["spectrum", "--k-max", "4", "--truncation", "65"],
         ["spectrum", "--k-max", "4"], ["correlation", "--k-max", "3"], ["verify", "--only", "1"],
         ["verify", "--only", "5,8"], ["joint-correlation", "--grid", "0:3:4"])


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def test_traced_output_equals_untraced():
    untraced = [_stdout(argv) for argv in ARGVS]
    tracer = _load_spans().Tracer()
    tracer.install()  # raises CoverageError if a public function stays unwrapped
    try:
        traced = [_stdout(argv) for argv in ARGVS]
    finally:
        tracer.uninstall()
    assert traced == untraced
    # the oracle's row calls still book its time to the bogoliubov.oracle layer, and the Fock
    # oracle's expectations and the detector twin run through their own spans
    for name in ("bogoliubov.iter_coefficients", "spectrum.converged_cutoff", "spectrum.tail_sums",
                 "bogoliubov.overlap_oracle", "fock.expectations",
                 "detector.joint_correlation_exact_surface"):
        assert tracer.names.index(name) in tracer.rec.name_id


def test_criterion_1_builds_two_node_sets_per_oracle_call():
    # 6 calls (3 mu*L, 2 halves) at order 160, each serving both branch pairs with one
    # half-mode and one whole-interval call on the coarse and the fine node set:
    # 6 * 2 * (160 + 320) nodes
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        _stdout(["verify", "--only", "1"])
    finally:
        tracer.uninstall()
    assert tracer.metrics()["bogoliubov.oracle.nodes"] == 5760
