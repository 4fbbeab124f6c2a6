import hashlib
import json
import math

import numpy as np
import pytest

from fermisect import cli
from fermisect.bogoliubov import cutoff_indices, region_sign
from fermisect.cli import main
from fermisect.field import FieldConfig, Region
from fermisect.spectrum import occupation, occupation_spectrum
from kernel_rows import coefficient_rows


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_spectrum_csv_one_column_per_mu_l(capsys):
    rc, out, _ = _run(capsys, ["spectrum", "--mu-l", "0.1,1,10", "--k-max", "4",
                               "--truncation", "129"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "k,n_muL_0.1,n_muL_1.0,n_muL_10.0"
    assert len(lines) == 6
    assert lines[2].split(",")[0] == "1"


def test_spectrum_json(capsys):
    rc, out, _ = _run(capsys, ["spectrum", "--mu-l", "1", "--k-max", "2",
                               "--truncation", "65", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["k"] == [1, 2]
    assert len(payload["occupation"]["1.0"]) == 2


def test_povm_entangled_json_example(capsys):
    rc, out, _ = _run(capsys, ["povm", "--entangled", "0.5"])
    assert rc == 0
    assert json.loads(out) == {"p11": 0.5, "p12": 0.0, "p21": 0.0, "p22": 0.5}


def test_povm_product_with_conditionals(capsys):
    rc, out, _ = _run(capsys, ["povm", "--product", "0.3", "0.6", "--with-conditionals"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["p11"] == pytest.approx(0.18)
    assert payload["conditionals"][0][0] == pytest.approx(0.3)


def test_povm_requires_exactly_one_mode(capsys):
    rc, _, err = _run(capsys, ["povm"])
    assert rc == 1 and "error" in err
    rc, _, err = _run(capsys, ["povm", "--entangled", "0.5", "--product", "0.1", "0.2"])
    assert rc == 1


def test_povm_out_of_range_is_config_error(capsys):
    rc, _, err = _run(capsys, ["povm", "--entangled", "1.5"])
    assert rc == 1 and "error" in err


def test_unknown_flag_exit_code(capsys):
    rc, _, err = _run(capsys, ["spectrum", "--nope"])
    assert rc == 1
    assert "unrecognized" in err


def test_bogoliubov_dump(capsys):
    rc, out, _ = _run(capsys, ["bogoliubov", "--mu-l", "1", "--truncation", "2",
                               "--region", "right"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("#") and "region=right" in lines[0]
    assert lines[1] == "m,k,re_alpha,im_alpha,re_beta,im_beta"
    assert len(lines) > 2


def test_detector_curves(capsys):
    rc, out, _ = _run(capsys, ["detector", "--grid", "0:2:5"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == "beta,p1,p2"
    first = lines[2].split(",")
    assert float(first[1]) == 1.0 and float(first[2]) == 1.0
    last = lines[-1].split(",")
    assert float(last[2]) >= float(last[1])


def test_joint_correlation_emits_both_parametrizations(capsys):
    rc, out, _ = _run(capsys, ["joint-correlation", "--grid", "0:2:3"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == "parametrization,a,b,c"
    tags = {line.split(",")[0] for line in lines[2:]}
    assert tags == {"real_real", "real_imag"}
    # origin row decorrelates in both parametrizations
    for line in lines[2:]:
        tag, a, b, c = line.split(",")
        if float(a) == 0.0:
            assert float(c) == 0.0


def test_outputs_byte_identical_across_runs(capsys, tmp_path):
    argv = ["spectrum", "--mu-l", "0.1,1", "--k-max", "6", "--truncation", "129"]
    rc1, out1, _ = _run(capsys, argv)
    rc2, out2, _ = _run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(path_a)]) == 0
    assert main(argv + ["--out", str(path_b)]) == 0
    assert path_a.read_bytes() == path_b.read_bytes()


#: sha256 prefixes of stdout, pinned so refactors keep the output bytes.
GOLDEN = [
    (["spectrum", "--k-max", "16", "--truncation", "257"], 0, "b1ee7c216f9765d5"),
    (["spectrum", "--mu-l", "0.5,2", "--k-max", "8", "--truncation", "129", "--time", "0.5",
      "--format", "json"], 0, "2f9a3749117db6be"),
    (["correlation", "--mu-l", "1", "--k-max", "8", "--truncation", "129", "--time", "0.5"],
     0, "285e9e4eabe3dc90"),
    (["correlation", "--mu-l", "3", "--k-max", "4", "--truncation", "65", "--format", "json"],
     0, "f29f4faba4e55c23"),
    (["bogoliubov", "--mu-l", "1", "--truncation", "16"], 0, "f934984937b773c7"),
    (["bogoliubov", "--mu-l", "3", "--truncation", "16", "--region", "right", "--time", "0.25"],
     0, "e11288d5ca4fe4e5"),
    (["verify", "--only", "1,2,5"], 2, "c0f8da2f0507644c"),
    (["detector", "--sigma", "0.5", "--grid", "0:3:7"], 0, "5904ead80035b374"),
    (["detector", "--grid", "0,0.5,2.25", "--format", "json"], 0, "2f7293e6252d7e27"),
    (["joint-correlation", "--sigma", "2.0", "--grid", "0:2.5:4"], 0, "64895c6e3e3451fc"),
    (["joint-correlation", "--grid", "0:3:3", "--format", "json"], 0, "b1c2d9a70e7e5528"),
    (["povm", "--product", "0.3", "0.6", "--format", "csv"], 0, "80681a536571df58"),
    (["povm", "--entangled", "0.25", "--with-conditionals"], 0, "fbc9d926c91a0921"),
    # no --truncation: the converged cutoff plus the closed-form tail
    (["spectrum", "--mu-l", "1", "--k-max", "20"], 0, "f28d9de490730ad4"),
    (["correlation", "--mu-l", "0.5", "--k-max", "4"], 0, "687754643e1c33f9"),
    # larger cutoffs; the time-0 right dump writes signed zeros
    (["bogoliubov", "--mu-l", "10", "--truncation", "64", "--time", "0.5"], 0, "897edd0595be5eb0"),
    (["bogoliubov", "--mu-l", "0.1", "--truncation", "48", "--region", "right"],
     0, "4188536ad4928a83"),
    (["spectrum", "--mu-l", "0.3,10", "--k-max", "32", "--truncation", "4097", "--time", "0.3"],
     0, "6d54fd6aa817a410"),
    (["correlation", "--mu-l", "10", "--k-max", "24", "--truncation", "1025", "--time", "0.7"],
     0, "f6d4ca9a2e9669f6"),
    # correlations from one kernel pass; the time-0 left dump writes 1220 signed zeros
    (["correlation", "--mu-l", "0.1", "--k-max", "16", "--truncation", "4097"],
     0, "9fb07890d718f8d2"),
    (["correlation", "--mu-l", "2", "--k-max", "40", "--truncation", "513", "--time", "1.5"],
     0, "5da752440f1a15ca"),
    (["bogoliubov", "--mu-l", "0.5", "--truncation", "40"], 0, "ebe90da9d5bffad8"),
    # all 9 criteria: the oracle's row calls keep criterion 1's 2.899e-14
    (["verify"], 2, "93568266149c4617"),
]


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _argv_id(value):
    return " ".join(value) if isinstance(value, list) else None


@pytest.mark.parametrize("argv,rc,digest", GOLDEN, ids=_argv_id)
def test_outputs_match_golden_hashes(capsys, tmp_path, argv, rc, digest):
    code, out, _ = _run(capsys, argv)
    assert (code, _digest(out)) == (rc, digest)
    path = tmp_path / "out.txt"
    assert main(argv + ["--out", str(path)]) == rc
    assert _digest(path.read_text(encoding="utf-8")) == digest


@pytest.mark.parametrize("argv,message", [
    (["spectrum", "--mu-l", "nan"], "finite"),
    (["spectrum", "--mu-l", "inf", "--k-max", "4"], "finite"),
    (["spectrum", "--mu-l", "1", "--time", "nan", "--k-max", "4"], "finite"),
    (["correlation", "--mu-l", "1", "--time", "inf", "--truncation", "9"], "finite"),
    (["detector", "--sigma", "nan"], "finite"),
    (["correlation", "--mu-l", ","], "exactly one"),
    (["correlation", "--mu-l", "1,2"], "exactly one"),
    (["bogoliubov", "--mu-l", ""], "exactly one"),
    (["bogoliubov", "--mu-l", "0.5,3"], "exactly one"),
    (["spectrum", "--seed", "3"], "unrecognized"),
    (["spectrum", "--k-max", "2", "--truncation", "-3"], "truncation must be >= 1"),
    (["spectrum", "--truncation", "0"], "truncation must be >= 1"),
    (["correlation", "--truncation", "0"], "truncation must be >= 1"),
    (["bogoliubov", "--truncation", "-2"], "truncation must be >= 1"),
    (["bogoliubov", "--format", "json"], "unrecognized"),
    (["detector", "--sigma", "1e-320", "--grid", "0:1:2"], "--sigma 1e-320"),
    (["joint-correlation", "--sigma", "1e308", "--grid", "0:3:3"], "--sigma 1e+308"),
    (["detector", "--grid", ""], "--grid needs at least one value"),
    (["joint-correlation", "--grid", ","], "--grid needs at least one value"),
    (["detector", "--sigma", "0"], "sigma must be > 0"),
    (["joint-correlation", "--sigma", "0", "--grid", "0:1:2"], "sigma must be > 0"),
    (["povm", "--product", "0.3", "0.6", "--format", "csv", "--with-conditionals"],
     "--with-conditionals needs --format json"),
    # the spinor-overlap denominator overflows float64 from mu*L about 1e77 on
    (["spectrum", "--mu-l", "1e308", "--truncation", "9"], "overflows float64"),
    (["correlation", "--mu-l", "1e200", "--truncation", "9"], "overflows float64"),
    (["bogoliubov", "--mu-l", "1e200"], "overflows float64"),
    # the converged default cutoff would pass 16385 above mu*L = 512
    (["spectrum", "--mu-l", "1e308"], "pass --truncation"),
    (["correlation", "--mu-l", "1e200"], "pass --truncation"),
    (["spectrum", "--mu-l", "600"], "pass --truncation"),
    # a phase argument (eps_q + eps_p) * t overflows float64
    (["spectrum", "--mu-l", "1", "--time", "1e308", "--k-max", "2", "--truncation", "9"],
     "--time 1e+308"),
    (["correlation", "--mu-l", "1", "--time", "1e307", "--k-max", "2"], "--time 1e+307"),
], ids=_argv_id)
def test_bad_input_exits_1_with_message(capsys, argv, message):
    rc, out, err = _run(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and message in err


def test_verify_selected_criteria_pass(capsys):
    rc, out, _ = _run(capsys, ["verify", "--only", "7,9"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("[PASS]") for line in lines)


def test_verify_known_deviation_exit_code(capsys):
    rc, out, _ = _run(capsys, ["verify", "--only", "2"])
    assert rc == 2
    assert out.startswith("[FAIL] criterion 2")
    assert "known deviation" in out


def test_verify_rejects_unknown_criterion(capsys):
    rc, _, err = _run(capsys, ["verify", "--only", "12"])
    assert rc == 1 and "unknown criteria" in err


def test_verify_seed_changes_draws_deterministically(capsys):
    rc1, out1, _ = _run(capsys, ["verify", "--only", "7", "--seed", "5"])
    rc2, out2, _ = _run(capsys, ["verify", "--only", "7", "--seed", "5"])
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_probe_cutoff_reaches_every_requested_mode(capsys):
    # mode k needs N >= 2k for its matched W_k column; the default cutoff is 4*k_max + 1
    rc, out, _ = _run(capsys, ["spectrum", "--mu-l", "1", "--k-max", "200"])
    assert rc == 0
    lines = out.splitlines()
    n, cfg = 801, FieldConfig.from_mu_l(1.0)
    assert f"truncation={n}" in lines[0].split()
    values = dict(line.split(",") for line in lines[2:])
    for k in (129, 200):
        tail = (1 / math.pi**2) * (1 / (n - 2 * k) + 1 / (n + 2 * k))
        assert abs(float(values[str(k)]) - occupation(k, cfg, 16385)) <= tail


def test_spectrum_header_states_the_cutoff_of_every_column(capsys):
    # the rule alone gives 513 at mu*L = 0.1 and 3201 at mu*L = 100; the table uses one cutoff
    rc, out, _ = _run(capsys, ["spectrum", "--mu-l", "0.1,100", "--k-max", "16"])
    assert rc == 0
    lines = out.splitlines()
    header = dict(tok.split("=") for tok in lines[0][2:].split())
    n = int(header["truncation"])
    assert (n, header["tail"]) == (3201, "digamma")
    columns = list(zip(*(line.split(",")[1:] for line in lines[2:])))
    for mu_l, column in zip((0.1, 100.0), columns):
        expected = occupation_spectrum(16, FieldConfig.from_mu_l(mu_l), n, tail=True).tolist()
        assert [float(v) for v in column] == expected


#: Raw sums at these cutoffs, with one Richardson step in 1/N, pin the default path.
N_LO, N_HI = 2**16 + 1, 2**17 + 1


def _richardson(at_lo, at_hi):
    """Limit of ``S(N) = S + c/N`` from its values at ``N_LO`` and ``N_HI``."""
    return (N_HI * at_hi - N_LO * at_lo) / (N_HI - N_LO)


@pytest.mark.parametrize("mu_l", ["0", "1", "10"])
def test_default_spectrum_is_the_converged_sum(capsys, mu_l):
    rc, out, _ = _run(capsys, ["spectrum", "--mu-l", mu_l, "--k-max", "8"])
    assert rc == 0
    lines = out.splitlines()
    assert "tail=digamma" in lines[0].split()
    printed = np.array([float(line.split(",")[1]) for line in lines[2:]])
    cfg = FieldConfig.from_mu_l(float(mu_l))
    limit = _richardson(*(occupation_spectrum(8, cfg, n) for n in (N_LO, N_HI)))
    assert np.max(np.abs(printed - limit) / limit) <= 1e-8


def test_default_correlation_is_the_converged_sum(capsys):
    rc, out, _ = _run(capsys, ["correlation", "--mu-l", "0.5", "--k-max", "4"])
    assert rc == 0
    lines = out.splitlines()
    assert "tail=digamma" in lines[0].split()
    printed = np.array([complex(float(line.split(",")[2]), float(line.split(",")[3]))
                        for line in lines[2:]]).reshape(4, 4)
    cfg = FieldConfig.from_mu_l(0.5)
    cross_sums = []
    for n in (N_LO, N_HI):
        js = cutoff_indices(n)
        alpha, beta = coefficient_rows(range(1, 5), js, cfg)
        sign = region_sign(js, Region.RIGHT)
        cross_sums.append((beta @ (beta * sign).conj().T, alpha @ (alpha * sign).conj().T))
    limit = _richardson(cross_sums[0][0], cross_sums[1][0]) * _richardson(cross_sums[0][1],
                                                                          cross_sums[1][1])
    # relative to the largest entry: the limit's own O(1/N**2) residual, 2e-12, is 1.3e-8
    # of the smallest entry
    assert np.max(np.abs(printed - limit)) <= 1e-8 * np.max(np.abs(limit))


def test_raw_spectrum_leaves_out_matched_columns_past_the_cutoff(capsys):
    # at N = 9 the matched column -2k of the modes k >= 5 lies outside |j| <= 9, so their
    # raw sums hold the odd columns alone; adding |W_k|^2 there would print 0.739... at k = 5
    rc, out, _ = _run(capsys, ["spectrum", "--mu-l", "1", "--k-max", "8", "--truncation", "9"])
    assert rc == 0
    printed = [float(line.split(",")[1]) for line in out.splitlines()[2:]]
    _, beta = coefficient_rows(range(1, 9), cutoff_indices(9), FieldConfig.from_mu_l(1.0))
    assert printed == pytest.approx(np.sum(np.abs(beta) ** 2, axis=1), rel=2e-15, abs=0.0)
    assert printed[4] == pytest.approx(0.23956321904191455, rel=2e-15)


def test_raw_correlation_leaves_out_matched_columns_past_the_cutoff(capsys):
    # 2 * k_max = 12 > N = 7: modes k >= 4 have neither matched column in |j| <= 7
    rc, out, _ = _run(capsys, ["correlation", "--mu-l", "2", "--k-max", "6", "--truncation", "7",
                               "--time", "0.4"])
    assert rc == 0
    printed = np.array([complex(float(line.split(",")[2]), float(line.split(",")[3]))
                        for line in out.splitlines()[2:]]).reshape(6, 6)
    js = cutoff_indices(7)
    alpha, beta = coefficient_rows(range(1, 7), js, FieldConfig.from_mu_l(2.0, time=0.4))
    sign = region_sign(js, Region.RIGHT)
    rows = (beta @ (beta * sign).conj().T) * (alpha @ (alpha * sign).conj().T)
    assert np.max(np.abs(printed - rows)) <= 2e-13 * np.max(np.abs(rows))


def test_out_of_memory_exits_1_with_message(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.46 TiB for an array")

    monkeypatch.setattr(cli, "occupation_spectrum", exhausted)
    rc, out, err = _run(capsys, ["spectrum", "--k-max", "3", "--truncation", "100000000000"])
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "Unable to allocate" in err


def test_massless_dump_writes_no_rows(capsys, tmp_path):
    # every dump holds the m = 0 row, whose spinor overlap is undefined at mass 0
    path = tmp_path / "dump.csv"
    rc, out, err = _run(capsys, ["bogoliubov", "--mu-l", "0", "--truncation", "2",
                                 "--out", str(path)])
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "undefined at p = mass = 0" in err
    assert not path.exists() or not [line for line in path.read_text().splitlines()
                                     if not line.startswith(("#", "m,"))]


def test_overflowing_time_dump_writes_no_rows(capsys, tmp_path):
    # the phase check runs before the first row, so neither stdout nor --out gets one
    argv = ["bogoliubov", "--mu-l", "1", "--time", "1e307", "--truncation", "2"]
    rc, out, err = _run(capsys, argv)
    assert (rc, out) == (1, "")
    assert err.startswith("error:") and "--time 1e+307" in err
    path = tmp_path / "dump.csv"
    assert main(argv + ["--out", str(path)]) == 1
    assert not path.exists() or not [line for line in path.read_text().splitlines()
                                     if not line.startswith(("#", "m,"))]
