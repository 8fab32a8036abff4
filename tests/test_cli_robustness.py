"""Robustness property of every scenario's command line, driven in-process.

Over small random configs, with block energies, powers and noise variances across the
float range (and, for the estimation, SNRs from -300 to 300 dB), every run either
exits 0 printing only finite values and no RuntimeWarning, or exits 1 with one
`error:` line.  Two fixed capacity_sweep runs pin mi_bits where a log-det of the
n_c x n_c I + H Q H^H / sigma^2 fails: its unit eigenvalues beside huge ones at a high SNR,
and its overflow at the smallest noise variance.
"""

import contextlib
import io
import math
import re
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from isacsim.cli import main

TINY = 5e-324  # the smallest subnormal double


def log_uniform(hi):
    """Numbers from TINY to `hi`, both ends included, uniform in the exponent over the whole
    range or over [1e-6, 1e6], so that runs which exit 0 are drawn often too."""
    exponents = st.floats(math.log10(TINY), math.log10(hi)) | st.floats(-6.0, 6.0)
    return st.sampled_from([TINY, hi]) | exponents.map(lambda e: min(max(10.0**e, TINY), hi))


@st.composite
def tradeoff_argv(draw):
    m = draw(st.integers(1, 6))
    k, t = draw(st.integers(1, m)), draw(st.integers(m, m + 4))
    rhos = [0.0, *draw(st.lists(st.floats(0.0, 1.0), max_size=2)), 1.0]
    return ["isac_tradeoff", "--m", str(m), "--k", str(k), "--t", str(t),
            "--trials", str(draw(st.integers(1, 3))), "--seed", str(draw(st.integers(0, 2**16))),
            "--p-t", repr(draw(log_uniform(1e300))), "--noise-var", repr(draw(log_uniform(1e300))),
            "--rho-list", ",".join(map(repr, rhos))]


@st.composite
def estimation_argv(draw):
    m, n_s, t, n_sc = (draw(st.integers(1, 6)) for _ in range(4))
    d = draw(st.integers(max(m, n_s), 6) | st.integers(1, 6))  # mostly a grid that fits both arrays
    snrs = draw(st.lists(st.sampled_from([-300.0, 300.0]) | st.floats(-300.0, 300.0), min_size=1, max_size=3))
    return ["mmwave_estimation", "--m", str(m), "--n-s", str(n_s), "--d", str(d), "--t", str(t), "--n-sc", str(n_sc),
            "--l", str(draw(st.integers(0, 3))), "--trials", str(draw(st.integers(1, 3))),
            "--seed", str(draw(st.integers(0, 2**16))), "--snr-list=" + ",".join(map(repr, snrs))]


@st.composite
def sensing_argv(draw):
    m, n_s = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    powers = draw(st.lists(log_uniform(1e300), min_size=1, max_size=3))
    return ["sensing_sweep", "--m", str(m), "--n-s", str(n_s), "--t", str(draw(st.integers(m, m + 4))),
            "--trials", str(draw(st.integers(1, 3))), "--seed", str(draw(st.integers(0, 2**16))),
            "--noise-var", repr(draw(log_uniform(1e300))), "--power-list", ",".join(map(repr, powers))]


@st.composite
def capacity_argv(draw):
    powers = draw(st.lists(log_uniform(1e300), min_size=1, max_size=3))
    return ["capacity_sweep", "--m", str(draw(st.integers(1, 6))), "--n-c", str(draw(st.integers(1, 6))),
            "--trials", str(draw(st.integers(1, 3))), "--seed", str(draw(st.integers(0, 2**16))),
            "--noise-var", repr(draw(log_uniform(1e300))), "--power-list", ",".join(map(repr, powers))]


@st.composite
def beam_scan_argv(draw):
    m = draw(st.integers(1, 8))
    return ["beam_scan", "--m", str(m), "--d", str(draw(st.integers(m, 4 * m))),
            "--trials", str(draw(st.integers(1, 3))), "--seed", str(draw(st.integers(0, 2**16)))]


def check_run(argv):
    """The run exits 0 printing only finite values and no RuntimeWarning, or 1 with one error line."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    if code == 1:
        assert out.getvalue() == ""
        assert re.fullmatch(r"error: [^\n]+\n", err.getvalue())
        return
    assert code == 0 and err.getvalue() == ""
    header, *rows = out.getvalue().splitlines()
    assert header == "scenario,param_name,param_value,trial,metric,value"
    assert rows
    assert all(math.isfinite(float(row.rsplit(",", 1)[1])) for row in rows)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tradeoff_argv())
@example(["isac_tradeoff", "--p-t", "1e-250", "--trials", "1"])  # a tiny block energy, solved in ratio form
@example(["isac_tradeoff", "--m", "6", "--k", "1", "--t", "12", "--p-t", "1e250", "--noise-var", "5e-324",
          "--rho-list", "0,0.01,0.99,1", "--trials", "3"])
def test_tradeoff_run_prints_finite_values_or_one_error_line(argv):
    check_run(argv)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(estimation_argv())
@example(["mmwave_estimation", "--m", "6", "--n-s", "6", "--d", "6", "--l", "3", "--t", "1", "--n-sc", "1",
          "--snr-list=-300,300", "--trials", "3"])
def test_estimation_run_prints_finite_values_or_one_error_line(argv):
    check_run(argv)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sensing_argv())
@example(["sensing_sweep", "--noise-var", "5e-324", "--power-list", "1e300", "--trials", "3"])  # an infinite rate
@example(["sensing_sweep", "--m", "6", "--n-s", "1", "--t", "10", "--noise-var", "1e300", "--power-list",
          "5e-324,1,1e300", "--trials", "3"])
def test_sensing_run_prints_finite_values_or_one_error_line(argv):
    check_run(argv)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(capacity_argv())
@example(["capacity_sweep", "--m", "1", "--n-c", "1", "--noise-var", "5e-324", "--power-list", "5e-324"])
@example(["capacity_sweep", "--m", "6", "--n-c", "6", "--noise-var", "1e300", "--power-list", "5e-324,1e300",
          "--trials", "3"])
def test_capacity_run_prints_finite_values_or_one_error_line(argv):
    check_run(argv)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(beam_scan_argv())
@example(["beam_scan", "--m", "1", "--d", "1"])
@example(["beam_scan", "--m", "8", "--d", "32", "--trials", "3"])
def test_beam_scan_run_prints_finite_values_or_one_error_line(argv):
    check_run(argv)


def test_capacity_mi_bits_stay_finite_at_a_high_snr():
    # n_c - m unit eigenvalues of I + H Q H^H / sigma^2 beside one near 1e150
    check_run(["capacity_sweep", "--m", "1", "--trials", "3", "--seed", "41", "--power-list", "1e150"])


def test_capacity_mi_bits_stay_finite_at_the_smallest_noise_variance():
    # H Q H^H / sigma^2 overflows at sigma^2 = 5e-324, H F / sigma does not
    check_run(["capacity_sweep", "--m", "1", "--n-c", "1", "--noise-var", "5e-324", "--power-list", "5e-324",
               "--trials", "1"])


def test_tradeoff_at_a_tiny_block_energy_runs(capsys):
    # the secular multiplier reaches about 6e124 here; its sums run on e_i / E, so none underflows
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["isac_tradeoff", "--p-t", "1e-250", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert all(math.isfinite(float(row.rsplit(",", 1)[1])) for row in out.splitlines()[1:])
