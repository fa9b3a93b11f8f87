import ast
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import grid_mean


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("NCG_DEFAULT_OUTPUT", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "nclandau.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0, cp.stderr
    assert "commutator" in cp.stdout and "crosscheck" in cp.stdout


def test_package_main_entry():
    cp = subprocess.run(
        [sys.executable, "-m", "nclandau", "--help"], capture_output=True, text=True
    )
    assert cp.returncode == 0, cp.stderr


def test_commutator_json_values():
    cp = run_cli("commutator", "--N", "5", "--J", "8", "--keep", "5", "--output", "json")
    assert cp.returncode == 0, cp.stderr
    data = json.loads(cp.stdout)
    assert data["ok"] is True
    re, im = data["top_coefficient"]
    assert re == pytest.approx(0.0, abs=1e-12)
    assert im == pytest.approx(-6.0, abs=1e-12)


def test_sweep_csv_rows():
    cp = run_cli("sweep", "--N", "3", "--J", "6", "--output", "csv")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "keep,re,im,residual"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    assert [float(row[2]) for row in rows] == pytest.approx([-1.0, -2.0, -3.0, -4.0], abs=1e-12)


def test_crosscheck_within_tolerance():
    cp = run_cli("crosscheck", "--keep", "1", "--grid-M", "128", "--output", "json")
    assert cp.returncode == 0, cp.stderr
    data = json.loads(cp.stdout)
    assert data["relative_difference"] <= 0.01
    assert data["ok"] is True


def test_crosscheck_fails_on_coarse_grid():
    cp = run_cli("crosscheck", "--keep", "0", "--grid-M", "16", "--output", "json")
    assert cp.returncode == 1  # report still emitted, assertions fail
    data = json.loads(cp.stdout)
    assert data["ok"] is False
    assert data["relative_difference"] > 0.01


def enabled_avx512_targets():
    """The AVX-512 targets numpy dispatches to on this CPU, as NPY_DISABLE_CPU_FEATURES names them."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return [name for name in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if __cpu_features__.get(name)]


@pytest.mark.skipif(not enabled_avx512_targets(), reason="numpy dispatches to no AVX-512 target on this CPU")
@pytest.mark.parametrize("argv", [
    "crosscheck --keep 0 --grid-M 512 --output json", "landau-gauge --keep 1 --grid-M 32,512 --output json",
    "landau-gauge --keep 5 --grid-M 32,1024 --k-range 12 --output csv",
    "crosscheck --keep 0 --grid-M 2048 --k-range 4 --output table",
])
def test_grid_bytes_do_not_depend_on_numpys_simd_dispatch(argv):
    # numpy's AVX-512 exp differs from its other paths in the last bit of about 5% of the profile points,
    # which moved each of these reports; the profile takes libm's exp
    default = run_cli(*argv.split())
    other = run_cli(*argv.split(), env_extra={"NPY_DISABLE_CPU_FEATURES": " ".join(enabled_avx512_targets())})
    assert default.returncode == other.returncode == 0, other.stderr
    assert default.stdout == other.stdout


def test_spectrum_table():
    cp = run_cli("spectrum", "--N", "2", "--J", "1", "--output", "table")
    assert cp.returncode == 0, cp.stderr
    assert "status: ok" in cp.stdout
    assert "0.5" in cp.stdout


def test_landau_gauge_csv_columns():
    cp = run_cli("landau-gauge", "--keep", "0", "--grid-M", "32,64", "--output", "csv")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "M,dk,keep,re_coeff,im_coeff,abs_error,observed_order"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[-1] == ""  # no order on the first row
    second = lines[2].split(",")
    assert 1.0 <= float(second[-1]) <= 2.5


def test_landau_gauge_coarse_grid_fails():
    cp = run_cli("landau-gauge", "--keep", "0", "--grid-M", "8,16", "--output", "json")
    assert cp.returncode == 1  # report still emitted, final error too large
    assert json.loads(cp.stdout)["ok"] is False


@pytest.mark.parametrize("sizes, status", [("16384,5", 1), ("5,16384", 0)])
def test_landau_gauge_verdict_is_the_last_grid_size_listed(sizes, status):
    # abs_error <= 0.01 (keep+1) on the last size alone, whatever the order of the list
    cp = run_cli("landau-gauge", "--grid-M", sizes, "--output", "json")
    assert cp.returncode == status, cp.stderr
    data = json.loads(cp.stdout)
    assert data["ok"] is (status == 0)
    assert [row["M"] for row in data["rows"]] == [int(size) for size in sizes.split(",")]


def test_landau_gauge_fine_grid_passes():
    cp = run_cli("landau-gauge", "--keep", "0", "--grid-M", "64,128,256", "--output", "json")
    assert cp.returncode == 0, cp.stderr
    data = json.loads(cp.stdout)
    assert data["ok"] is True
    assert len(data["rows"]) == 3
    assert data["rows"][0]["observed_order"] is None


def test_dump_matrix_roundtrip():
    cp = run_cli("dump-matrix", "--op", "a", "--N", "0", "--J", "2")
    assert cp.returncode == 0, cp.stderr
    data = json.loads(cp.stdout)
    assert data["dim"] == 3
    assert len(data["entries"]) == 9
    # entry (0,1) of the degeneracy lowering operator is 1
    assert data["entries"][1] == [1.0, 0.0]


def test_dump_matrix_projector_needs_keep():
    cp = run_cli("dump-matrix", "--op", "projector", "--N", "2", "--J", "2")
    assert cp.returncode == 2
    assert "--keep" in cp.stderr


def test_dump_matrix_ignores_a_non_json_default_output():
    cp = run_cli("dump-matrix", "--op", "a", "--N", "0", "--J", "2",
                 env_extra={"NCG_DEFAULT_OUTPUT": "csv"})
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["dim"] == 3


def test_dump_matrix_still_checks_the_default_output():
    cp = run_cli("dump-matrix", "--op", "a", "--N", "0", "--J", "2",
                 env_extra={"NCG_DEFAULT_OUTPUT": "yaml"})
    assert cp.returncode == 2
    assert cp.stdout == ""
    assert "NCG_DEFAULT_OUTPUT" in cp.stderr


def test_dump_matrix_rejects_a_non_json_output_flag():
    cp = run_cli("dump-matrix", "--op", "a", "--N", "0", "--J", "2", "--output", "csv")
    assert cp.returncode == 2
    assert "--output: dump-matrix only emits json" in cp.stderr


# The quadratic H is hbar omega times its natural-units build, whose largest entry at N = J = 2 is 1.75: it
# is a usage error exactly when hbar omega * 1.75 overflows, whether or not 1/2m or (eB/2mc)^2 would.
QUADRATIC_H_CASES = [
    ("--B 1e200", 0),
    ("--B 1e160", 0),
    ("--m 1e-300", 0),
    ("--m 1e-309 --B 1e-10", 0),
    ("--e 1e250 --m 1e100", 0),
    ("--B 1e150", 0),
    ("--e 1e200 --c 1e200", 0),
    ("--hbar 1.03e308", 2),
    ("--hbar 1.02e308", 0),
]


@pytest.mark.parametrize("units,status", QUADRATIC_H_CASES, ids=[case[0] for case in QUADRATIC_H_CASES])
def test_quadratic_hamiltonian_overflow_is_usage_error(units, status):
    cp = run_cli("dump-matrix", "--op", "H", "--form", "quadratic", "--N", "2", "--J", "2",
                 *units.split())
    assert cp.returncode == status, cp.stderr
    if status == 2:
        assert cp.stdout == ""
        assert cp.stderr.splitlines()[-1].endswith("overflows in these units") and "Traceback" not in cp.stderr
    else:
        assert json.loads(cp.stdout)["dim"] == 9


# e*B*hbar = 1e310 overflows, but hbar e B / 8c = 1.25e159 and the quadratic H's entries do not.
LARGE_PRODUCT_UNITS = "--e 1e200 --B 1e100 --hbar 1e10 --c 1e150"


@pytest.mark.parametrize("op", ["px", "py", "H --form quadratic"])
def test_momentum_scale_needs_no_e_b_hbar_product(op):
    cp = run_cli("dump-matrix", "--op", *op.split(), "--N", "2", "--J", "2", *LARGE_PRODUCT_UNITS.split())
    assert cp.returncode == 0, cp.stderr
    entries = json.loads(cp.stdout)["entries"]
    assert all(math.isfinite(v) for pair in entries for v in pair)
    if op == "H --form quadratic":  # hbar omega / 2 at the interior ground state
        assert entries[0][0] == pytest.approx(5e159, rel=1e-12)
    else:  # sqrt(hbar e B / 8c) sqrt(2), from the level mode's top entry
        assert max(abs(v) for pair in entries for v in pair) == pytest.approx(math.sqrt(2.5e159), rel=1e-12)


@pytest.mark.parametrize("op", ["px", "py"])
def test_momentum_scale_needs_no_normal_level_spacing(op):
    # hbar omega = 1e-310 is subnormal, but hbar e B / 8c = 1.25e-211 is not: the scale keeps every digit
    cp = run_cli("dump-matrix", "--op", op, "--N", "2", "--J", "2", "--hbar", "1e-10", "--c", "1e200", "--m", "1e100")
    assert cp.returncode == 0, cp.stderr
    entries = json.loads(cp.stdout)["entries"]
    assert abs(max(abs(v) for pair in entries for v in pair) / math.sqrt(2.5e-211) - 1) <= 1e-15


def test_keep_exceeding_levels_is_usage_error():
    cp = run_cli("commutator", "--N", "2", "--J", "3", "--keep", "5")
    assert cp.returncode == 2
    assert "--keep" in cp.stderr


def test_degenerate_cutoff_is_usage_error():
    cp = run_cli("sweep", "--N", "2", "--J", "0")
    assert cp.returncode == 2
    assert "--J" in cp.stderr


def test_undersized_grid_is_usage_error():
    # KGrid checks the smallest size; the message names the size and the range it was built with
    cp = run_cli("landau-gauge", "--grid-M", "3,4")
    assert cp.returncode == 2
    assert "--grid-M 3 with --k-range 8.0" in cp.stderr
    assert "nonempty interior needs 5" in cp.stderr and "Traceback" not in cp.stderr


def test_empty_grid_list_is_usage_error():
    cp = run_cli("landau-gauge", "--grid-M", ",")
    assert cp.returncode == 2
    assert "--grid-M: expected at least one grid size" in cp.stderr


def test_oversized_grid_is_usage_error():
    cp = run_cli("landau-gauge", "--grid-M", "20000")
    assert cp.returncode == 2
    assert cp.stderr.splitlines()[-1] == (
        "nclandau: error: --grid-M: grid size 20000 exceeds the supported maximum 16384")
    assert "Traceback" not in cp.stderr


# The grid route holds keep+1 levels and max(M) points, crosscheck's ladder half keep+1 levels and J+1 orbits: each
# count is capped on its own, each edge beside its nearest passing input, and no product of them counts.
GRID_SIZE_EDGES = [
    ("landau-gauge --grid-M 16384", None),
    ("landau-gauge --grid-M 32,16385", "--grid-M: grid size 16385"),
    ("landau-gauge --keep 16383", None),
    ("landau-gauge --keep 16384", "--keep: kept-level count 16385"),
    ("crosscheck --keep 3 --J 16383 --grid-M 64", None),
    ("crosscheck --keep 3 --J 16384 --grid-M 64", "--J: orbit count 16385"),
    ("crosscheck --keep 16383 --J 1", None),
    ("crosscheck --keep 16384 --J 1", "--keep: kept-level count 16385"),
    ("crosscheck --keep 16383", None),  # J defaults to keep+3, capped at 16383
    ("crosscheck --keep 16384", "--keep: kept-level count 16385"),
    ("crosscheck --keep 3 --grid-M 16384", None),
    ("crosscheck --keep 3 --grid-M 16385", "--grid-M: grid size 16385"),
    # over the products the size table replaced: (keep+1)·max(M) and (keep+1)(J+1)
    ("landau-gauge --keep 63 --grid-M 512", None),
    ("landau-gauge --keep 3 --grid-M 5000", None),
    ("crosscheck --keep 3 --grid-M 5000", None),
    ("crosscheck --keep 3 --J 5000", None),
    ("crosscheck --keep 3 --J 4096 --grid-M 64", None),
]


@pytest.mark.parametrize("args,message", GRID_SIZE_EDGES, ids=[case[0] for case in GRID_SIZE_EDGES])
def test_grid_size_edge_beside_its_nearest_passing_input(args, message):
    argv = [*args.split(), "--output", "json"]
    status, out, err = run_main(argv, with_stderr=True)
    if message is None:
        assert status == 0 and err == ""
        assert_grid_tops_within_their_bound(argv, out)
    else:
        assert status == 2 and out == ""
        assert err.splitlines()[-1] == f"nclandau: error: {message} exceeds the supported maximum 16384"
        assert err.count("nclandau: error:") == 1


@pytest.mark.parametrize("args", ["spectrum --N 200 --J 200", "dump-matrix --op x --N 200 --J 200",
                                  "sweep --N 200 --J 200"])
def test_oversized_spectrum_or_dump_is_usage_error(args):
    # sweep too: each prints or holds O(d) or more on the composite basis, so d = (N+1)(J+1) is capped
    cp = run_cli(*args.split())
    assert cp.returncode == 2 and cp.stdout == ""
    assert cp.stderr.splitlines()[-1] == (
        "nclandau: error: --N, --J: composite dimension 40401 exceeds the supported maximum 16384")
    assert cp.stderr.count("nclandau: error:") == 1 and "Traceback" not in cp.stderr


@pytest.mark.parametrize("args,status", [
    ("sweep --N 127 --J 127", 0), ("sweep --N 128 --J 127", 2), ("spectrum --N 127 --J 127", 0),
    ("spectrum --N 127 --J 128", 2), ("spectrum --N 16383 --J 0", 0), ("spectrum --N 16384 --J 0", 2),
])
def test_size_cap_beside_its_nearest_passing_input(args, status):
    cp = run_cli(*args.split(), "--output", "csv")
    assert cp.returncode == status, cp.stderr
    assert cp.stderr.count("nclandau: error:") == (status == 2) and "Traceback" not in cp.stderr


@pytest.mark.parametrize("args,keep", [("--N 3 --J 16383 --keep 0", 0), ("--N 0 --J 16383", 0),
                                       ("--N 200 --J 200", 200), ("--N 16383 --J 1", 16383),
                                       ("--N 100000 --J 3 --keep 0", 0), ("--N 200 --J 200 --keep 7 --B 2", 7)])
def test_commutator_past_the_composite_cap_runs(args, keep):
    # the route holds keep+1 levels and J+1 orbits, never the (N+1)(J+1) composite basis
    cp = run_cli("commutator", *args.split(), "--output", "json")
    assert cp.returncode == 0 and cp.stderr == ""
    ell2 = 0.5 if "--B 2" in args else 1.0
    assert json.loads(cp.stdout)["top_coefficient"] == [0, pytest.approx(-(keep + 1) * ell2, rel=1e-12)]


@pytest.mark.parametrize("args,message", [
    ("--N 0 --J 16384", "--J: orbit count 16385 exceeds the supported maximum 16384"),
    ("--N 16384 --J 1", "--N, --keep: kept-level count 16385 exceeds the supported maximum 16384"),
    ("--N 20000 --J 1 --keep 16384", "--N, --keep: kept-level count 16385 exceeds the supported maximum 16384"),
])
def test_commutator_past_its_own_cap_is_usage_error(args, message):
    cp = run_cli("commutator", *args.split())
    assert cp.returncode == 2 and cp.stdout == ""
    assert cp.stderr.splitlines()[-1] == f"nclandau: error: {message}"
    assert cp.stderr.count("nclandau: error:") == 1 and "Traceback" not in cp.stderr


def test_crosscheck_at_the_largest_ladder_basis_runs():
    cp = run_cli("crosscheck", "--keep", "3", "--J", "16383", "--grid-M", "64", "--output", "json")
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["symmetric_gauge"] == [0, pytest.approx(-4, rel=1e-12)]


def test_bad_units_rejected():
    cp = run_cli("commutator", "--B", "-1")
    assert cp.returncode == 2
    assert "B" in cp.stderr


# Constants whose products underflow: each is a usage error with one message.
UNDERFLOWING_UNITS = [
    ("commutator --hbar 1e-200 --c 1e-200", "hbar*c/(e*B) = 0.0 underflows"),
    ("commutator --e 1e-200 --B 1e-200", "e*B underflows to 0"),
    ("commutator --m 1e-200 --c 1e-200", "m*c underflows to 0"),
    ("spectrum --hbar 1e-200 --e 1e-200", "hbar*e*B/(m*c) = 0.0 underflows to 0"),
    ("commutator --hbar 1e-200 --e 1e-200", "hbar*e*B/(m*c) = 0.0 underflows to 0"),
]


@pytest.mark.parametrize("args,message", UNDERFLOWING_UNITS, ids=[case[0] for case in UNDERFLOWING_UNITS])
def test_underflowing_units_are_usage_error(args, message):
    cp = run_cli(*args.split())
    assert cp.returncode == 2
    assert cp.stderr.count("nclandau: error:") == 1 and message in cp.stderr
    assert "Traceback" not in cp.stderr and "Warning" not in cp.stderr


@pytest.mark.parametrize("command", ["landau-gauge", "crosscheck"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_k_range_is_usage_error(command, value):
    cp = run_cli(command, "--k-range", value)
    assert cp.returncode == 2
    assert "--k-range" in cp.stderr and "Traceback" not in cp.stderr


def test_overflowing_magnetic_length_quotient_is_usage_error():
    # hbar*c and e*B both overflow, so hbar*c/(e*B) computes as inf/inf = nan
    cp = run_cli("commutator", "--hbar", "1e200", "--c", "1e200", "--e", "1e200", "--B", "1e200")
    assert cp.returncode == 2
    assert "hbar*c/(e*B)" in cp.stderr and "Traceback" not in cp.stderr


def test_overflowing_level_spacing_is_usage_error():
    cp = run_cli("spectrum", "--B", "1e300", "--m", "1e-10")
    assert cp.returncode == 2
    assert "hbar*e*B/(m*c)" in cp.stderr and "Traceback" not in cp.stderr


def test_subnormal_level_spacing_passes():
    cp = run_cli("spectrum", "--B", "1e-310", "--output", "json")
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["ok"] is True


# Where a printed value would overflow, the input is a usage error (cli.config_from_args); each bound is
# paired with the nearest case that passes. spectrum and dump-matrix print one unit scale times a pure
# operator, so their bound is that scale times the largest pure entry; no intermediate product counts.
OVERFLOW_BOUNDS = [
    ("spectrum --hbar 1e308", 2),
    ("spectrum --hbar 4e307", 2),  # hbar*omega*(N+1/2) = 4.5 hbar
    ("spectrum --hbar 3.99e307", 0),
    ("spectrum --hbar 2.24e153", 0),  # only hbar*omega*(N+1/2) * hbar*max(N, J) overflows
    ("spectrum --hbar 4.44e306 --N 40 --J 40", 2),  # 40.5 hbar
    ("spectrum --hbar 4.43e306 --N 40 --J 40", 0),
    ("spectrum --hbar 1e307 --B 1e-310 --N 0 --J 18", 0),  # L, whose entries would overflow, is never scaled
    ("dump-matrix --op H --N 100 --J 1 --hbar 1e307", 2),  # hbar*omega*(N+1/2), ladder form
    ("dump-matrix --op H --N 100 --J 1 --hbar 1.7e306", 0),
    ("dump-matrix --op L --N 100 --J 1 --hbar 1e307", 2),  # hbar*max(N, J)
    ("dump-matrix --op L --N 100 --J 1 --hbar 1.7e306", 0),
    ("dump-matrix --op H --form quadratic --N 100 --J 1 --hbar 1e307", 2),
    ("dump-matrix --op H --form quadratic --N 100 --J 1 --hbar 1.81e306", 2),  # 99.5 hbar*omega
    ("dump-matrix --op H --form quadratic --N 100 --J 1 --hbar 1.8e306", 0),
    ("dump-matrix --op x --B 1e-310", 2),  # ell^2 = hbar*c/(e*B) overflows
    ("dump-matrix --op x --B 5.56e-309", 2),
    ("dump-matrix --op x --B 5.57e-309", 0),
    ("dump-matrix --op y --B 1e-310", 2),
    ("dump-matrix --op y --B 5.56e-309", 2),
    ("dump-matrix --op y --B 5.57e-309", 0),
    ("dump-matrix --op xy-commutator --hbar 1e307 --J 40", 2),
    ("dump-matrix --op xy-commutator --hbar 4.39e306 --J 40", 2),  # 41 ell^2
    ("dump-matrix --op xy-commutator --hbar 4.38e306 --J 40", 0),
    ("landau-gauge --keep 0 --k-range 1 --hbar 1e308", 2),
    ("landau-gauge --keep 0 --k-range 1 --hbar 4.5e307", 2),  # 2 * (keep+2) * ell^2
    ("landau-gauge --keep 0 --k-range 1 --hbar 4.4e307", 0),
    ("landau-gauge --keep 0 --hbar 1e306", 0),
    ("crosscheck --keep 0 --J 1 --k-range 1 --hbar 4.5e307", 2),  # the grid route's bound
    ("crosscheck --keep 0 --J 1 --k-range 1 --hbar 4.4e307", 0),
    # The ladder half is unit-free: only the grid route's bound applies, whatever J is.
    ("crosscheck --keep 0 --J 4000 --grid-M 5 --hbar 1e305", 1),  # the coarse grid fails its report
    ("crosscheck --keep 0 --J 4000 --grid-M 64 --hbar 4.5e304", 0),
    ("crosscheck --keep 0 --J 4000 --grid-M 64 --hbar 4.4e304", 0),
    ("crosscheck --keep 2 --k-range 1 --hbar 8.6e306", 0),
    ("crosscheck --keep 2 --k-range 1 --hbar 8.5e306", 0),
    ("crosscheck --keep 2 --k-range 1 --hbar 2.3e307", 2),  # 2 * (keep+2) * ell^2
    ("crosscheck --keep 2 --k-range 1 --hbar 2.2e307", 0),
]


@pytest.mark.parametrize("args,status", OVERFLOW_BOUNDS, ids=[case[0] for case in OVERFLOW_BOUNDS])
def test_overflowing_route_is_usage_error(args, status):
    cp = run_cli(*args.split(), "--output", "json")
    assert cp.returncode == status, cp.stderr
    if status == 2:
        assert cp.stdout == "" and "Traceback" not in cp.stderr
        assert cp.stderr.count("nclandau: error:") == 1
        assert cp.stderr.splitlines()[-1].endswith("overflows in these units")
    else:
        report = json.loads(cp.stdout)
        assert "entries" in report if args.startswith("dump-matrix") else report["ok"] is (status == 0)


def run_main(argv, with_stderr=False):
    """``cli.main(argv)`` in this process: its status (a usage error's too), its stdout, and its stderr if asked."""
    from nclandau import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    return (status, out.getvalue(), err.getvalue()) if with_stderr else (status, out.getvalue())


UNIT_FLAGS = ("--e", "--B", "--c", "--hbar", "--m")


def natural_twin(argv, drop_k_range=True):
    """``argv`` without its unit flags (and its --k-range, unless told not to): the same run in natural units."""
    dropped = (*UNIT_FLAGS, "--k-range") if drop_k_range else UNIT_FLAGS
    pairs = [(flag, value) for flag, value in zip(argv[1::2], argv[2::2]) if flag not in dropped]
    return argv[:1] + [item for pair in pairs for item in pair]


def units_of(argv):
    """The constants that ``argv``'s unit flags set, by name."""
    return {flag[2:]: float(value) for flag, value in zip(argv[1::2], argv[2::2]) if flag in UNIT_FLAGS}


def log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda power: 10.0**power)


@st.composite
def grid_argv(draw):
    command = draw(st.sampled_from(["landau-gauge", "crosscheck"]))
    sizes = draw(st.lists(st.integers(5, 600), min_size=1, max_size=1 if command == "crosscheck" else 4))
    argv = [command, "--keep", str(draw(st.integers(0, 6))), "--grid-M", ",".join(map(str, sizes))]
    if command == "crosscheck" and draw(st.booleans()):
        argv += ["--J", str(draw(st.integers(0, 4100)))]
    for flag in UNIT_FLAGS:
        value = draw(st.none() | log_uniform(1e-320, 1e308))
        argv += [] if value is None else [flag, repr(value)]
    k_range = draw(st.none() | log_uniform(1e-300, 1e300))
    argv += [] if k_range is None else ["--k-range", repr(k_range)]
    return argv + ["--output", draw(st.sampled_from(["json", "csv", "table"]))]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(grid_argv())
def test_grid_commands_keep_the_exit_contract_in_any_units(argv):
    # the grid route forms pure numbers and cli scales them by ell^2 once, so no unit system changes a verdict
    status, _ = run_main(argv)
    assert status in (0, 1, 2)
    if status != 2:
        assert status == run_main(natural_twin(argv))[0]


def printed_grid_tops(argv, text):
    """The grid route's top coefficients a landau-gauge or crosscheck report prints, one per grid size."""
    crosscheck, output = argv[0] == "crosscheck", argv[argv.index("--output") + 1]
    if output == "json":
        report = json.loads(text)
        return [complex(*report["landau_gauge"])] if crosscheck else [
            complex(row["re_coeff"], row["im_coeff"]) for row in report["rows"]]
    if output == "csv":
        keys = ("lan_re", "lan_im") if crosscheck else ("re_coeff", "im_coeff")
        return [complex(float(row[keys[0]]), float(row[keys[1]])) for row in csv.DictReader(io.StringIO(text))]
    lines = text.splitlines()
    if crosscheck:  # "  momentum route  : re imi"
        re, im = next(line for line in lines if "momentum route" in line).split(":")[1].split()
        return [complex(float(re), float(im.removesuffix("i")))]
    return [complex(float(line.split()[3]), float(line.split()[4])) for line in lines[3:-1]]


def assert_grid_tops_within_their_bound(argv, text):
    # landau_gauge docstring: each pure top within 7 eps (M + keep + 13) of -i(keep + c(M)), c(M) from grid_mean
    # within 5 eps. cli scales by ell^2 and rounds once, this test once more, and 15 printed digits add 5e-15.
    from nclandau import cli
    from nclandau.units import PhysicalUnits, magnetic_length_squared

    flags = dict(zip(argv[1::2], argv[2::2]))
    keep, ell2 = int(flags.get("--keep", 0)), magnetic_length_squared(PhysicalUnits(**units_of(argv)))
    default = cli.DEFAULT_GRID_M if argv[0] == "landau-gauge" else str(cli.DEFAULT_CROSSCHECK_M)
    sizes = [int(size) for size in flags.get("--grid-M", default).split(",")]
    for M, top in zip(sizes, printed_grid_tops(argv, text), strict=True):
        expected = -1j * (keep + grid_mean(M)) * ell2
        assert abs(top - expected) <= ell2 * 2.0**-52 * (7 * (M + keep + 13) + 5) + 6e-15 * abs(expected) + 1e-323


@st.composite
def admission_argv(draw):
    """landau-gauge or crosscheck argv with keep, J and each grid size small or on either side of the size cap."""
    command = draw(st.sampled_from(["landau-gauge", "crosscheck"]))
    size = st.integers(5, 300) | st.sampled_from([16384, 16385])
    sizes = draw(st.lists(size, min_size=1, max_size=1 if command == "crosscheck" else 3))
    argv = [command, "--keep", str(draw(st.integers(0, 8) | st.sampled_from([16383, 16384]))),
            "--grid-M", ",".join(map(str, sizes))]
    if command == "crosscheck" and draw(st.booleans()):
        argv += ["--J", str(draw(st.integers(1, 8) | st.sampled_from([16383, 16384])))]
    for flag in UNIT_FLAGS:
        value = draw(st.none() | log_uniform(1e-320, 1e308))
        argv += [] if value is None else [flag, repr(value)]
    return argv + ["--output", draw(st.sampled_from(["json", "csv", "table"]))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(admission_argv())
def test_grid_commands_keep_the_exit_contract_at_the_size_cap(argv):
    # a traceback would leave cli.main here as an exception other than SystemExit
    status, out, err = run_main(argv, with_stderr=True)
    assert status in (0, 1, 2) and "Traceback" not in err
    if status == 2:
        assert out == "" and err.count("nclandau: error:") == 1
    else:
        assert err == ""
        assert_grid_tops_within_their_bound(argv, out)


def assert_scaled_twin(got, natural, scales, key=None):
    """Each number of the JSON value ``got`` is its twin in ``natural`` times the scale ``scales`` names for its
    key, within 1.1e-14 relative or 1e-323 (as in assert_ladder_digits_are_the_natural_ones_times below); every
    other value, and every number of a key with no scale, equals its twin exactly."""
    if isinstance(got, dict):
        assert list(got) == list(natural)
        for name in got:
            assert_scaled_twin(got[name], natural[name], scales, name)
    elif isinstance(got, list):
        for value, natural_value in zip(got, natural, strict=True):
            assert_scaled_twin(value, natural_value, scales, key)
    elif key in scales:
        want = scales[key] * natural
        assert abs(got - want) <= 1.1e-14 * abs(want) + 1e-323, (key, got, want)
    else:
        assert got == natural, (key, got, natural)


@st.composite
def grid_units_argv(draw):
    """landau-gauge or crosscheck JSON argv, with or without a --k-range, then its unit flags, each log-uniform."""
    command = draw(st.sampled_from(["landau-gauge", "crosscheck"]))
    sizes = draw(st.lists(st.integers(5, 600), min_size=1, max_size=1 if command == "crosscheck" else 4))
    argv = [command, "--keep", str(draw(st.integers(0, 6))), "--grid-M", ",".join(map(str, sizes))]
    if command == "crosscheck" and draw(st.booleans()):
        argv += ["--J", str(draw(st.integers(1, 200)))]
    k_range = draw(st.none() | log_uniform(1e-160, 1e160))
    argv += ([] if k_range is None else ["--k-range", repr(k_range)]) + ["--output", "json"]
    for flag in UNIT_FLAGS:
        value = draw(st.none() | log_uniform(1e-320, 1e308))
        argv += [] if value is None else [flag, repr(value)]
    return argv


def json_argv(args):
    return [*args.split(), "--output", "json"]


def assert_grid_numbers_are_the_natural_ones_times_their_scales(argv):
    # both routes compute at ell = 1 and cli scales each printed value once: ell^2 for the coefficients and errors,
    # e B ell / c for dk; the verdicts, orders and relative differences are the natural-units ones
    from nclandau.landau_gauge import DEFAULT_HALF_WIDTH, KGrid
    from nclandau.units import PhysicalUnits, magnetic_length_squared, momentum_grid_scale

    (status, text), (natural_status, natural_text) = run_main(argv), run_main(natural_twin(argv, drop_k_range=False))
    try:
        units = PhysicalUnits(**units_of(argv))
    except ValueError:
        assert (status, text) == (2, "")
        return
    ell2, dk_scale = magnetic_length_squared(units), momentum_grid_scale(units)
    if status == 2 and natural_status != 2:  # only the rules that read the units reject it
        flags = dict(zip(argv[1::2], argv[2::2]))
        k_range = float(flags.get("--k-range", DEFAULT_HALF_WIDTH))
        dks = [dk_scale * KGrid.centered(int(M), k_range).dk for M in flags["--grid-M"].split(",")]
        assert 2 * (int(flags["--keep"]) + 2) * ell2 == math.inf or not all(0 < dk < math.inf for dk in dks)
        return
    assert status == natural_status
    if status != 2:
        scales = {"dk": dk_scale, **dict.fromkeys(
            ("expected", "re_coeff", "im_coeff", "abs_error", "symmetric_gauge", "landau_gauge"), ell2)}
        assert_scaled_twin(json.loads(text), json.loads(natural_text), scales)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(grid_units_argv())
def test_grid_numbers_are_the_natural_ones_times_their_scales_in_any_units(argv):
    assert_grid_numbers_are_the_natural_ones_times_their_scales(argv)


# Units in which c/eB, hbar or m lies far outside the float range that ell^2 = hbar c/eB keeps to.
GRID_UNIT_EXTREMES = [
    "landau-gauge --B 1e215",
    "landau-gauge --c 1e-220",
    "landau-gauge --e 1e-150 --c 1e150",
    "landau-gauge --keep 3 --hbar 1e306",
    "landau-gauge --keep 3 --m 1e300",
    "crosscheck --keep 3 --hbar 1e-150 --m 1e-150",
    "crosscheck --keep 2 --grid-M 128 --B 1.14e+238",
    "crosscheck --keep 3 --e 1.5 --B 0.7 --c 1.3 --hbar 0.6 --m 2",
    "landau-gauge --grid-M 32,64 --hbar 1e300 --B 1e10 --m 1e20",  # e B ell / c = 1e155
]


@pytest.mark.parametrize("args", GRID_UNIT_EXTREMES)
def test_extreme_units_print_the_natural_grid_numbers_times_their_scales(args):
    argv = json_argv(args)
    assert run_main(argv)[0] == 0
    assert_grid_numbers_are_the_natural_ones_times_their_scales(argv)


def ladder_values(report):
    """The ladder route's printed numbers in a commutator, sweep or crosscheck JSON report, in order."""
    if "symmetric_gauge" in report:
        return report["symmetric_gauge"]
    values = []
    for r in report.get("reports", [report]):
        values += [*r["top_coefficient"], r["max_offtop_residual"]]
        values += [part for artifact in r["boundary_artifacts"] for part in artifact["value"]]
    return values


def assert_ladder_digits_are_the_natural_ones_times(ell2, text, natural_text):
    # cli rounds each value once when it scales by ell^2 (cli module docstring), this
    # test once more, and each side prints 15 digits (5e-15 relative): 1.1e-14 in all, or 1e-323 subnormal.
    got, natural = json.loads(text), json.loads(natural_text)
    assert got["ok"] == natural["ok"]
    for value, natural_value in zip(ladder_values(got), ladder_values(natural), strict=True):
        assert abs(value - ell2 * natural_value) <= 1.1e-14 * abs(ell2 * natural_value) + 1e-323


@st.composite
def ladder_argv(draw):
    command = draw(st.sampled_from(["commutator", "sweep", "crosscheck"]))
    if command == "crosscheck":
        argv = [command, "--keep", str(draw(st.integers(0, 6))), "--grid-M", str(draw(st.integers(5, 300)))]
        argv += ["--J", str(draw(st.integers(1, 200)))] if draw(st.booleans()) else []
    else:
        N = draw(st.integers(0, 8))
        argv = [command, "--N", str(N), "--J", str(draw(st.integers(1, 60)))]
        argv += ["--keep", str(draw(st.integers(0, N)))] if command == "commutator" and draw(st.booleans()) else []
    for flag in UNIT_FLAGS:
        value = draw(st.none() | log_uniform(1e-320, 1e308))
        argv += [] if value is None else [flag, repr(value)]
    return argv + ["--output", "json"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(ladder_argv())
def test_ladder_commands_give_the_natural_digits_times_ell_squared_in_any_units(argv):
    # the ladder route scores pure numbers and cli scales its report by ell^2 once
    from nclandau.units import PhysicalUnits, magnetic_length_squared

    try:
        ell2 = magnetic_length_squared(PhysicalUnits(**units_of(argv)))
    except ValueError:
        assert run_main(argv) == (2, "")
        return
    flags = dict(zip(argv[1::2], argv[2::2]))
    N = int(flags.get("--N", flags.get("--keep")))
    J = int(flags.get("--J", N + 3))
    if argv[0] != "crosscheck" and (N + J + 2) * ell2 == math.inf:
        return  # a reported value may overflow: the open ell^2 (N+J+2) bound
    status, text = run_main(argv)
    if argv[0] == "crosscheck" and status == 2:
        return  # the grid route's own bounds, held by the grid property
    natural_status, natural_text = run_main(natural_twin(argv))
    assert status == natural_status
    assert_ladder_digits_are_the_natural_ones_times(ell2, text, natural_text)


@pytest.mark.parametrize("args", [
    "commutator --N 3 --J 50 --hbar 1.5e306",
    "sweep --N 3 --J 50 --hbar 1.5e306",
    "sweep --hbar 1e307",
])
def test_ladder_values_near_the_float_range_give_the_natural_digits_times_ell_squared(args):
    # no intermediate of the ladder route is larger than its largest reported value
    from nclandau.units import PhysicalUnits, magnetic_length_squared

    argv = [*args.split(), "--output", "json"]
    (status, text), (natural_status, natural_text) = run_main(argv), run_main(natural_twin(argv))
    assert status == natural_status == 0
    ell2 = magnetic_length_squared(PhysicalUnits(**units_of(argv)))
    assert_ladder_digits_are_the_natural_ones_times(ell2, text, natural_text)


def test_sweep_field_rescaling():
    # ell^2 = hbar c / eB, so doubling B halves every printed coefficient
    argv = ["sweep", "--N", "2", "--J", "4", "--B", "2.0", "--output", "json"]
    (status, text), (natural_status, natural_text) = run_main(argv), run_main(natural_twin(argv))
    assert status == natural_status == 0
    reports, natural = json.loads(text)["reports"], json.loads(natural_text)["reports"]
    for strong, weak in zip(reports, natural, strict=True):
        assert strong["top_coefficient"][1] == pytest.approx(0.5 * weak["top_coefficient"][1], rel=1e-14)
        assert strong["ok"]


def test_sweep_physical_units_scaling_of_report():
    status, text = run_main(["sweep", "--N", "3", "--J", "6", "--B", "2", "--output", "json"])
    assert status == 0
    for keep, report in enumerate(json.loads(text)["reports"]):
        assert complex(*report["top_coefficient"]) == pytest.approx(-0.5j * (keep + 1), abs=1e-12)


def test_landau_gauge_field_rescaling():
    status, text = run_main(["landau-gauge", "--keep", "0", "--grid-M", "128", "--B", "2.0", "--output", "json"])
    assert status == 0
    data = json.loads(text)
    assert data["expected"] == [0.0, -0.5]
    row = data["rows"][-1]
    assert complex(row["re_coeff"], row["im_coeff"]) == pytest.approx(-0.5j, abs=0.005)


# Units whose ell^2 lies near either end of the float range, or makes the residual subnormal.
EXTREME_CONSTANTS = [
    {"hbar": 1e306}, {"B": 1e-300}, {"hbar": 1e-300, "m": 1e-10}, {"hbar": sys.float_info.min},
    {"e": 1e-150, "c": 1e150}, {"e": 1.5, "B": 0.7, "c": 1.3, "hbar": 0.6, "m": 2},
]


@pytest.mark.parametrize("units", EXTREME_CONSTANTS)
def test_reports_are_the_natural_ones_times_ell_squared(units):
    # cli rounds each part of ell^2 times a pure number once (cli module docstring), before printing
    from fractions import Fraction

    from nclandau import cli
    from nclandau.fock import Cutoffs
    from nclandau.projection import sweep
    from nclandau.units import PhysicalUnits, magnetic_length_squared

    from nclandau.serialize import dumps, format_float

    ell2, half_eps = magnetic_length_squared(PhysicalUnits(**units)), Fraction(sys.float_info.epsilon) / 2
    for report in sweep(Cutoffs(3, 50)):
        assert (report.ok, report.top_uniform) == (True, True)
        got = cli._commutator_payload(report, ell2, {})
        values = [*got["top_coefficient"], got["max_offtop_residual"]]
        natural_values = [*cli._pair(report.top_coefficient, 1.0), report.max_offtop_residual]
        for value, natural_value in zip(values, natural_values, strict=True):
            exact = Fraction(ell2) * Fraction(natural_value)
            assert abs(Fraction(value) - exact) <= half_eps * abs(exact) + Fraction(2) ** -1075
            assert math.copysign(1.0, value) == math.copysign(1.0, natural_value)
        # The artifacts are JSON text: each part prints ell^2 times its natural value rounded once, sign and all.
        printed = json.loads(dumps(got), parse_int=float)["boundary_artifacts"]
        parts = [format_float(part) for artifact in printed for part in artifact["value"]]
        natural_parts = [part for _, value in report.boundary_artifacts for part in cli._pair(value, 1.0)]
        assert parts == [format_float(math.copysign(float(Fraction(ell2) * Fraction(part)), part))
                         for part in natural_parts]


def natural_factor(op, units):
    """What --op ``op`` in ``units`` is, in exact arithmetic, times the same --op in natural units."""
    from nclandau.units import level_spacing, magnetic_length_squared, momentum_scale

    ell, p = math.sqrt(magnetic_length_squared(units)), momentum_scale(units) * math.sqrt(8.0)
    # x, y: sqrt(ell^2 / 2) over sqrt(1/2); px, py: sqrt(hbar e B / 8c) over sqrt(1/8)
    factors = {"x": ell, "y": ell, "px": p, "py": p, "H": level_spacing(units), "L": units.hbar,
               "xy-commutator": magnetic_length_squared(units)}
    return factors.get(op, 1.0)


def dumped_operator(argv):
    """``run_main(argv)``'s status, and the operator its dump wrote (None if it wrote none)."""
    from unittest import mock

    from nclandau import fock

    with mock.patch.object(fock, "to_json_dict", wraps=fock.to_json_dict) as spy:
        status, _ = run_main(argv)
    return status, spy.call_args.args[0] if spy.called else None


OPS = ["a", "b", "alpha", "x", "y", "px", "py", "H", "L", "xy-commutator", "projector"]


@st.composite
def scaled_argv(draw):
    N, J = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    op = draw(st.sampled_from([None, *OPS]))
    argv = ["spectrum"] if op is None else ["dump-matrix", "--op", op]
    argv += ["--N", str(N), "--J", str(J)]
    if op == "projector":
        argv += ["--keep", str(draw(st.integers(0, N)))]
    if op == "H":
        argv += ["--form", draw(st.sampled_from(["ladder", "quadratic"]))]
    for flag in UNIT_FLAGS:
        value = draw(st.none() | log_uniform(1e-320, 1e308))
        argv += [] if value is None else [flag, repr(value)]
    return argv + ["--output", "json"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(scaled_argv())
def test_spectra_and_dumps_are_one_scale_times_the_natural_ones_in_any_units(argv):
    # every operator is one unit scale times a pure matrix, and only that product can overflow
    import numpy as np

    from nclandau.fock import Cutoffs
    from nclandau.spectrum import verify_spectrum
    from nclandau.units import NATURAL, PhysicalUnits, level_spacing

    status, op = dumped_operator(argv)
    assert status in (0, 2)  # a traceback raises out of run_main
    if status == 2:
        return
    units, flags = PhysicalUnits(**units_of(argv)), dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "spectrum":
        cutoffs = Cutoffs(int(flags["--N"]), int(flags["--J"]))
        got, pure = (verify_spectrum(cutoffs, u).eigenvalues for u in (units, NATURAL))
        assert [v.hex() for v in got] == [(level_spacing(units) * v).hex() for v in pure]
        return
    natural = dumped_operator(natural_twin(argv))[1]
    factor = natural_factor(flags["--op"], units)
    assert list(op.diagonals) == list(natural.diagonals)
    for k, v in natural.diagonals.items():
        got, want = op.diagonals[k].view(float), factor * v.view(float)
        assert np.all(np.abs(got - want) <= 4 * sys.float_info.epsilon * np.abs(want) + 4 * 2.0**-1074)
        assert np.array_equal(np.signbit(got), np.signbit(want))  # no zero changes sign


@pytest.mark.parametrize("command,value", [
    ("landau-gauge", "1e308"),  # the grid spacing overflows
    ("landau-gauge", "1e-300"),  # the test profile's squared width underflows
    ("crosscheck", "1e300"),  # the test profile's squared width overflows
])
def test_extreme_k_range_is_usage_error(command, value):
    cp = run_cli(command, "--k-range", value)
    assert cp.returncode == 2
    assert "--k-range" in cp.stderr and "Traceback" not in cp.stderr
    assert cp.stdout == ""


# The grid is laid out at ell = 1, so it is valid by --grid-M and --k-range alone in any units, and of the units
# only the printed dk, e B ell / c times the pure one, must be a positive float. Each exit status the ell = 1 grid
# changed is pinned beside its nearest input on the other side.
GRID_UNIT_EDGES = [
    ("landau-gauge --hbar 1e300 --k-range 1e-200", 2),  # exited 0, on a span laid out in units
    ("landau-gauge --hbar 1e300 --k-range 3.72e-154", 2),  # the test profile's squared width underflows
    ("landau-gauge --hbar 1e300 --k-range 3.73e-154", 0),
    ("crosscheck --hbar 1e300 --k-range 1e-200", 2),  # exited 0
    ("crosscheck --hbar 1e300 --k-range 3.73e-154", 0),
    ("landau-gauge --hbar 1e300 --B 1e10 --m 1e20", 0),  # exited 2: its span in units squared to inf
    ("crosscheck --hbar 1e300 --B 1e10 --m 1e20", 0),  # exited 2
    ("landau-gauge --grid-M 64 --k-range 56 --e 1e308 --hbar 1e308 --m 1e308", 0),  # dk = 1.78e308
    ("landau-gauge --grid-M 64 --k-range 57 --e 1e308 --hbar 1e308 --m 1e308", 2),  # dk overflows
    ("landau-gauge --grid-M 64 --k-range 4e-11 --hbar 5e-324 --c 1e300 --m 1e-300", 0),  # dk = 5e-324
    ("landau-gauge --grid-M 64 --k-range 3e-11 --hbar 5e-324 --c 1e300 --m 1e-300", 2),  # dk underflows to 0
]


@pytest.mark.parametrize("args,status", GRID_UNIT_EDGES, ids=[case[0] for case in GRID_UNIT_EDGES])
def test_grid_is_admitted_by_its_k_range_and_printed_dk(args, status):
    argv = json_argv(args)
    got, out, err = run_main(argv, with_stderr=True)
    assert got == status
    if status == 2:
        assert out == "" and err.count("nclandau: error:") == 1
        assert err.splitlines()[-1].startswith("nclandau: error: --grid-M ") and "--k-range" in err
    else:
        assert err == ""
        assert_grid_tops_within_their_bound(argv, out)


def test_units_config_file(tmp_path):
    cfg = tmp_path / "units.json"
    cfg.write_text(json.dumps({"B": 2.0}))
    cp = run_cli("commutator", "--N", "1", "--J", "3", "--keep", "0",
                 "--config", str(cfg), "--output", "json")
    assert cp.returncode == 0, cp.stderr
    data = json.loads(cp.stdout)
    assert data["top_coefficient"][1] == pytest.approx(-0.5, abs=1e-12)

    # explicit flag overrides the config file
    cp = run_cli("commutator", "--N", "1", "--J", "3", "--keep", "0",
                 "--config", str(cfg), "--B", "1", "--output", "json")
    data = json.loads(cp.stdout)
    assert data["top_coefficient"][1] == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("text", ["5", "null", "[]"])
def test_config_file_must_hold_an_object(tmp_path, text):
    cfg = tmp_path / "units.json"
    cfg.write_text(text)
    cp = run_cli("commutator", "--config", str(cfg))
    assert cp.returncode == 2
    assert "--config" in cp.stderr and "Traceback" not in cp.stderr


@pytest.mark.parametrize("content,message", [
    (b'{"e": \xff}', "--config: cannot read"),  # not UTF-8
    (b'{"e": 1' + b"0" * 400 + b"}", "constant e must be a positive finite float, got an integer of 401 digits"),
    (b'{"e": 1' + b"0" * 4299 + b"}", "got an integer of 4300 digits"),  # the longest int json reads
    (b'{"e": 1' + b"0" * 5000 + b"}", "--config: cannot read"),  # past json's int digit limit
], ids=["non-utf8", "huge-int", "longest-int", "too-long-int"])
def test_unusable_config_file_is_usage_error(tmp_path, content, message):
    cfg = tmp_path / "units.json"
    cfg.write_bytes(content)
    cp = run_cli("commutator", "--config", str(cfg))
    assert cp.returncode == 2
    assert cp.stderr.count("nclandau: error:") == 1 and message in cp.stderr
    assert "Traceback" not in cp.stderr
    assert max(map(len, cp.stderr.splitlines())) < 400  # no constant printed digit by digit


def test_config_file_rejects_boolean_constant(tmp_path):
    cfg = tmp_path / "units.json"
    cfg.write_text(json.dumps({"e": True}))
    cp = run_cli("commutator", "--config", str(cfg))
    assert cp.returncode == 2
    assert "constant e" in cp.stderr


def test_out_path_writes_file(tmp_path):
    out = tmp_path / "report.json"
    cp = run_cli("commutator", "--N", "1", "--J", "3", "--output", "json",
                 "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == ""
    data = json.loads(out.read_text())
    assert data["keep"] == 1


def test_unwritable_out_path_is_usage_error(tmp_path):
    out = tmp_path / "missing" / "report.json"
    cp = run_cli("commutator", "--N", "1", "--J", "3", "--out", str(out))
    assert cp.returncode == 2
    assert "--out: cannot write" in cp.stderr and "Traceback" not in cp.stderr
    assert cp.stdout == ""


def test_env_default_output():
    cp = run_cli("spectrum", "--N", "1", "--J", "0",
                 env_extra={"NCG_DEFAULT_OUTPUT": "json"})
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["ok"] is True

    cp = run_cli("spectrum", "--N", "1", "--J", "0",
                 env_extra={"NCG_DEFAULT_OUTPUT": "yaml"})
    assert cp.returncode == 2
    assert "NCG_DEFAULT_OUTPUT" in cp.stderr


def test_byte_identical_reruns():
    args = ("sweep", "--N", "4", "--J", "8", "--output", "json")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith("\n")


def test_float_formatting_is_short():
    cp = run_cli("commutator", "--N", "5", "--J", "8", "--keep", "5", "--output", "json")
    assert '"top_coefficient": [0, -6]' in cp.stdout


# Exact stdout and exit status of every subcommand in every format it
# emits, at small sizes. Captured before the renderer was unified; any
# change to these bytes is a change to the CLI contract. The ladder-route
# residuals, the grid-route relative difference and the xy-commutator's
# zeros are rounding of the diagonal products.
GOLDEN = [
    ("commutator --N 2 --J 2 --keep 1 --output json", 0,
     """\
{"N": 2, "J": 2, "keep": 1, "top_coefficient": [0, -2], "max_offtop_residual": 4.44089209850063e-16, "boundary_artifacts": [{"row": [0, 2], "col": [0, 2], "value": [0, 3]}, {"row": [1, 2], "col": [1, 2], "value": [0, 1]}], "ok": true}
"""),
    ("commutator --N 2 --J 2 --keep 1 --output csv", 0,
     """\
keep,re,im,residual
1,0,-2,4.44089209850063e-16
"""),
    ("commutator --N 2 --J 2 --keep 1 --output table", 0,
     """\
projected coordinate commutator  N=2 J=2 keep=1
keep  re  im  residual
----  --  --  --------------------
1     0   -2  4.44089209850063e-16
status: ok
"""),
    ("sweep --N 2 --J 2 --B 2 --output json", 0,
     """\
{"reports": [{"N": 2, "J": 2, "keep": 0, "top_coefficient": [0, -0.5], "max_offtop_residual": 0, "boundary_artifacts": [{"row": [0, 2], "col": [0, 2], "value": [0, 1]}], "ok": true}, {"N": 2, "J": 2, "keep": 1, "top_coefficient": [0, -1], "max_offtop_residual": 2.22044604925031e-16, "boundary_artifacts": [{"row": [0, 2], "col": [0, 2], "value": [0, 1.5]}, {"row": [1, 2], "col": [1, 2], "value": [0, 0.5]}], "ok": true}, {"N": 2, "J": 2, "keep": 2, "top_coefficient": [0, -1.5], "max_offtop_residual": 2.22044604925031e-16, "boundary_artifacts": [{"row": [0, 2], "col": [0, 2], "value": [0, 1.5]}, {"row": [1, 2], "col": [1, 2], "value": [0, 1.5]}], "ok": true}], "ok": true}
"""),
    ("sweep --N 2 --J 2 --B 2 --output csv", 0,
     """\
keep,re,im,residual
0,0,-0.5,0
1,0,-1,2.22044604925031e-16
2,0,-1.5,2.22044604925031e-16
"""),
    ("sweep --N 2 --J 2 --B 2 --output table", 0,
     """\
projected commutator sweep  N=2 J=2
keep  re  im    residual
----  --  ----  --------------------
0     0   -0.5  0
1     0   -1    2.22044604925031e-16
2     0   -1.5  2.22044604925031e-16
status: ok
"""),
    ("spectrum --N 2 --J 1 --hbar 0.5 --output json", 0,
     """\
{"N": 2, "J": 1, "eigenvalues": [0.25, 0.25, 0.75, 0.75, 1.25, 1.25], "expected": [0.25, 0.25, 0.75, 0.75, 1.25, 1.25], "max_abs_error": 2.22044604925031e-16, "degeneracy_table": {"0": 2, "1": 2, "2": 2}, "hl_commutes": true, "ok": true}
"""),
    ("spectrum --N 2 --J 1 --hbar 0.5 --output csv", 0,
     """\
level,energy,multiplicity
0,0.25,2
1,0.75,2
2,1.25,2
"""),
    ("spectrum --N 2 --J 1 --hbar 0.5 --output table", 0,
     """\
level spectrum  N=2 J=1  max error 2.22044604925031e-16
level  energy  multiplicity
-----  ------  ------------
0      0.25    2
1      0.75    2
2      1.25    2
status: ok
"""),
    ("landau-gauge --keep 0 --grid-M 8,16 --output json", 1,
     """\
{"keep": 0, "expected": [0, -1], "rows": [{"M": 8, "dk": 2.28571428571429, "keep": 0, "re_coeff": 0, "im_coeff": -0.906612978692374, "abs_error": 0.0933870213076263, "observed_order": null}, {"M": 16, "dk": 1.06666666666667, "keep": 0, "re_coeff": 0, "im_coeff": -1.0170809847979, "abs_error": 0.0170809847979019, "observed_order": 2.22896897781351}], "ok": false}
"""),
    ("landau-gauge --keep 0 --grid-M 8,16 --output csv", 1,
     """\
M,dk,keep,re_coeff,im_coeff,abs_error,observed_order
8,2.28571428571429,0,0,-0.906612978692374,0.0933870213076263,
16,1.06666666666667,0,0,-1.0170809847979,0.0170809847979019,2.22896897781351
"""),
    ("landau-gauge --keep 0 --grid-M 8,16 --output table", 1,
     """\
momentum-grid convergence  keep=0
M   dk                keep  re_coeff  im_coeff            abs_error           observed_order
--  ----------------  ----  --------  ------------------  ------------------  ----------------
8   2.28571428571429  0     0         -0.906612978692374  0.0933870213076263
16  1.06666666666667  0     0         -1.0170809847979    0.0170809847979019  2.22896897781351
status: FAILED
"""),
    ("crosscheck --keep 0 --J 2 --grid-M 32 --output json", 0,
     """\
{"keep": 0, "J": 2, "grid_M": 32, "symmetric_gauge": [0, -1], "landau_gauge": [0, -1.0090154015176], "relative_difference": 0.00901540151759872, "ok": true}
"""),
    ("crosscheck --keep 0 --J 2 --grid-M 32 --output csv", 0,
     """\
keep,J,grid_M,sym_re,sym_im,lan_re,lan_im,rel_diff
0,2,32,0,-1,0,-1.0090154015176,0.00901540151759872
"""),
    ("crosscheck --keep 0 --J 2 --grid-M 32 --output table", 0,
     """\
gauge crosscheck  keep=0
  ladder route    : 0 -1i
  momentum route  : 0 -1.0090154015176i
  relative diff   : 0.00901540151759872
status: ok
"""),
    ("dump-matrix --op xy-commutator --N 1 --J 1 --output json", 0,
     """\
{"dim": 4, "entries": [[0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 2], [0, 0], [0, 0], [0, 0], [0, 0], [0, -2], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]]}
"""),
]


@pytest.mark.parametrize("args,status,stdout", GOLDEN, ids=[case[0] for case in GOLDEN])
def test_output_bytes_are_pinned(args, status, stdout):
    cp = run_cli(*args.split())
    assert cp.returncode == status, cp.stderr
    assert cp.stdout == stdout


# sha256 of the stdout of dumps (and spectrum reports) too large to pin as text, each captured
# before a change to the dump encoder.
_CONSTANTS = "--e 1.5 --B 0.7 --c 1.3 --hbar 0.6 --m 2"
_UNITS = f"--N 3 --J 4 {_CONSTANTS}"
# The ladder-route and crosscheck reports in non-natural units, captured while each engine still scaled
# its own report by ell^2, before cli took that scale over. The crosscheck digest was recaptured when the grid
# came to be laid out at ell = 1, with the relative difference taken on the pure tops: only the last digits of
# relative_difference moved.
UNITS_REPORTS = [
    (f"commutator --keep 2 {_UNITS} --output json", "9eeb4bd277d8e90b1078fa6db82a35f0a43f20c2d692cc91630569caa74dee52"),
    (f"sweep {_UNITS} --output json", "f986aa93c5a905f4592735ad1d0294ca81374effc8de1d6a442dd9d75c091c76"),
    (f"crosscheck --keep 1 --J 4 --grid-M 64 {_CONSTANTS} --output json",
     "91e923892efe9cb5d09f63347a97f0f6996febb9e473d888f1d86e5ac0190156"),
]
DUMP_DIGESTS = [
    ("dump-matrix --op x --N 16 --J 16", "dab1727f31e30d90e908c884a53a48d040970adce7b9aa05aacad8af556b305c"),
    ("dump-matrix --op px --N 5 --J 5 --e 1.5 --B 0.7",
     "620299488ea85fd63249a6dcc922f9612f2e4d26b9a3cb226cd85d8b8466ed9d"),
    # every --op in natural units, where every unit scale is 1
    ("dump-matrix --op a --N 3 --J 4", "45b3db7f6589b2c2ae04c9e17140ff2cba67a9cf5d8a9bc016af7e70162f1568"),
    ("dump-matrix --op b --N 3 --J 4", "95fdeec782376889ee8586dbfa6240176aa5e23f10fa834dcf7a3ca07cb8c316"),
    ("dump-matrix --op alpha --N 3 --J 4", "be24f83eec49c68c2ac4953f0fa4aa57723ade885500ad6f4d19ad1597fde1e7"),
    ("dump-matrix --op y --N 3 --J 4", "b8fa70904f7f48ccc4c447c7c17229d3b5c4eb25fb8961b0b9314ca48a574028"),
    ("dump-matrix --op px --N 3 --J 4", "0a8a00d380a4748716de292275da59d93bfbc00fee31ae29bf485e3ec6643102"),
    ("dump-matrix --op py --N 3 --J 4", "a6fedc0ac7eafd150d8ed0a178d0b41cf11cb581ee30689071616c22359a8faf"),
    ("dump-matrix --op H --N 3 --J 4", "c324418e26c8238c4c808bb84dc0954ea5100e87eaa4fcb8bca99de8c3b92daf"),
    ("dump-matrix --op H --form quadratic --N 3 --J 4",
     "817cc8c129cff0b4b73e54f00270445ca80631b19b0695159a4c1564604454fe"),
    ("dump-matrix --op L --N 3 --J 4", "7d18b690b726dedef6a6004b04e8b2e07921dbeb93ed84dedd2058345abfad09"),
    ("dump-matrix --op xy-commutator --N 3 --J 4", "53c38c0998d8726a2d39493a6da6d514137e9e89deada4cb8230df0595603ee6"),
    ("dump-matrix --op projector --keep 1 --N 3 --J 4",
     "28529eaa1596fa4f474bb0a848f4f3eae2b906dc76e4d66dfc9b5f52a6c61457"),
    # spectrum's JSON, whose eigenvalues are hbar omega times the pure ones
    ("spectrum --N 3 --J 4 --output json", "09345108d3fb8755d46b3ab16eca52db70ee0c2c1cafd19ba56249acf502f3a8"),
    (f"spectrum {_UNITS} --output json", "04f71e48b6e8aac7f0f8285bd5fabb371be451b896d65c564db60c35707cebbf"),
    # every --op in non-natural units; y carries signed zeros ("-0"). The xy-commutator and quadratic-H
    # digests were recaptured when those dumps became ell^2 and hbar omega times their natural-units builds.
    (f"dump-matrix --op a {_UNITS}", "45b3db7f6589b2c2ae04c9e17140ff2cba67a9cf5d8a9bc016af7e70162f1568"),
    (f"dump-matrix --op b {_UNITS}", "95fdeec782376889ee8586dbfa6240176aa5e23f10fa834dcf7a3ca07cb8c316"),
    (f"dump-matrix --op alpha {_UNITS}", "be24f83eec49c68c2ac4953f0fa4aa57723ade885500ad6f4d19ad1597fde1e7"),
    (f"dump-matrix --op x {_UNITS}", "615e5448fd358a6c9a4c081592a772e210a2cc16be87768e2db349a837577cc8"),
    (f"dump-matrix --op y {_UNITS}", "885bc803e638e3321981452b29fabb4e1374295c94a9f7f6afda17437d72bc72"),
    (f"dump-matrix --op px {_UNITS}", "150099af4d8de6c77cd8cb8a8254eb6e6ee02f62485ccd5db6ce2e12649a3cbf"),
    (f"dump-matrix --op py {_UNITS}", "2ba0b6584e5e0767d2b453944ff5cfc30a96055ae3526b58db3d0a7dbf182f1e"),
    (f"dump-matrix --op H {_UNITS}", "8a5f5120f0eb0ea0fde5a535fc2f7227e05111dd01ec14a7a0d815c15448138c"),
    (f"dump-matrix --op L {_UNITS}", "49d41db72ea78d55b094a38c951edcc09d85e8e72be5e2173c95f3d8b5d3afb4"),
    (f"dump-matrix --op xy-commutator {_UNITS}", "e6c88900642e32873acdbe84f4847576749cd66250ed42d43cdd3f8afcae9518"),
    (f"dump-matrix --op H --form quadratic {_UNITS}", "2e16159922eb9fd3c5a2c733d26157ab6ef6b5ee05b1bbbac01fbe521e8eb1a0"),
    (f"dump-matrix --op projector --keep 1 {_UNITS}", "28529eaa1596fa4f474bb0a848f4f3eae2b906dc76e4d66dfc9b5f52a6c61457"),
    *UNITS_REPORTS,
    # recaptured when cli took over the ell^2 scale (abs_error became ell^2 times the pure error), and again when
    # the grid route became one grid mean plus the level diagonal: each time only last digits of abs_error and
    # observed_order moved
    (f"landau-gauge --keep 1 {_CONSTANTS} --output json",
     "a6df39bafbba920643afcf968b2514c172a8bd7f4a92f0a55a496e52d86289df"),
]


@pytest.mark.parametrize("args,digest", DUMP_DIGESTS, ids=[case[0] for case in DUMP_DIGESTS])
def test_dump_bytes_are_pinned(args, digest):
    cp = run_cli(*args.split())
    assert cp.returncode == 0, cp.stderr
    assert hashlib.sha256(cp.stdout.encode()).hexdigest() == digest


def printed_numbers(text):
    """Every number of a JSON report, in order, as floats: a printed "-0" stays -0.0."""
    def walk(value):
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, list):
            return [number for item in value for number in walk(item)]
        return [value] if isinstance(value, float) else []

    return walk(json.loads(text, parse_int=float))


@pytest.mark.parametrize("args", [case[0] for case in UNITS_REPORTS])
def test_units_reports_print_each_zero_with_its_natural_sign(args):
    # cli scales each part of a pure number on its own, so a zero keeps its sign in any units
    argv = args.split()
    (status, text), (natural_status, natural_text) = run_main(argv), run_main(natural_twin(argv))
    assert status == natural_status == 0
    for value, natural in zip(printed_numbers(text), printed_numbers(natural_text), strict=True):
        if value == 0:
            assert math.copysign(1.0, value) == math.copysign(1.0, natural)


def test_pair_scales_each_part_apart():
    from nclandau import cli

    parts = cli._pair(complex(-0.0, -3.0), 0.5)
    assert parts == [0.0, -1.5] and math.copysign(1.0, parts[0]) == -1.0
    assert math.copysign(1.0, (0.5 * complex(-0.0, -3.0)).real) == 1.0  # what the complex product gives


@pytest.mark.parametrize("args", [
    "spectrum --N 3 --J 0 --B 5e-324",  # hbar omega / 2 rounds to 0
    "spectrum --N 4 --J 2 --e 1.5 --B 0.7 --c 1.3 --hbar 0.6 --m 2",
    "spectrum --N 6 --J 1 --hbar 0.37",
])
def test_spectrum_energy_cells_are_the_expected_level_values(args):
    J = int(args.split()[args.split().index("--J") + 1])
    (status, text), (csv_status, csv) = (run_main([*args.split(), "--output", fmt]) for fmt in ("json", "csv"))
    assert status == csv_status == 0
    expected = json.loads(text)["expected"]
    energies = [float(line.split(",")[1]) for line in csv.splitlines()[1:]]
    assert energies == [expected[n * (J + 1)] for n in range(len(energies))]


def test_sweep_reports_are_the_commutator_reports(capsys, monkeypatch):
    # one payload helper and one row helper serve both commands
    from nclandau import cli

    monkeypatch.delenv("NCG_DEFAULT_OUTPUT", raising=False)

    def stdout(*args):
        assert cli.main([*args, *_UNITS.split()]) == 0
        return capsys.readouterr().out

    sweep_json = json.loads(stdout("sweep", "--output", "json"))
    sweep_csv = stdout("sweep", "--output", "csv").splitlines()
    assert len(sweep_json["reports"]) == len(sweep_csv) - 1 == 4
    for keep in range(4):
        report = json.loads(stdout("commutator", "--keep", str(keep), "--output", "json"))
        assert report == sweep_json["reports"][keep]
        csv = stdout("commutator", "--keep", str(keep), "--output", "csv").splitlines()
        assert csv == [sweep_csv[0], sweep_csv[keep + 1]]


# ``python -m nclandau`` ends through ``cli.entry``, which skips interpreter
# teardown; its bytes and statuses must be those of ``cli.main``.
ENTRY_CASES = [
    "commutator --N 2 --J 3 --keep 1 --output json",
    "sweep --N 2 --J 3 --output csv",
    "spectrum --N 2 --J 1",
    "landau-gauge --grid-M 32,64 --output csv",
    "crosscheck --keep 0 --grid-M 32 --output json",
    "dump-matrix --op x --N 2 --J 2",
    "crosscheck --keep 0 --grid-M 16",  # a FAILED report, exit 1
]


def run_entry(*args, code=None):
    env = dict(os.environ)
    env.pop("NCG_DEFAULT_OUTPUT", None)
    argv = ["-c", code, *args] if code else ["-m", "nclandau", *args]
    return subprocess.run([sys.executable, *argv], capture_output=True, env=env)


@pytest.mark.parametrize("args", ENTRY_CASES)
def test_entry_matches_main(args, capsys, monkeypatch):
    from nclandau import cli

    monkeypatch.delenv("NCG_DEFAULT_OUTPUT", raising=False)
    status = cli.main(args.split())
    expected = capsys.readouterr().out.encode()
    cp = run_entry(*args.split())
    assert cp.returncode == status, cp.stderr
    assert cp.stdout == expected
    assert cp.stderr == b""


ATEXIT_PROBE = """
import atexit, sys
from nclandau import cli
atexit.register(lambda: sys.stderr.write("atexit-marker"))
sys.exit(cli.entry())
"""

TEARDOWN_PROBE = """
import sys
from nclandau import cli

class Witness:
    def __del__(self):
        sys.stderr.write("teardown-ran")

witness = Witness()
sys.exit(cli.entry())
"""


def test_entry_runs_atexit_handlers():
    cp = run_entry("commutator", "--output", "json", code=ATEXIT_PROBE)
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["ok"] is True
    assert cp.stderr == b"atexit-marker"


def test_entry_skips_module_teardown():
    cp = run_entry("commutator", "--output", "json", code=TEARDOWN_PROBE)
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["ok"] is True
    assert cp.stderr == b""


def test_entry_out_path_holds_the_whole_report(tmp_path, capsys):
    from nclandau import cli

    args = ["dump-matrix", "--op", "H", "--N", "6", "--J", "6"]
    cli.main(args)
    expected = capsys.readouterr().out
    out = tmp_path / "report.json"
    cp = run_entry(*args, "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == b""
    assert out.read_text() == expected


def test_entry_usage_error_exits_2():
    cp = run_entry("commutator", "--N", "3", "--keep", "5")
    assert cp.returncode == 2
    assert cp.stdout == b""
    assert cp.stderr.startswith(b"usage: nclandau") and b"--keep" in cp.stderr


# ``--help`` of the program and of every subcommand, at 80 columns.
HELP_DIGESTS = {
    "": "a97f0e7b9c4078887e84daca10a6f9eefbb7bf3052e5840c968cd649339baa2c",
    "commutator": "7bc93bcb92467478e1af30db97cdcd87638f254da6bed3951192a8ec97036a86",
    "sweep": "fd4998e6605c58604e66392bcc4bb3c713f3b613422f45c29cc9ccffc592ef9c",
    "spectrum": "8d2b1d740242037bb0b276fa139cfec26bf2da4ba5e55623cc5f85f26953e1c0",
    "landau-gauge": "08ff3df87521960869857c999f5483e2df16c7404f253926bd85c58161aed2b5",
    "crosscheck": "20c38fe1165c49286b0714261a76198b62f1c63dc11eef1b47c8a43eaf2db9af",
    "dump-matrix": "dd6b491e58755d63e827324afd2557a599a9bfcc83feb4ff7339d49098736d2f",
}


@pytest.mark.parametrize("command", HELP_DIGESTS)
def test_entry_help_bytes_are_pinned(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    cp = run_entry(*command.split(), "--help")
    assert cp.returncode == 0, cp.stderr
    assert cp.stderr == b""
    assert hashlib.sha256(cp.stdout).hexdigest() == HELP_DIGESTS[command]


@pytest.mark.parametrize("args", ["commutator --N 3 --keep 5", "--help"])
def test_entry_usage_error_and_help_run_atexit_handlers(args):
    cp = run_entry(*args.split(), code=ATEXIT_PROBE)
    assert cp.returncode == (0 if args == "--help" else 2)
    assert cp.stderr.endswith(b"atexit-marker")


@pytest.mark.parametrize("args", ["commutator --N 3 --keep 5", "--help"])
def test_entry_usage_error_and_help_skip_module_teardown(args):
    cp = run_entry(*args.split(), code=TEARDOWN_PROBE)
    assert cp.returncode == (0 if args == "--help" else 2)
    assert b"teardown-ran" not in cp.stderr


def test_entry_keeps_the_known_traceback():
    # an infinite hbar*c/(e*B) still ends in a traceback with exit 1;
    # the benchmark pins it as a known contract break
    cp = run_entry("commutator", "--B", "1e-310")
    assert cp.returncode == 1
    assert cp.stdout == b""
    assert b"Traceback (most recent call last)" in cp.stderr


# A report that cannot reach stdout takes the --out path: one error line and exit 2. With fd 1 closed at start,
# sys.stdout is None; argparse then prints --help on stderr and exits 0.
@pytest.mark.parametrize("args, status", [
    ("commutator", 2), ("sweep --N 2 --J 3 --output json", 2), ("commutator --N 3 --keep 5", 2), ("--help", 0),
])
def test_entry_with_stdout_closed_ends_without_a_traceback(args, status):
    env = dict(os.environ)
    env.pop("NCG_DEFAULT_OUTPUT", None)
    cp = subprocess.run([sys.executable, "-m", "nclandau", *args.split()], stderr=subprocess.PIPE, env=env,
                        preexec_fn=lambda: os.close(1))
    assert cp.returncode == status
    assert b"Traceback" not in cp.stderr
    assert cp.stderr.count(b"nclandau: error:") == (status == 2)


# Unbuffered, the write itself fails on /dev/full: exit 2. Buffered, the write succeeds and the flush fails, which
# takes the interpreter's normal exit: status 120 and its "Exception ignored" line.
@pytest.mark.parametrize("unbuffered, status, stderr", [
    ("1", 2, b"nclandau: error: cannot write stdout: [Errno 28]"), ("", 120, b"Exception ignored"),
])
def test_entry_on_a_full_stdout(unbuffered, status, stderr):
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env.pop("NCG_DEFAULT_OUTPUT", None)
    with open("/dev/full", "w") as full:
        cp = subprocess.run([sys.executable, "-m", "nclandau", "commutator"], stdout=full, stderr=subprocess.PIPE,
                            env=env)
    assert cp.returncode == status
    assert stderr in cp.stderr and b"Traceback" not in cp.stderr


ROOT = Path(__file__).resolve().parent.parent


def test_readme_commutator_schema_is_the_real_output():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Output schemas", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    cp = run_cli("commutator", "--N", "1", "--J", "3", "--keep", "1", "--output", "json")
    assert cp.returncode == 0, cp.stderr
    assert json.loads(block) == json.loads(cp.stdout)


def main_block_calls(path: Path) -> set[str]:
    """Names of the functions called in the ``if __name__ == "__main__"`` block of ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test):
            return {call.func.id for call in ast.walk(node)
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}
    return set()


def test_every_launcher_ends_through_entry():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"nclandau": "nclandau.cli:entry"}
    for module in ("__main__.py", "cli.py"):
        calls = main_block_calls(ROOT / "src" / "nclandau" / module)
        assert "entry" in calls and "main" not in calls, module
