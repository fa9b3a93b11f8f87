import ast
import hashlib
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest


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


# build_H multiplies by 1/(2*m) and m*(e*B/(2*m*c))**2/2 as Python floats;
# where either overflows, the quadratic form is a usage error.
QUADRATIC_H_CASES = [
    ("--B 1e200", 2),
    ("--B 1e160", 2),
    ("--m 1e-300", 2),
    ("--m 1e-309 --B 1e-10", 2),
    ("--e 1e250 --m 1e100", 2),
    ("--B 1e150", 0),
    ("--e 1e200 --c 1e200", 0),
]


@pytest.mark.parametrize("units,status", QUADRATIC_H_CASES, ids=[case[0] for case in QUADRATIC_H_CASES])
def test_quadratic_hamiltonian_overflow_is_usage_error(units, status):
    cp = run_cli("dump-matrix", "--op", "H", "--form", "quadratic", "--N", "2", "--J", "2",
                 *units.split())
    assert cp.returncode == status, cp.stderr
    if status == 2:
        assert cp.stdout == ""
        assert "--form quadratic" in cp.stderr and "Traceback" not in cp.stderr
    else:
        assert json.loads(cp.stdout)["dim"] == 9


def test_keep_exceeding_levels_is_usage_error():
    cp = run_cli("commutator", "--N", "2", "--J", "3", "--keep", "5")
    assert cp.returncode == 2
    assert "--keep" in cp.stderr


def test_degenerate_cutoff_is_usage_error():
    cp = run_cli("sweep", "--N", "2", "--J", "0")
    assert cp.returncode == 2
    assert "--J" in cp.stderr


def test_undersized_grid_is_usage_error():
    cp = run_cli("landau-gauge", "--grid-M", "3,4")
    assert cp.returncode == 2
    assert "--grid-M" in cp.stderr


@pytest.mark.parametrize("args", [
    "landau-gauge --grid-M 20000",
    "landau-gauge --keep 3 --grid-M 5000",
    "crosscheck --keep 3 --grid-M 5000",
])
def test_oversized_grid_is_usage_error(args):
    cp = run_cli(*args.split())
    assert cp.returncode == 2
    assert "--grid-M" in cp.stderr and "16384" in cp.stderr
    assert "Traceback" not in cp.stderr


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
{"keep": 0, "expected": [0, -1], "rows": [{"M": 8, "dk": 2.28571428571429, "keep": 0, "re_coeff": 0, "im_coeff": -0.906612978692374, "abs_error": 0.0933870213076264, "observed_order": null}, {"M": 16, "dk": 1.06666666666667, "keep": 0, "re_coeff": 0, "im_coeff": -1.0170809847979, "abs_error": 0.0170809847979014, "observed_order": 2.22896897781354}], "ok": false}
"""),
    ("landau-gauge --keep 0 --grid-M 8,16 --output csv", 1,
     """\
M,dk,keep,re_coeff,im_coeff,abs_error,observed_order
8,2.28571428571429,0,0,-0.906612978692374,0.0933870213076264,
16,1.06666666666667,0,0,-1.0170809847979,0.0170809847979014,2.22896897781354
"""),
    ("landau-gauge --keep 0 --grid-M 8,16 --output table", 1,
     """\
momentum-grid convergence  keep=0
M   dk                keep  re_coeff  im_coeff            abs_error           observed_order
--  ----------------  ----  --------  ------------------  ------------------  ----------------
8   2.28571428571429  0     0         -0.906612978692374  0.0933870213076264
16  1.06666666666667  0     0         -1.0170809847979    0.0170809847979014  2.22896897781354
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


# sha256 of the stdout of dumps too large to pin as text, each captured
# before a change to the dump encoder.
_UNITS = "--N 3 --J 4 --e 1.5 --B 0.7 --c 1.3 --hbar 0.6 --m 2"
DUMP_DIGESTS = [
    ("dump-matrix --op x --N 16 --J 16", "dab1727f31e30d90e908c884a53a48d040970adce7b9aa05aacad8af556b305c"),
    ("dump-matrix --op px --N 5 --J 5 --e 1.5 --B 0.7",
     "620299488ea85fd63249a6dcc922f9612f2e4d26b9a3cb226cd85d8b8466ed9d"),
    # every --op in non-natural units; y carries signed zeros ("-0")
    (f"dump-matrix --op a {_UNITS}", "45b3db7f6589b2c2ae04c9e17140ff2cba67a9cf5d8a9bc016af7e70162f1568"),
    (f"dump-matrix --op b {_UNITS}", "95fdeec782376889ee8586dbfa6240176aa5e23f10fa834dcf7a3ca07cb8c316"),
    (f"dump-matrix --op alpha {_UNITS}", "be24f83eec49c68c2ac4953f0fa4aa57723ade885500ad6f4d19ad1597fde1e7"),
    (f"dump-matrix --op x {_UNITS}", "615e5448fd358a6c9a4c081592a772e210a2cc16be87768e2db349a837577cc8"),
    (f"dump-matrix --op y {_UNITS}", "885bc803e638e3321981452b29fabb4e1374295c94a9f7f6afda17437d72bc72"),
    (f"dump-matrix --op px {_UNITS}", "150099af4d8de6c77cd8cb8a8254eb6e6ee02f62485ccd5db6ce2e12649a3cbf"),
    (f"dump-matrix --op py {_UNITS}", "2ba0b6584e5e0767d2b453944ff5cfc30a96055ae3526b58db3d0a7dbf182f1e"),
    (f"dump-matrix --op H {_UNITS}", "8a5f5120f0eb0ea0fde5a535fc2f7227e05111dd01ec14a7a0d815c15448138c"),
    (f"dump-matrix --op L {_UNITS}", "49d41db72ea78d55b094a38c951edcc09d85e8e72be5e2173c95f3d8b5d3afb4"),
    (f"dump-matrix --op xy-commutator {_UNITS}", "c6630f01d8261520c65221098d69fe822a7a7451073d2caf7ff7befbd13feaf9"),
    (f"dump-matrix --op H --form quadratic {_UNITS}", "63dabc2bd67c9e773c8abb37a95e400c3466a6bc5c729f64c97bd134bc58ebf3"),
    (f"dump-matrix --op projector --keep 1 {_UNITS}", "28529eaa1596fa4f474bb0a848f4f3eae2b906dc76e4d66dfc9b5f52a6c61457"),
]


@pytest.mark.parametrize("args,digest", DUMP_DIGESTS, ids=[case[0] for case in DUMP_DIGESTS])
def test_dump_bytes_are_pinned(args, digest):
    cp = run_cli(*args.split())
    assert cp.returncode == 0, cp.stderr
    assert hashlib.sha256(cp.stdout.encode()).hexdigest() == digest


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
    "landau-gauge": "e044f6e7bfb2f86b172b22f7c1983656277487b5bbe871bed65873ce214410e6",
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


ROOT = Path(__file__).resolve().parent.parent


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
