import hashlib
import io
import math
import re
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from deltasum import cli


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = cli.main(argv)
    return status, buf.getvalue()


def test_exponent_row():
    status, out = _run(["exponent", "--eta", "2/5"])
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# deltasum exponent:")
    assert lines[1] == (
        "eta,delta,final_exponent,subconvex,classical_threshold,"
        "blomer_harcos_exponent"
    )
    assert lines[2].startswith("2/5,0,1/4,false,2/7,")


def test_kloosterman_row():
    status, out = _run(["kloosterman", "--c", "3", "--a", "1", "--b", "1"])
    assert status == 0
    row = out.strip().splitlines()[2].split(",")
    assert row[:3] == ["1", "1", "3"]
    assert float(row[3]) == pytest.approx(-1.0, abs=1e-12)
    assert float(row[4]) == pytest.approx(2 * math.sqrt(3))
    assert float(row[5]) == pytest.approx(1 / (2 * math.sqrt(3)))


def test_delta_table():
    status, out = _run(["delta", "--Q", "10", "--P", "1", "--nmax", "50"])
    assert status == 0
    lines = out.strip().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 101
    values = {int(n): float(v) for n, v in rows}
    assert values[0] == 1.0
    assert all(abs(v) <= 1e-8 for n, v in values.items() if n != 0)


def test_delta_table_size_is_bounded(monkeypatch, capsys):
    """A table past the cell budget exits 2 with one line, before any
    decomposition runs."""
    monkeypatch.setattr(cli, "delta_decompose", lambda *args: pytest.fail("table built"))
    assert cli.main(["delta", "--Q", "10", "--nmax", "100000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: nmax 100000 at Q 10.0 needs ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["--Q", "32769", "--nmax", "0"], 32769),
        (["--Q", "10", "--nmax", "200000"], 40000),
        (["--Q", "1e9", "--nmax", "0"], 10**9),
    ],
)
def test_delta_rows_are_bounded(monkeypatch, capsys, argv, rows):
    """More moduli q than the row limit exits 2 with one line, before the
    scheme calibrates: the limit bounds the run time where the cell budget
    does not (Q = 40000 at nmax = 0 is 40000 cells)."""
    monkeypatch.setattr(cli, "DeltaScheme", lambda *args: pytest.fail("scheme built"))
    assert cli.main(["delta", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f" needs {rows} moduli q, over {cli._DELTA_ROWS}\n")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("q", ["inf", "nan", "1"])
def test_delta_rejects_a_q_that_is_not_finite_above_one(capsys, q):
    assert cli.main(["delta", "--Q", q]) == 2
    assert capsys.readouterr().err == "error: Q must be finite and exceed 1\n"


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("truncation_tol", "nan", "truncation_tol must be positive and finite"),
        ("truncation_tol", "0", "truncation_tol must be positive and finite"),
        ("truncation_tol", "inf", "truncation_tol must be positive and finite"),
        ("support_lo", "-5", "need 0 <= support_lo < support_hi < inf"),
        ("support_lo", "nan", "need 0 <= support_lo < support_hi < inf"),
        ("support_lo", "300", "need 0 <= support_lo < support_hi < inf"),
        ("support_hi", "inf", "need 0 <= support_lo < support_hi < inf"),
    ],
)
def test_voronoi_rejects_bad_windows_and_tolerances(capsys, flag, value, message):
    """A tolerance that is not positive and finite, or a window that is not
    0 <= lo < hi < inf, exits 2 with one line before any coefficient is
    read: a zero or NaN tolerance used to walk the whole coefficient bound,
    and a negative lo failed inside the quadrature as a math domain error."""
    assert cli.main(["voronoi", "--form", "E2_11_2", f"--{flag}", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_voronoi_reads_a_mod_q():
    """An a past 2^62 gives the phase of a mod q: numpy's int64 products
    used to wrap, and --a 2^62 + 1 solved to |eta| = 0.48."""
    rows = []
    for a in ("2", str(2**62 + 1)):
        status, out = _run(["voronoi", "--form", "E2_11_2", "--q", "3", "--a", a,
                            "--bound", "5000"])
        assert status == 0
        rows.append(out.splitlines()[2].split(","))
    assert rows[0][:2] + rows[0][3:] == rows[1][:2] + rows[1][3:]


def test_voronoi_nan_phase_is_inconclusive(monkeypatch, capsys):
    """A dual side that comes back NaN exits 3 with one line and no table,
    where the phase used to be written as nan with status 0."""
    from deltasum import pipeline

    nan = complex(math.nan, math.nan)
    monkeypatch.setattr(pipeline, "_dual_side", lambda f, a, q, hs, tol: [(nan, 10) for _ in hs])
    assert cli.main(["voronoi", "--form", "E2_11_2", "--q", "3", "--bound", "1000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Inconclusive: eta (nan+nanj) or residual nan ")
    assert captured.err.count("\n") == 1


def test_characters_table():
    status, out = _run(["characters", "--M", "5"])
    assert status == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 + 4 * 4  # four characters, four coprime residues


# sha256 of `deltasum characters --M m` as written by the per-residue
# discrete-log code that the log table replaced
_CHARACTER_TABLE_SHA256 = {
    1: "03225c444150338dd135a248de1e71f4ac6e2b30ca1276b065a4112459972c53",
    2: "28f30b0a6bcc773ab5e4b0935b225426d61826f4d96988fc6e741a97ffb50d1d",
    12: "64d3a4af9832d4b19ad197dbf7d87e6e701d29b3488c83e0c29d99a84ba4728e",
    16: "2702245726bf5a9ea51164053c7ac263c7493bf1ac171af82bf1c6854663452f",
    45: "b4f150e1d42332e4ac65cf9e184a79d50b0b4e1983ce127fbc084f77d61998fd",
    100: "29f19b8a039fd2a176ad28eda51ae3af1e811ef38c9ff14a5b679bcc2de550ff",
    211: "d8e44a6df3ca9f6f8a41dc27fe46ae41901ced0eea0c790f1d78bc866149364e",
}


@pytest.mark.parametrize("modulus", sorted(_CHARACTER_TABLE_SHA256))
def test_characters_table_unchanged(modulus):
    status, out = _run(["characters", "--M", str(modulus)])
    assert status == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == _CHARACTER_TABLE_SHA256[modulus]


def test_moment_command():
    status, out = _run(["moment", "--form", "E2_11_2", "--M", "5", "--X", "20"])
    assert status == 0
    header = out.strip().splitlines()[1].split(",")
    row = out.strip().splitlines()[2].split(",")
    cells = dict(zip(header, row))
    assert float(cells["second_moment"]) > 0
    assert float(cells["reconstruction_residual"]) <= 1e-8
    assert abs(float(cells["gauss_lhs"]) - float(cells["gauss_rhs"])) <= 1e-8 * abs(
        float(cells["gauss_lhs"])
    )


# sha256 of `deltasum moment` as written when the second_moment column was
# evaluated separately from the Gauss opening's lhs; the two Delta digests as
# written once lambda(n) and the window were evaluated over arrays (numpy's
# exp and power, last-bit changes of at most 2.8e-16 relative in two cells)
_MOMENT_SHA256 = {
    ("E2_11_2", 5, 20): "bffc5e03cca484e8b3c4c3354a628f050ee5e894881aab18c342c1fc36a51b49",
    ("Delta_1_12", 15, 30): "f99d00b27904bd04a25ed181342ea2e6916cf3db3a9fc0b5cc874da942998c5d",
    ("Delta_1_12", 211, 700): "885763f3b5bf9a853f472366c3d3a22c677d3ea93fc20443f64a0b3a1462b965",
}


@pytest.mark.parametrize("form,modulus,x_scale", sorted(_MOMENT_SHA256))
def test_moment_output_unchanged(form, modulus, x_scale):
    status, out = _run(["moment", "--form", form, "--M", str(modulus), "--X", str(x_scale)])
    assert status == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == _MOMENT_SHA256[(form, modulus, x_scale)]


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\neta = 1/5\n")
    status, out = _run(["--config", str(cfg), "exponent"])
    assert status == 0
    assert out.strip().splitlines()[2].startswith("1/5,")
    status, out = _run(["--config", str(cfg), "exponent", "--eta", "2/7"])
    assert status == 0
    assert out.strip().splitlines()[2].startswith("2/7,")


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("neta = 1/5\n")
    status = cli.main(["--config", str(cfg), "exponent"])
    assert status == 2
    assert "unknown key" in capsys.readouterr().err


def test_missing_required_parameter(capsys):
    status = cli.main(["characters"])
    assert status == 2
    assert "missing required parameter" in capsys.readouterr().err


def test_parameter_validation(capsys):
    status = cli.main(["shifted", "--f1", "E2_11_2", "--M", "11", "--r", "1", "--X", "20"])
    assert status == 2
    err = capsys.readouterr().err
    assert "coprime" in err


@pytest.mark.parametrize(
    "command,key,value",
    [("exponent", "eta", "abc"), ("voronoi", "form", "nope"), ("delta", "Q", "x")],
)
def test_bad_value_gives_one_error_line(command, key, value, tmp_path, capsys):
    """A bad flag value exits 2 with the same one-line error as the same
    value read from a config file."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    errors = []
    for argv in ([command, f"--{key}", value], ["--config", str(cfg), command]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: ") and errors[0].count("\n") == 1


def test_memory_error_exit_status(monkeypatch, capsys):
    def fail(a, b, c):
        raise MemoryError("unit table of 1048572 entries")

    monkeypatch.setattr(cli, "kloosterman", fail)
    status = cli.main(["kloosterman", "--c", "1048573", "--a", "1", "--b", "1"])
    captured = capsys.readouterr()
    assert status == 3
    assert captured.out == ""
    assert captured.err == "error: MemoryError: unit table of 1048572 entries\n"


def test_out_file_and_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("DELTASUM_OUT_DIR", str(tmp_path))
    status = cli.main(["exponent", "--eta", "2/5", "--out", "sub/table.csv"])
    assert status == 0
    written = (tmp_path / "sub" / "table.csv").read_text()
    assert written.splitlines()[2].startswith("2/5,")


def test_byte_identical_reruns():
    _, first = _run(["delta", "--Q", "6", "--P", "3", "--nmax", "20"])
    _, second = _run(["delta", "--Q", "6", "--P", "3", "--nmax", "20"])
    assert first == second


def test_verify_all_exit_status_on_failure(monkeypatch):
    from deltasum import verify

    def fake_run_all(threads=1):
        return [verify.CheckResult("demo.check", "forced failure", "FAIL", "detail")]

    monkeypatch.setattr(verify, "run_all", fake_run_all)
    status, out = _run(["verify-all"])
    assert status == 1
    assert "FAIL" in out


def test_verify_all_writes_every_row_past_a_numerical_failure(monkeypatch):
    """A row that raises an ArithmeticError is that row's FAIL: verify-all
    writes both rows and exits 1, not 3."""
    from deltasum import kernels, verify

    monkeypatch.setattr(verify, "REGISTRY", ())

    @verify._check("demo.raises", "raises NumericalFailure")
    def raises():
        raise kernels.NumericalFailure("quadrature did not converge", 0.5, 1e-3)

    @verify._check("demo.passes", "passes")
    def passes():
        return "PASS", "fine"

    status, out = _run(["verify-all"])
    assert status == 1
    assert out.splitlines()[2:] == [
        "demo.raises,raises NumericalFailure,FAIL,NumericalFailure: quadrature did not converge",
        "demo.passes,passes,PASS,fine",
    ]


def test_kloosterman_sweep_deterministic():
    args = ["kloosterman", "--cmax", "40", "--samples", "3", "--seed", "11"]
    _, first = _run(args)
    _, second = _run(args)
    assert first == second
    assert len(first.strip().splitlines()) == 2 + 40 * 3


def test_numerical_failure_exit_status():
    # Q this close to 1 leaves the calibration constant unusable
    proc = subprocess.run(
        [sys.executable, "-m", "deltasum.cli", "delta", "--Q", "1.01"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: CalibrationError: ")
    assert len(proc.stderr.splitlines()) == 1


# the header and column row of every subcommand, as written before each
# subcommand was declared once with @_command
_HEADER_LINES = [
    (
        ["characters", "--M", "15"],
        "# deltasum characters: character value tables: exact root-of-unity "
        "exponents  (columns: chi_index,residue,exponent_numerator,"
        "exponent_denominator)",
        "chi_index,residue,exponent_numerator,exponent_denominator",
    ),
    (
        ["kloosterman", "--c", "3", "--a", "1", "--b", "1"],
        "# deltasum kloosterman: Kloosterman sums with the Weil bound (columns: "
        "a,b,c,value,weil_bound,ratio)",
        "a,b,c,value,weil_bound,ratio",
    ),
    (
        ["delta", "--Q", "10", "--P", "1", "--nmax", "50"],
        "# deltasum delta: delta-symbol decomposition values; exactly 1 at n = 0 "
        "(columns: n,value)",
        "n,value",
    ),
    (
        ["voronoi", "--form", "E2_11_2", "--q", "3"],
        "# deltasum voronoi: dual-summation phase solve and cross-validation "
        "(columns: form,q,a,eta_re,eta_im,eta_abs_error,residual,dual_terms)",
        "form,q,a,eta_re,eta_im,eta_abs_error,residual,dual_terms",
    ),
    (
        ["shifted", "--f1", "E2_11_2", "--M", "2", "--r", "1", "--X", "40"],
        "# deltasum shifted: shifted convolution sum: direct vs decomposition with "
        "strata (columns: f1,f2,M,r,X,Y,direct,delta,coprime_stratum,gamma_stratum,"
        "modulus_stratum,bound,ratio,identity_residual,partition_residual)",
        "f1,f2,M,r,X,Y,direct,delta,coprime_stratum,gamma_stratum,modulus_stratum,"
        "bound,ratio,identity_residual,partition_residual",
    ),
    (
        ["moment", "--form", "Delta_1_12", "--M", "15", "--X", "30"],
        "# deltasum moment: second moment of twisted partial sums with its opening, "
        "diagonal split, and bound comparison; at level 1 the bound reduces to the "
        "classical single-form second-moment shape (columns: form,M,X,second_moment,"
        "gauss_lhs,gauss_rhs,diagonal,off_diagonal,r_bound,reconstruction_residual,"
        "bound_x,bound_value)",
        "form,M,X,second_moment,gauss_lhs,gauss_rhs,diagonal,off_diagonal,r_bound,"
        "reconstruction_residual,bound_x,bound_value",
    ),
    (
        ["exponent", "--eta", "2/5"],
        "# deltasum exponent: exact exponent arithmetic for the hybrid range "
        "(columns: eta,delta,final_exponent,subconvex,classical_threshold,"
        "blomer_harcos_exponent)",
        "eta,delta,final_exponent,subconvex,classical_threshold,blomer_harcos_exponent",
    ),
    (
        ["verify-all"],
        "# deltasum verify-all: module invariant suites (columns: "
        "check,label,status,detail)",
        "check,label,status,detail",
    ),
]


@pytest.mark.parametrize(
    "argv,header,columns", _HEADER_LINES, ids=[argv[0] for argv, _, _ in _HEADER_LINES]
)
def test_header_lines_unchanged(argv, header, columns, monkeypatch):
    from deltasum import verify

    # verify-all runs no checks here: only its first two lines are compared
    monkeypatch.setattr(verify, "run_all", lambda threads=1: [])
    status, out = _run(argv)
    assert status == 0
    assert out.splitlines()[:2] == [header, columns]


def test_verify_all_rejects_nonpositive_threads(monkeypatch, capsys):
    from deltasum import verify

    def fake_run_all(threads=1):
        raise AssertionError("run_all must not be reached")

    monkeypatch.setattr(verify, "run_all", fake_run_all)
    for threads in ("0", "-3"):
        status = cli.main(["verify-all", "--threads", threads])
        assert status == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: threads must be positive\n"


def test_threads_is_a_verify_all_option_only(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["exponent", "--threads", "2", "--eta", "2/5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


# One rejected value per numeric parameter of every command, with the other
# arguments that reach the check: (command, parameter, argv). Each exits 2
# with one stderr line naming the parameter, before any table is built.
_REJECTED = [
    ("characters", "M", ["--M", "0"]),
    ("characters", "M", ["--M", "1025"]),
    ("kloosterman", "c", ["--a", "1", "--b", "1", "--c", "0"]),
    ("kloosterman", "c", ["--a", "1", "--b", "1", "--c", "1048577"]),
    ("kloosterman", "c", ["--a", "1", "--b", "1", "--c", "2147483647"]),
    ("kloosterman", "cmax", ["--cmax", "0"]),
    ("kloosterman", "cmax", ["--cmax", "8193"]),
    ("kloosterman", "samples", ["--cmax", "3", "--samples", "0"]),
    ("kloosterman", "samples", ["--cmax", "4096", "--samples", "17"]),
    ("delta", "Q", ["--Q", "nan"]),
    ("delta", "P", ["--Q", "10", "--P", "4"]),
    ("delta", "P", ["--Q", "10", "--P", "2305843009213693951"]),
    ("delta", "nmax", ["--Q", "10", "--nmax", "-1"]),
    ("delta", "sharpness", ["--Q", "10", "--sharpness", "nan"]),
    ("delta", "sharpness", ["--Q", "10", "--sharpness", "0"]),
    ("delta", "sharpness", ["--Q", "10", "--sharpness", "1e-4"]),
    ("voronoi", "q", ["--form", "E2_11_2", "--q", "0"]),
    ("voronoi", "q", ["--form", "E2_11_2", "--q", "65537"]),
    ("voronoi", "a", ["--form", "E2_11_2", "--q", "3", "--a", "3"]),
    ("voronoi", "support_lo", ["--form", "E2_11_2", "--support_lo", "-5"]),
    ("voronoi", "support_hi", ["--form", "E2_11_2", "--support_hi", "inf"]),
    ("voronoi", "truncation_tol", ["--form", "E2_11_2", "--truncation_tol", "nan"]),
    ("voronoi", "bound", ["--form", "E2_11_2", "--bound", "250001"]),
    ("shifted", "M", ["--f1", "E2_11_2", "--X", "20", "--M", "4"]),
    ("shifted", "M", ["--f1", "E2_11_2", "--X", "20", "--M", "2147483649"]),
    ("shifted", "r", ["--f1", "E2_11_2", "--X", "20", "--M", "2", "--r", "0"]),
    ("shifted", "r", ["--f1", "E2_11_2", "--X", "20", "--M", "2", "--r", "1000000"]),
    ("shifted", "r", ["--f1", "E2_11_2", "--X", "20", "--M", "2", "--r", "100000000000000000001"]),
    ("shifted", "X", ["--f1", "E2_11_2", "--M", "2", "--X", "0.5"]),
    ("shifted", "X", ["--f1", "E2_11_2", "--M", "2", "--X", "inf"]),
    ("shifted", "X", ["--f1", "E2_11_2", "--M", "2", "--X", "nan"]),
    ("shifted", "Y", ["--f1", "E2_11_2", "--M", "2", "--X", "20", "--Y", "nan"]),
    ("shifted", "Y", ["--f1", "E2_11_2", "--M", "29", "--r", "-3", "--X", "1.15", "--Y", "1"]),
    ("moment", "M", ["--form", "E2_11_2", "--X", "20", "--M", "0"]),
    ("moment", "M", ["--form", "E2_11_2", "--X", "20", "--M", "8193"]),
    ("moment", "X", ["--form", "E2_11_2", "--M", "7", "--X", "inf"]),
    ("moment", "X", ["--form", "E2_11_2", "--M", "7", "--X", "nan"]),
    ("moment", "X", ["--form", "E2_11_2", "--M", "7", "--X", "0"]),
    ("moment", "X", ["--form", "E2_11_2", "--M", "7", "--X", "-5"]),
    ("exponent", "eta", ["--eta", "-1"]),
    ("verify-all", "threads", ["--threads", "0"]),
]

# numeric parameters with no rejected value, and why
_ANY_VALUE_ACCEPTED = {
    ("kloosterman", "a"): "reduced mod c",
    ("kloosterman", "b"): "reduced mod c",
    ("kloosterman", "seed"): "any integer seeds the sampler",
}


@pytest.mark.parametrize(
    "command,name,argv", _REJECTED, ids=[f"{c}-{n}={a[-1]}" for c, n, a in _REJECTED]
)
def test_bad_numeric_value_is_rejected(monkeypatch, capsys, command, name, argv):
    from deltasum import verify

    monkeypatch.setattr(verify, "run_all", lambda threads=1: pytest.fail("checks ran"))
    assert cli.main([command, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert re.search(rf"\b{name}\b", captured.err), captured.err


def test_every_numeric_parameter_has_a_rejected_value():
    covered = {(command, name) for command, name, _ in _REJECTED}
    assert not covered & set(_ANY_VALUE_ACCEPTED)
    numeric = {
        (command.name, param.name)
        for command in cli.COMMANDS.values()
        for param in command.params
        if param.parse in (int, float, cli._parse_fraction)
    }
    assert numeric == covered | set(_ANY_VALUE_ACCEPTED)
