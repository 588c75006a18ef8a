import json

import numpy as np
import pytest

from hulthen import PotentialParams, QuantumNumbers, level, normalization_constant
from hulthen.cli import main
from special_reference import sign_changes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_spectrum_anchor(capsys):
    code, out, _ = run(capsys, "spectrum", "--Z", "1", "--alpha", "0.05", "--dim", "3", "--l", "0")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "l", "D", "epsilon", "energy", "exists"]
    assert len(rows) == 6
    assert float(rows[0][4]) == pytest.approx(-0.4753125, rel=1e-12)
    assert rows[0][5] == "true"
    # units recorded in the header comments
    assert "# hbar = " in out and "# mu = " in out


def test_spectrum_no_states(capsys):
    # delta = 0.8 < 1: zero rows, explanatory row-free header, exit 2
    code, out, _ = run(capsys, "spectrum", "--Z", "1", "--alpha", "2.5")
    assert code == 2
    header, rows = parse_csv(out)
    assert header == ["n", "l", "D", "epsilon", "energy", "exists"]
    assert rows == []
    assert "no bound states" in out


def test_usage_errors(capsys):
    code, _, err = run(capsys, "spectrum", "--dim", "0")
    assert code == 1
    assert "dimension" in err
    code, _, err = run(capsys, "spectrum", "--Z", "-1")
    assert code == 1
    code, _, err = run(capsys, "wavefunction", "--points", "1")
    assert code == 1
    for command in ("spectrum", "wavefunction"):
        code, out, err = run(capsys, command, "--l", "-1")
        assert (code, out, err) == (1, "", "error: l must be an integer >= 0, got -1\n")


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["dim"] == 3
    assert len(payload["rows"]) == 6
    assert payload["rows"][0]["energy"] == pytest.approx(-0.4753125, rel=1e-12)
    assert payload["rows"][0]["exists"] is True


# one fast level per subcommand, each rendered in both formats
OUTPUT_CASES = ("spectrum --alpha 0.1", "wavefunction --n 1 --points 40",
                "expectation --n 1 --l 1", "validate --n 0")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", OUTPUT_CASES)
def test_determinism(capsys, argv, fmt):
    first = run(capsys, *argv.split(), "--format", fmt)
    assert first[0] == 0 and first[1]
    assert run(capsys, *argv.split(), "--format", fmt) == first


def test_env_override(capsys, monkeypatch):
    monkeypatch.setenv("HULTHEN_ALPHA", "0.1")
    code, out, _ = run(capsys, "spectrum")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 4  # delta = 20
    # flag wins over the environment
    code, out, _ = run(capsys, "spectrum", "--alpha", "0.05")
    _, rows = parse_csv(out)
    assert len(rows) == 6
    monkeypatch.setenv("HULTHEN_ALPHA", "not-a-number")
    code, _, err = run(capsys, "spectrum")
    assert code == 1
    # a value outside the flag's choices is rejected like an invalid one
    monkeypatch.delenv("HULTHEN_ALPHA")
    monkeypatch.setenv("HULTHEN_FORMAT", "xml")
    code, out, err = run(capsys, "spectrum")
    assert (code, out) == (1, "")
    assert err == "error: invalid value 'xml' for environment variable HULTHEN_FORMAT\n"
    monkeypatch.setenv("HULTHEN_FORMAT", "json")
    code, out, _ = run(capsys, "spectrum")
    assert (code, json.loads(out)["meta"]["dim"]) == (0, 3)


@pytest.mark.parametrize("command, name, value",
                         [("expectation", "HULTHEN_POINTS", "1.5"), ("spectrum", "HULTHEN_N", "x")])
def test_variable_of_another_subcommand_is_ignored(capsys, monkeypatch, command, name, value):
    # each exited 1 over a flag that the running subcommand does not have
    expected = run(capsys, command)
    monkeypatch.setenv(name, value)
    assert run(capsys, command) == expected
    assert expected[0] == 0


def test_wavefunction_table(capsys):
    code, out, _ = run(capsys, "wavefunction", "--n", "0")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["r", "U", "R"]
    data = np.array([[float(c) for c in row] for row in rows])
    r, u, big_r = data[:, 0], data[:, 1], data[:, 2]
    # R equals U r^-(D-1)/2 pointwise
    np.testing.assert_allclose(big_r, u * r ** (-1.0), rtol=1e-10)
    # ground state has no sign change
    signs = np.sign(u[np.abs(u) > 1e-12 * np.abs(u).max()])
    assert np.all(signs == signs[0])
    # coarse normalization sanity on the emitted dense grid
    total = np.trapezoid(u**2, r)
    assert total == pytest.approx(1.0, abs=1e-4)
    # header records the state metadata
    assert "# epsilon = " in out and "# norm_const = " in out


def test_wavefunction_high_n_small_alpha(capsys):
    # the normalization used to raise ArithmeticError here (exit 1)
    code, out, err = run(capsys, "wavefunction", "--alpha", "0.001", "--n", "30")
    assert code == 0, err
    norm = [ln for ln in out.splitlines() if ln.startswith("# norm_const = ")]
    assert float(norm[0].split(" = ")[1]) == normalization_constant(
        PotentialParams(Z=1.0, alpha=0.001), QuantumNumbers(30, 0)
    )
    _, rows = parse_csv(out)
    assert sign_changes(np.array([float(row[1]) for row in rows])) == 30


def test_wavefunction_missing_state(capsys):
    code, _, err = run(capsys, "wavefunction", "--n", "9")
    assert code == 2
    assert "no bound state" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("wavefunction --n 9", "no bound state for n=9, l=0, D=3"),
        # the missing level is reported before the usage error of --points
        ("wavefunction --n 9 --points 1", "no bound state for n=9, l=0, D=3"),
        ("expectation --alpha 2.5", "no bound state for n=0, l=0, D=3"),
        ("validate --n 9", "no bound state for n=9, l=0, D=3"),
    ],
)
def test_no_state_exit(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (2, "", message + "\n")


def test_wavefunction_explicit_grid(capsys):
    code, out, _ = run(
        capsys, "wavefunction", "--n", "0", "--r-min", "1", "--r-max", "10", "--points", "10"
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 10
    assert float(rows[0][0]) == pytest.approx(1.0)
    code, _, _ = run(capsys, "wavefunction", "--n", "0", "--r-min", "1")
    assert code == 1  # r-min without r-max


def test_expectation_record(capsys):
    code, out, _ = run(capsys, "expectation", "--n", "0")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "energy",
        "inv_r2_hft",
        "v_hft",
        "t_value",
        "inv_r2_quad_approx",
        "inv_r2_quad_exact",
        "v_quad",
    ]
    row = dict(zip(header, rows[0]))
    energy = float(row["energy"])
    v_hft = float(row["v_hft"])
    t_value = float(row["t_value"])
    assert v_hft < 0.0
    assert v_hft + t_value == pytest.approx(energy, rel=1e-12)
    assert float(row["inv_r2_hft"]) == pytest.approx(
        float(row["inv_r2_quad_approx"]), rel=1e-6
    )


def test_expectation_degenerate_fields_null(capsys):
    code, out, err = run(capsys, "expectation", "--dim", "2", "--format", "json")
    assert code == 0
    assert "warning" in err
    payload = json.loads(out)
    assert payload["inv_r2_hft"] is None
    assert payload["inv_r2_quad_approx"] is None
    assert payload["v_hft"] < 0.0


def test_expectation_missing_state(capsys):
    code, _, _ = run(capsys, "expectation", "--alpha", "2.5")
    assert code == 2


def test_validate_exact_case(capsys):
    code, out, _ = run(capsys, "validate", "--n", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["node_count"] == 0
    assert payload["rel_error"] <= 1e-6


def test_validate_oracle_failure(capsys):
    # a tolerance below the float spacing of the energies cannot be met and
    # must surface as an oracle failure
    code, _, err = run(capsys, "validate", "--n", "0", "--oracle-tolerance", "1e-30")
    assert code == 3
    assert "oracle failure" in err


def test_validate_window_over_three_levels_exits_3(capsys):
    # the window of width 2.5e-4 holds the levels with 19 to 21 nodes, so
    # its counts read 19 and 22 and certify no level with 20 nodes (this
    # exited 3 with "certified level has 19 interior nodes, expected 20")
    code, out, err = run(capsys, "validate", "--alpha", "0.001", "--n", "20",
                         "--oracle-tolerance", "2.5e-4")
    assert (code, out) == (3, "")
    assert err == ("oracle failure: the node counts 19 and 22 of the 1789-point grid at "
                   "E=-0.0006889118469281799 -/+ 0.000125 do not certify the level with "
                   "20 nodes\n")


def test_level_past_the_old_oracle_grid_exits_0(capsys):
    # the grid of the oracle ended at r_max = 2e161, and Q = 2 mu r^2/hbar^2
    # overflowed from r ~ 1e154 on, well inside it (exit 3, "the grid
    # coefficients are not finite"; before that, two RuntimeWarnings and a
    # BracketError computed on nan).  It now spans only the level, which
    # ends at r = 47.2; gamma = 0, so the closed form is the exact level,
    # and E_oracle lies 7.3e-14 from it, within the tolerance 1e-9
    code, out, err = run(capsys, "validate", "--dim", "1", "--n", "1", "--alpha", "1e-160")
    assert (code, err) == (0, "")
    header, rows = parse_csv(out)
    assert header == ["E_closed", "E_oracle", "rel_error", "node_count"]
    assert rows == [["-5.0000000000000000e-01", "-4.9999999999992734e-01",
                     "1.4532819392345412e-13", "0"]]


def test_quadrature_failure_exits_3(capsys):
    # with P_n evaluated in x = 1 - 2s, U lost its digits near the origin
    # here and the tanh-sinh rule did not converge (exit 3, "no convergence
    # to 1e-10 within 12 step halvings"); in y = 1 + x the level exits 0 and
    # its quadratures agree with the closed forms.  Exit 3 stays covered by
    # test_quadrature_range_failures_exit_3
    params = PotentialParams(Z=2.3163131398668173, alpha=0.11827746864980619,
                             mu=8.680299759535256, hbar=0.20155218228825997, D=1)
    code, out, err = run(capsys, "expectation", "--Z", str(params.Z), "--mu", str(params.mu),
                         "--alpha", str(params.alpha), "--hbar", str(params.hbar),
                         "--dim", "1", "--n", "1", "--format", "json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    lv = level(params, QuantumNumbers(1, 0))
    assert data["energy"] == lv.energy
    assert data["v_quad"] == pytest.approx(lv.v_mean, rel=1e-12)
    assert data["inv_r2_quad_approx"] == pytest.approx(lv.inv_r2, rel=1e-12)


def test_feynman_hellmann_values_past_an_overflowing_intermediate(capsys):
    # 16 delta^2 overflowed at delta = 2e160: this ended in an OverflowError
    # traceback, and then exited 1 with "<r^-2> ... is outside the float
    # range", though <r^-2> = 2
    code, out, err = run(capsys, "expectation", "--dim", "1", "--n", "1", "--alpha", "1e-160",
                         "--format", "json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert (data["inv_r2_hft"], data["v_hft"], data["t_value"]) == (2.0, -1.0, 0.5)
    assert data["inv_r2_quad_approx"] == pytest.approx(2.0, rel=1e-12)
    assert data["v_quad"] == pytest.approx(-1.0, rel=1e-12)


@pytest.mark.parametrize(
    "argv, message",
    [
        # the integration range end overflowed to inf (exit 3, "the
        # integration range [0, inf] is not finite"); before that, two
        # RuntimeWarnings and exit 1 with "radii must be finite positive
        # reals".  Now <r^-2> = 3.0e199 moves by ~1e-16 of itself per
        # halving, far more than the absolute tolerance 1e-10
        ("expectation --Z 2 --alpha 0.5 --mu 1e-200 --hbar 1e-150 --n 2",
         "no convergence to 1e-10 within 12 step halvings (error estimate 1.421e+179)"),
        # 1/kappa overflows: without a check on it, exit 1 with "radii must
        # be finite positive reals"
        ("expectation --Z 1e290 --alpha 1e-310 --mu 1e-300 --hbar 1e150 --dim 2",
         "the decay length 1/kappa = inf is not a finite positive float"),
        # up to five RuntimeWarnings came before this line
        ("expectation --Z 1e150 --hbar 3 --dim 2",
         "non-finite integrand sample at r = 3.5973424695460584e-171"),
        ("expectation --Z 1e150 --alpha 1 --mu 0.05 --hbar 0.05 --dim 1 --n 1",
         "non-finite integrand sample at r = 3.9970471883845105e-173"),
    ],
)
def test_quadrature_range_failures_exit_3(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (3, "", f"quadrature failure: {message}\n")


@pytest.mark.parametrize(
    "argv, err_expected",
    [
        ("expectation --alpha 1e-300 --dim 2 --n 1",
         "warning: <r^-2> is undefined for l = 0 in D = 2; fields left empty\n"),
        ("expectation --alpha 2 --hbar 1e-20 --dim 4 --l 2 --n 4", ""),
    ],
    ids=["expectation --alpha 1e-300 --dim 2 --n 1",
         "expectation --alpha 2 --hbar 1e-20 --dim 4 --l 2 --n 4"],
)
def test_levels_whose_range_end_overflowed_exit_0(capsys, argv, err_expected):
    # the range end r_max, read from log(C_n P_n(2)), overflowed to inf on
    # these levels: exit 3 with "the integration range [0, inf] is not
    # finite".  The quadrature on the scale 1/kappa needs no end
    code, out, err = run(capsys, *argv.split(), "--format", "json")
    assert (code, err) == (0, err_expected)
    data = json.loads(out)
    assert data["v_quad"] == pytest.approx(data["v_hft"], rel=1e-13)
    if data["inv_r2_hft"] is not None:
        assert data["inv_r2_quad_approx"] == pytest.approx(data["inv_r2_hft"], rel=1e-13)


@pytest.mark.parametrize(
    "argv, message",
    [
        # nan and inf exited 0 with E_oracle = E_closed: no pass ran
        ("validate --oracle-tolerance nan", "tolerance must be a finite positive real, got nan"),
        ("validate --oracle-tolerance inf", "tolerance must be a finite positive real, got inf"),
        # 0, -1 and an infinite grid end ended in a ValueError traceback
        ("validate --oracle-tolerance 0", "tolerance must be a finite positive real, got 0.0"),
        ("validate --oracle-tolerance -1", "tolerance must be a finite positive real, got -1.0"),
        # exited 0 with E_oracle = E_closed, rel_error 0 (the true error is 5.5 %):
        # the bracket was narrower than the tolerance and no pass ran
        ("validate --dim 5 --l 1 --alpha 0.05 --n 1 --oracle-tolerance 0.01",
         "tolerance 0.01 is not below the energy bracket width 0.0045000000000000005"),
        ("wavefunction --r-min 1 --r-max inf", "grid requires 0 < r_min < r_max < inf"),
        # the default grid's r_max = 40/kappa is inf: a RuntimeWarning from
        # linspace came first
        ("wavefunction --Z 2e-9 --alpha 2e-309 --hbar 1e150 --points 3",
         "radii must be finite positive reals"),
        # model.spectrum checks the cap; the CLI said "--n-max must be >= 0"
        ("spectrum --n-max -1", "n_max must be an integer >= 0, got -1"),
        # exited 0 with epsilon = inf, energy = -inf and exists = true
        ("spectrum --alpha 1e-320", "delta = 2 Z mu/(alpha hbar^2) is outside the float range"),
        # exited 0 with energy = -0.0 for an existing level
        ("spectrum --Z 1e-300 --alpha 1e-300",
         "energy of n=0, l=0, D=3 is outside the float range"),
        # OverflowError tracebacks
        ("spectrum --Z 1e300", "energy of n=0, l=0, D=3 is outside the float range"),
        ("expectation --Z 1e200", "energy of n=0, l=0, D=3 is outside the float range"),
        # ZeroDivisionError traceback
        ("spectrum --hbar 1e-200", "delta = 2 Z mu/(alpha hbar^2) is outside the float range"),
        # C_n itself, ~1e1047, is not a float
        ("expectation --alpha 1e-300 --dim 4 --l 2",
         "normalization constant of n=0, l=2, D=4 is outside the float range"),
        # A_2 = inf/inf: wavefunction exited 0 with U = R = nan, and
        # expectation complained about the radii
        ("wavefunction --dim 1 --n 2 --alpha 1e-120",
         "Jacobi recurrence of P_2^(1e+120, -1.0) is outside the float range"),
        ("expectation --dim 1 --n 2 --alpha 1e-120",
         "Jacobi recurrence of P_2^(1e+120, -1.0) is outside the float range"),
        # flags of another subcommand were ignored (spectrum printed every
        # level), and --alp parsed as --alpha
        ("spectrum --n 3", "unrecognized arguments: --n 3"),
        ("wavefunction --n-max 3", "unrecognized arguments: --n-max 3"),
        ("spectrum --alp 0.1", "unrecognized arguments: --alp 0.1"),
        # exited 0 after a RuntimeWarning with R = inf (r^-1 overflows) and
        # R = nan (U underflows to 0 where r^-99.5 overflows)
        ("wavefunction --r-min 1e-320 --r-max 1 --points 3",
         "R = U r^-(D-1)/2 is outside the float range at r = 1e-320"),
        ("wavefunction --dim 200 --alpha 1e-5 --r-min 1e-4 --r-max 1000 --points 4",
         "R = U r^-(D-1)/2 is outside the float range at r = 0.0001"),
    ],
)
def test_invalid_values_exit_1(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_normalization_whose_square_overflows_wavefunction(capsys):
    # C_n ~ 2e300 is a float but C_n^2 ~ 4e600 is not.  This argv set and
    # the one of the expectation test below exited 1 with
    # "normalization constant of n=0, l=0, D=3 is outside the float range";
    # before that, wavefunction exited 0 with U = R = inf.  At alpha = 1e-300
    # the level is hydrogen's ground state, U = 2 r e^-r.  Its factor
    # alpha r of U is subnormal past r ~ 20; while C_n multiplied it last, U
    # kept ~1e-23 absolute there (1.2e-8 relative off on the default grid,
    # r <= 40) and read 0 at r = 60
    for argv, points in ((["wavefunction", "--alpha", "1e-300"], 4000),
                         (["wavefunction", "--alpha", "1e-300", "--r-min", "40", "--r-max", "60",
                           "--points", "3"], 3)):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        r, u = np.array(rows, dtype=float)[:, :2].T
        assert len(r) == points
        np.testing.assert_allclose(u, 2.0 * r * np.exp(-r), rtol=1e-14, atol=0.0)


def test_normalization_whose_square_overflows_expectation(capsys):
    # exited 1 like wavefunction above; the quadratures of hydrogen's
    # ground state give <V> = -1 and <r^-2> = 2
    code, out, err = run(capsys, "expectation", "--alpha", "1e-300", "--format", "json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["v_quad"] == pytest.approx(-1.0, rel=1e-15)
    assert data["inv_r2_quad_approx"] == pytest.approx(2.0, rel=1e-15)
    assert data["inv_r2_quad_exact"] == pytest.approx(2.0, rel=1e-15)


def test_unwritable_out_exits_1(tmp_path, capsys):
    # a missing directory ended in a FileNotFoundError traceback
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "spectrum", "--out", str(target))
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, code",
                         [*((argv, 0) for argv in OUTPUT_CASES), ("spectrum --alpha 2.5", 2)])
def test_out_file(tmp_path, capsys, argv, code, fmt):
    # the file holds the bytes stdout gets, and stdout stays empty; with no
    # level, exit 2 and the note is in the file
    stdout = run(capsys, *argv.split(), "--format", fmt)[1]
    target = tmp_path / "out"
    assert run(capsys, *argv.split(), "--format", fmt, "--out", str(target)) == (code, "", "")
    assert target.read_bytes() == stdout.encode()
    assert ("no bound states for this configuration" in stdout) == (code == 2)


@pytest.mark.parametrize("argv, code", [("wavefunction --points 1", 1),
                                        ("validate --oracle-tolerance 1e-30", 3)])
def test_no_out_file_on_failure(tmp_path, capsys, argv, code):
    # both fail after the level is built
    target = tmp_path / "out"
    assert run(capsys, *argv.split(), "--out", str(target))[:2] == (code, "")
    assert not target.exists()
