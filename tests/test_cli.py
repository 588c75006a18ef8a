import json

import numpy as np
import pytest

from hulthen import PotentialParams, QuantumNumbers, count_nodes, normalization_constant
from hulthen.cli import main


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


def test_determinism(capsys):
    _, out1, _ = run(capsys, "spectrum", "--alpha", "0.1")
    _, out2, _ = run(capsys, "spectrum", "--alpha", "0.1")
    assert out1 == out2


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
    assert count_nodes(np.array([float(row[1]) for row in rows])) == 30


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
    assert payload["converged"] is True
    assert payload["node_count"] == 0
    assert payload["rel_error"] <= 1e-6


def test_validate_oracle_failure(capsys):
    # a tolerance below the float spacing of the energies cannot be met and
    # must surface as an oracle failure
    code, _, err = run(capsys, "validate", "--n", "0", "--oracle-tolerance", "1e-30")
    assert code == 3
    assert "oracle failure" in err


def test_overflowing_oracle_grid_exits_3(capsys):
    # Q = 2 mu r^2/hbar^2 overflows at r_max = 2e161: two RuntimeWarnings,
    # then a BracketError computed on nan
    code, out, err = run(capsys, "validate", "--dim", "1", "--n", "1", "--alpha", "1e-160")
    assert (code, out) == (3, "")
    assert err == "oracle failure: the grid coefficients are not finite at r_max = 2e+161\n"


def test_quadrature_failure_exits_3(capsys):
    # the tanh-sinh rule does not converge on this level; this ended in a
    # QuadratureError traceback
    code, out, err = run(capsys, "expectation", "--Z", "2.3163131398668173",
                         "--mu", "8.680299759535256", "--alpha", "0.11827746864980619",
                         "--hbar", "0.20155218228825997", "--dim", "1", "--n", "1")
    assert (code, out) == (3, "")
    assert err == ("quadrature failure: no convergence to 1e-10 within 12 step halvings "
                   "(error estimate 2.939e-08)\n")


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
        ("spectrum --n-max -1", "--n-max must be >= 0"),
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
        # C_n^2 overflowed: exited 0 with norm_const = inf and U = R = inf
        ("wavefunction --alpha 1e-300",
         "normalization constant of n=0, l=0, D=3 is outside the float range"),
        # three RuntimeWarnings, then a complaint about the radii
        ("expectation --alpha 1e-300",
         "normalization constant of n=0, l=0, D=3 is outside the float range"),
        # A_2 = inf/inf: wavefunction exited 0 with U = R = nan, and
        # expectation complained about the radii
        ("wavefunction --dim 1 --n 2 --alpha 1e-120",
         "Jacobi recurrence of P_2^(1e+120, -1.0) is outside the float range"),
        ("expectation --dim 1 --n 2 --alpha 1e-120",
         "Jacobi recurrence of P_2^(1e+120, -1.0) is outside the float range"),
        # 16 delta^2 of <r^-2> ended in an OverflowError traceback
        ("expectation --dim 1 --n 1 --alpha 1e-160",
         "<r^-2> of n=1, l=0, D=1 is outside the float range"),
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


def test_unwritable_out_exits_1(tmp_path, capsys):
    # a missing directory ended in a FileNotFoundError traceback
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "spectrum", "--out", str(target))
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "spec.csv"
    code, out, _ = run(capsys, "spectrum", "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    header, rows = parse_csv(text)
    assert len(rows) == 6
