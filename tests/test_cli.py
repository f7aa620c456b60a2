import json

import pytest

from cocycle_lab.cli import main, parse_scalar
from cocycle_lab.cochains import Cochain
from cocycle_lab.groups import klein
from cocycle_lab.klein import g_b, h_a, phi_X
from cocycle_lab.scalars import CycScalar, root_of_unity


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_scalar():
    assert parse_scalar("i", 4) == root_of_unity(4, 1)
    assert parse_scalar("-i", 4) == root_of_unity(4, 3)
    assert parse_scalar("-1", 4) == -1
    assert parse_scalar("3/4", 4) == CycScalar.rational("3/4")
    assert parse_scalar("zeta3^2", 12) == root_of_unity(3, 2).lift(12)
    with pytest.raises(ValueError):
        parse_scalar("1+i", 4)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["generate", "--family", "g_b", "--b", "i"], lambda: g_b(root_of_unity(4, 1))),
        (["generate", "--family", "h_a", "--a", "-1"], lambda: h_a(-1)),
        (["generate", "--family", "phi_X", "--X", "sigma,rho"], lambda: phi_X({"sigma", "rho"})),
        (["generate", "--family", "phi_X", "--X", ""], lambda: phi_X(frozenset())),
    ],
)
def test_generate_roundtrip(capsys, argv, expected):
    code, out = run(capsys, *argv)
    assert code == 0
    assert Cochain.from_json(json.loads(out)) == expected()


def test_generate_qabc(capsys):
    code, out = run(capsys, "generate", "--family", "qabc", "--n", "3")
    assert code == 0
    table = Cochain.from_json(json.loads(out))
    c = table.group.generator()
    assert table.values[(c, c, c)] == root_of_unity(3, 1)


def test_generate_invalid_params(capsys):
    code = main(["generate", "--family", "h_a"])
    assert code == 1
    err = capsys.readouterr().err
    assert "required" in err


def test_classify_flow(tmp_path, capsys):
    target = tmp_path / "table.json"
    target.write_text(json.dumps(phi_X({"sigma", "tau"}).to_json()))
    code, out = run(capsys, "classify", "--input", str(target))
    assert code == 0
    assert json.loads(out) == {"eps": [-1, -1, 1], "b_class": "trivial"}

    target.write_text(json.dumps((h_a(3) * g_b(9)).to_json()))
    code, out = run(capsys, "classify", "--input", str(target))
    assert code == 0
    assert json.loads(out) == {"eps": [1, 1, 1], "b_class": "trivial"}


def test_classify_rejects_tampered_table(tmp_path, capsys):
    G = klein()
    broken = dict(phi_X(frozenset()).values)
    broken[(G.sigma, G.tau, G.rho)] = CycScalar.rational(3)
    target = tmp_path / "broken.json"
    target.write_text(json.dumps(Cochain(G, 3, broken).to_json()))
    code = main(["classify", "--input", str(target)])
    captured = capsys.readouterr()
    assert code == 1
    assert "failing quadruple" in captured.err


def test_classify_undecided_exit_code(tmp_path, capsys):
    i = root_of_unity(4, 1)
    target = tmp_path / "undecided.json"
    target.write_text(json.dumps(g_b(1 + i).to_json()))
    code, out = run(capsys, "classify", "--input", str(target))
    assert code == 2
    assert json.loads(out)["b_class"] == "undecided"


def test_braidings_json(capsys):
    code, out = run(capsys, "braidings", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 32
    labels = [entry["label"] for entry in data]
    assert labels[0] == "I" and "ABCE3" in labels
    # every emitted braiding parses back through the cochain schema
    sample = data[8]
    Cochain.from_json(sample["phi"])
    Cochain.from_json(sample["R"])


def test_braidings_table_format(capsys):
    code, out = run(capsys, "braidings", "--format", "table")
    assert code == 0
    assert out.splitlines()[0].startswith("label")
    assert len(out.splitlines()) == 33


def test_check_hexagon(tmp_path, capsys):
    from cocycle_lab.braidings import braiding_for_label

    ac = braiding_for_label("E2")
    phi_file = tmp_path / "phi.json"
    r_file = tmp_path / "r.json"
    phi_file.write_text(json.dumps(ac.phi.to_json()))
    r_file.write_text(json.dumps(ac.R.to_json()))
    code, out = run(capsys, "check-hexagon", "--phi", str(phi_file), "--r", str(r_file))
    assert code == 0
    result = json.loads(out)
    assert result["hexagons_hold"] and result["matrix_oracle"]

    G = klein()
    tampered = dict(ac.R.values)
    tampered[(G.sigma, G.tau)] = root_of_unity(4, 1)
    r_file.write_text(json.dumps(Cochain(G, 2, tampered).to_json()))
    code, out = run(capsys, "check-hexagon", "--phi", str(phi_file), "--r", str(r_file))
    assert code == 1
    result = json.loads(out)
    assert not result["hexagons_hold"] and not result["matrix_oracle"]
    assert result["first_failure"] == {"identity": 1, "triple": [[1, 0], [1, 0], [0, 1]]}


def test_cohomology_command(capsys):
    code, out = run(capsys, "cohomology", "--group", "klein", "--modulus", "4")
    assert code == 0
    assert json.loads(out)["invariant_factors"] == [2, 2, 2, 2]
    code, out = run(capsys, "cohomology", "--group", "c3", "--modulus", "3", "--generators")
    assert code == 0
    data = json.loads(out)
    assert data["invariant_factors"] == [3]
    assert len(data["generators"]) == 1


def test_hopf_commands(capsys):
    code, out = run(capsys, "hopf", "reassociator", "--n", "2", "--l", "1")
    assert code == 0
    data = json.loads(out)
    assert data["arity"] == 3 and len(data["terms"]) == 8

    code, out = run(capsys, "hopf", "build", "--family", "prop54i", "--a", "-1", "--check")
    assert code == 0
    data = json.loads(out)
    assert all(data["axioms"].values())

    code, out = run(capsys, "hopf", "build", "--family", "prop54ii", "--d", "i")
    assert code == 0

    code, out = run(capsys, "hopf", "build", "--family", "prop53", "--n", "3", "--check")
    assert code == 0

    code, out = run(capsys, "hopf", "delta-crosscheck", "--n", "3")
    assert code == 0
    assert json.loads(out)["total"] == 9


def test_verify_section(capsys):
    code, out = run(capsys, "verify-paper", "--only", "cohomology")
    assert code == 0
    assert "[PASS] C04" in out


def test_unknown_group(capsys):
    code = main(["cohomology", "--group", "dihedral", "--modulus", "2"])
    assert code == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "--group", "c2", "--modulus", "0"],
        ["cohomology", "--group", "c2", "--modulus", "-3"],
        ["cohomology", "--group", "c2", "--modulus", "2", "--degree", "0"],
        ["generate", "--family", "g_b", "--b", "1/0"],
    ],
)
def test_invalid_input_exits_with_one_error_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
