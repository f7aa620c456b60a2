import hashlib
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
    assert table(c, c, c) == root_of_unity(3, 1)


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
    broken = list(phi_X(frozenset()).values)
    broken[G.position((G.sigma, G.tau, G.rho))] = CycScalar.rational(3)
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


def test_classify_decides_square_classes_in_the_conductor_field(tmp_path, capsys):
    # 2 = (zeta8 + zeta8^-1)^2 is a square in Q(zeta8) but not in Q(i)
    target = tmp_path / "g2.json"
    code, out = run(capsys, "generate", "--family", "g_b", "--b", "2")
    target.write_text(out)
    for conductor, verdict in (("4", "nontrivial"), ("8", "trivial")):
        code, out = run(capsys, "classify", "--input", str(target), "--conductor", conductor)
        assert code == 0 and json.loads(out)["b_class"] == verdict
    # a conductor-1 table is decided in Q(i) by default: -1 = i^2
    target.write_text(json.dumps(g_b(-1).to_json()))
    code, out = run(capsys, "classify", "--input", str(target))
    assert code == 0 and json.loads(out)["b_class"] == "trivial"


def test_classify_refuses_values_outside_the_conductor_field(tmp_path, capsys):
    target = tmp_path / "g8.json"
    target.write_text(json.dumps(g_b(root_of_unity(8, 1)).to_json()))
    assert main(["classify", "--input", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "error: --conductor 4: a value of conductor 8 is not in Q(zeta_4)"
    ]
    code, out = run(capsys, "classify", "--input", str(target), "--conductor", "8")
    assert code == 0 and json.loads(out)["b_class"] == "nontrivial"


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
    tampered = list(ac.R.values)
    tampered[G.position((G.sigma, G.tau))] = root_of_unity(4, 1)
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


# sha1s of stdout and stderr, and the exit code, of `hopf build --check`,
# recorded while multiplicativity was still checked by tensor products
PINNED_HOPF_BUILDS = {
    "prop54i --a -1": ("25396be0a6c2a256e12c76bb2c460f69f15c0ba0", "8f57c4b1b69be74dab5977840497072c5538ad15", 0),
    "prop54i --a 2": ("8350bb8dfb08f939e4ec05fbc733cf3d9c69d7c5", "8f57c4b1b69be74dab5977840497072c5538ad15", 0),
    "prop54ii --d i": ("6e2f6532ae13b1412e505a433d8acd2455e3a1da", "8f57c4b1b69be74dab5977840497072c5538ad15", 0),
    "prop54ii --d 2": ("a78a17f8b519aa60c5b9d9d62efd44beb1096810", "8f57c4b1b69be74dab5977840497072c5538ad15", 0),
    "prop53 --n 3": ("9a93c64954ff88f5bc18037a06d239ca4110690f", "8f57c4b1b69be74dab5977840497072c5538ad15", 0),
    "prop53 --n 5": ("d47ae9c2bea21783989bc320d601c8cb5110e5d6", "8f57c4b1b69be74dab5977840497072c5538ad15", 0),
    # recorded before the twist was built from a table of q's powers
    "prop53 --n 21": ("c863f168dc9688b798dc84e78b800b8f0b37a311", "8f57c4b1b69be74dab5977840497072c5538ad15", 0),
}


@pytest.mark.parametrize("family", PINNED_HOPF_BUILDS)
def test_hopf_build_check_pinned(capsys, family):
    code = main(["hopf", "build", "--family", *family.split(), "--check"])
    captured = capsys.readouterr()
    digests = tuple(hashlib.sha1(text.encode()).hexdigest() for text in (captured.out, captured.err))
    assert (*digests, code) == PINNED_HOPF_BUILDS[family]


def test_hopf_build_checks_before_it_serializes(capsys, monkeypatch):
    # the check refuses C61 at the law bound, so no scalar is ever written
    def unreachable(self):
        raise AssertionError("hopf build serialized a structure the check refuses")

    monkeypatch.setattr(CycScalar, "to_json", unreachable)
    code = main(["hopf", "build", "--family", "prop53", "--n", "61", "--check"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_verify_paper_json_pinned(capsys):
    # sha1 of `verify-paper --json` stdout, recorded before products returned
    # the group's own elements and the Klein tables were filled by position
    code, out = run(capsys, "verify-paper", "--json")
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == "626652aa630caa0641ba8bbe802ecf6f9dd29f4a"


def test_hopf_build_refuses_group(capsys):
    # each family fixes its group; --group used to be accepted and ignored
    with pytest.raises(SystemExit) as refused:
        main(["hopf", "build", "--group", "c5", "--family", "prop54i", "--a", "2"])
    assert refused.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --group c5" in captured.err


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
        # a 20^4 x 20^3 boundary matrix (~10 GB) is refused before it is built
        ["cohomology", "--group", "c20", "--modulus", "20"],
        # [A^T | I] fits, but the positions of delta_1 would take ~800 MB
        ["cohomology", "--group", "c5000", "--modulus", "2", "--degree", "1"],
        # m^2 exceeds int64 before any row is combined
        ["cohomology", "--group", "c2", "--modulus", "4294967311"],
        # a conductor below 1: a traceback, the full census, or a run before
        ["generate", "--family", "h_a", "--a", "i", "--conductor", "-4"],
        ["braidings", "--conductor", "0"],
        ["braidings", "--conductor", "-8"],
        ["hopf", "reassociator", "--n", "3", "--l", "1", "--conductor", "-3"],
        ["hopf", "build", "--family", "prop54i", "--a", "2", "--conductor", "0"],
        ["hopf", "delta-crosscheck", "--n", "3", "--conductor", "-1"],
        ["verify-paper", "--only", "hopf", "--conductor", "0"],
    ],
)
def test_invalid_input_exits_with_one_error_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cohomology", "--group", "c4", "--modulus", "99999999999999999999"],
         "--modulus must be in 1..3037000499, got 99999999999999999999"),
        (["cohomology", "--group", "c4", "--modulus", "0"], "--modulus must be in 1..3037000499, got 0"),
        (["generate", "--family", "phi_q", "--n", "3", "--q", "1/0"],
         "--q: the denominator of '1/0' must be nonzero"),
        (["generate", "--family", "qabc", "--n", "3", "--q", "zeta0"],
         "--q: the root order in 'zeta0' must be at least 1"),
        (["generate", "--family", "g_b", "--b", "x"], "--b: cannot parse scalar 'x'"),
        (["generate", "--family", "phi_q", "--n", "0"], "--n must be a positive integer, got 0"),
        (["hopf", "reassociator", "--n", "-2", "--l", "1"], "--n must be a positive integer, got -2"),
        (["hopf", "build", "--family", "prop53", "--n", "0"], "--n must be a positive integer, got 0"),
        (["hopf", "delta-crosscheck", "--n", "0"], "--n must be a positive integer, got 0"),
    ],
)
def test_invalid_flags_are_named_with_their_bound(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def _float_coordinate():
    data = phi_X(frozenset()).to_json()
    data["values"][5]["value"]["coeffs"][0] = [1.7, 1]  # int() read this as 1
    return data


# each malformed table, and a field its one error line must name
MALFORMED_TABLES = {
    "values_not_a_list": (lambda: dict(phi_X(frozenset()).to_json(), values=5), "values"),
    "values_missing": (
        lambda: {k: v for k, v in phi_X(frozenset()).to_json().items() if k != "values"},
        "values",
    ),
    "degree_null": (lambda: dict(phi_X(frozenset()).to_json(), degree=None), "degree"),
    "degree_float": (lambda: dict(phi_X(frozenset()).to_json(), degree=1.5), "degree"),
    "top_level_list": (lambda: [1, 2], "group"),
    "args_not_a_list": (lambda: dict(phi_X(frozenset()).to_json(), values=[{}]), "values[0].args"),
    "float_coordinate": (_float_coordinate, "coeffs"),
}


@pytest.mark.parametrize("command", ["classify", "check-hexagon"])
@pytest.mark.parametrize("malformed", sorted(MALFORMED_TABLES))
def test_malformed_json_exits_with_one_error_line(tmp_path, capsys, command, malformed):
    build, field = MALFORMED_TABLES[malformed]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(build()))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(Cochain.constant(klein(), 2, 1).to_json()))
    if command == "classify":
        argv = ["classify", "--input", str(bad)]
    else:
        argv = ["check-hexagon", "--phi", str(bad), "--r", str(good)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert field in lines[0]
