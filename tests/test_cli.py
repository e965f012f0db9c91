"""Command-line behavior: documents, exit codes, byte stability."""

import io
import json
from fractions import Fraction

import pytest

from synthkit.cli import main


def run_cli(capsys, monkeypatch, script, *argv, env_seed=None):
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    if env_seed is None:
        monkeypatch.delenv("SYNTHKIT_SEED", raising=False)
    else:
        monkeypatch.setenv("SYNTHKIT_SEED", env_seed)
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


FIB_SCRIPT = "mu = d[-2] - 3*d[-1] + 2*d[0]\nsolve mu\n"


def test_solve_document(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, FIB_SCRIPT)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["verb"] == "solve"
    assert doc["dim"] == 1
    assert doc["total_dimension"] == 2
    assert [r["root"] for r in doc["roots"]] == [["1"], ["2"]]
    assert all(r["multiplicity"] == 1 for r in doc["roots"])
    assert doc["approximate_roots"] == []
    assert doc["inconclusive"] is False


def test_solve_with_window_cross_check(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, FIB_SCRIPT, "--window", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["window"]["box"] == [[0, 7]]
    assert doc["window"]["dimension"] == 2
    assert doc["window"]["matches_exact_total"] is True


def test_solve_inconclusive_on_numeric_roots(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, "solve d[-2] - d[-1] - d[0]\n")
    assert code == 2
    doc = json.loads(out)
    assert doc["roots"] == []
    assert len(doc["approximate_roots"]) == 2
    assert doc["inconclusive"] is True
    for a in doc["approximate_roots"]:
        assert a["certified"] is True
        assert a["radius"] == "1/1099511627776"


def test_roots_exact(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, "roots (z-1)*(z-2)\n")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] == [["1"], ["2"]]
    assert doc["approximate"] == []


@pytest.mark.parametrize(
    "poly, exact",
    [
        # the coarse candidate 2 of the value 5/3 is the other root
        ("(z-(5/3))*(z-(2))", [["5/3"], ["2"]]),
        ("(z-(-1/4))^2*(z-(-1+1i))*(z-(-1/2+2/3i))", [["-1+i"], ["-1/2+2/3i"], ["-1/4"]]),
    ],
)
def test_roots_exact_when_a_coarse_candidate_is_another_root(capsys, monkeypatch, poly, exact):
    code, out = run_cli(capsys, monkeypatch, f"roots {poly}\n")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] == exact
    assert doc["approximate"] == []


@pytest.mark.parametrize(
    "script, exact, approximate",
    [
        # large coefficients: |g(p)| at a true root's centre is far above
        # any absolute bound, but tiny next to the size of g's terms there
        ("roots ideal(10^30*(z1^2-2), z2-1)\n", 0, 2),
        ("solve 10^30*(d[-2,0]-2*d[0,0]) d[0,-1]-d[0,0]\n", 0, 2),
        # centres whose rounding is large next to the root, or next to its
        # distance from a simple rational: the reported radius covers it
        ("roots z^2-10^-60\n", 0, 2),
        ("roots z-10^-60*z^-1\n", 0, 2),
        ("roots (z-1/3-10^-22)*(z-5)\n", 1, 1),
    ],
)
def test_numeric_filter_keeps_true_roots(capsys, monkeypatch, script, exact, approximate):
    code, out = run_cli(capsys, monkeypatch, script)
    assert code == 2
    doc = json.loads(out)
    if doc["verb"] == "solve":
        assert (len(doc["roots"]), len(doc["approximate_roots"])) == (exact, approximate)
    else:
        assert (len(doc["exact"]), len(doc["approximate"])) == (exact, approximate)
    assert doc["inconclusive"] is True


@pytest.mark.parametrize(
    "script, modulus",
    [
        ("roots z^2-10^-60\n", Fraction(1, 10**30)),
        ("roots z^2-10^-300\n", Fraction(1, 10**150)),
    ],
)
def test_tiny_roots_get_distinct_certified_enclosures(
    capsys, monkeypatch, script, modulus
):
    code, out = run_cli(capsys, monkeypatch, script)
    assert code == 2
    doc = json.loads(out)
    assert doc["exact"] == []
    centres = []
    for a in doc["approximate"]:
        (coord,) = a["coordinates"]
        re, im, radius = (Fraction(coord[k]) for k in ("re", "im", "radius"))
        assert coord["certified"] is True
        assert max(abs(re), abs(im)) > radius  # the box leaves out 0
        assert radius < modulus / 2**16
        assert abs(abs(re) - modulus) < radius and im == 0
        centres.append(re)
    assert len(centres) == 2 and centres[0] < 0 < centres[1]


def test_solve_keeps_roots_behind_a_coarse_candidate(capsys, monkeypatch):
    script = (
        "solve (d[-1,0]-(2/3)*d[0,0])^2*(d[-1,0]-(1)*d[0,0])^2"
        " (d[0,-1]-(-3)*d[0,0])*(d[0,-1]-(1-1i)*d[0,0])\n"
    )
    code, out = run_cli(capsys, monkeypatch, script)
    assert code == 0
    doc = json.loads(out)
    assert [(r["root"], r["multiplicity"]) for r in doc["roots"]] == [
        (["2/3", "-3"], 2),
        (["2/3", "1-i"], 2),
        (["1", "-3"], 2),
        (["1", "1-i"], 2),
    ]
    assert doc["approximate_roots"] == []
    assert doc["total_dimension"] == 8
    assert doc["inconclusive"] is False


def test_member_true_false(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, "member ideal(z-1) z^2-1\n")
    assert code == 0
    assert json.loads(out)["member"] is True
    code, out = run_cli(capsys, monkeypatch, "member ideal(z-1) z-2\n")
    assert code == 0
    assert json.loads(out)["member"] is False


def test_root_order(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, "root-order (z-1)^2*(z-2) 1\n")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 2
    assert doc["root"] == ["1"]


def test_dual_space_default_stabilizes(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, "dual-space (z-1)^2 1\n")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 2
    assert doc["stabilized"] is True
    monomials = [t["monomial"] for b in doc["basis"] for t in b["terms"]]
    assert [0] in monomials and [1] in monomials


def test_dual_space_cutoff_zero_is_inconclusive(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, "dual-space (z-1)^2 1\n", "--cutoff", "0")
    assert code == 2
    doc = json.loads(out)
    assert doc["stabilized"] is False
    assert doc["inconclusive"] is True


def test_dual_space_negative_cutoff_is_invalid(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, "dual-space (z-1)^2 1\n", "--cutoff", "-1")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["code"] == "invalid-value"
    assert "stabilized" not in doc


def test_apply_derivation(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, "apply-derivation x d[1] 2\n")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "1/2"
    assert doc["order"] == 1


def test_verify_suite(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, "verify rank-growth\n")
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 271828
    assert doc["passed"] is True
    (suite,) = doc["suites"]
    assert suite["name"] == "rank-growth"
    assert suite["passed"] is True


def test_verify_seed_from_environment(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, "verify rank-growth\n", env_seed="424242")
    assert code == 0
    assert json.loads(out)["seed"] == 424242


def test_demo_rank(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, "demo-rank 4\n")
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 4
    assert doc["dimension"] == 6


def test_dim_flag(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, "roots z1-1 z2-2\n", "--dim", "2")
    assert code == 0
    assert json.loads(out)["exact"] == [["1", "2"]]


def test_degbound_flag_truncates(capsys, monkeypatch):
    script = "solve (d[-1] - d[0])^2\n"
    code, out = run_cli(capsys, monkeypatch, script, "--degbound", "1")
    assert code == 2
    doc = json.loads(out)
    (root,) = doc["roots"]
    assert root["truncated"] is True
    assert root["multiplicity"] == 2


def test_input_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "script.txt"
    path.write_text(FIB_SCRIPT, encoding="utf-8")
    monkeypatch.delenv("SYNTHKIT_SEED", raising=False)
    code = main(["--input", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["total_dimension"] == 2


def test_missing_input_file(capsys, monkeypatch):
    monkeypatch.delenv("SYNTHKIT_SEED", raising=False)
    code = main(["--input", "/nonexistent/script.txt"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["error"]["code"] == "io-error"


# error documents


@pytest.mark.parametrize(
    "script,argv,expected_code",
    [
        ("solve d[\n", (), "syntax-error"),
        ("roots z1-1\nextra = 1\n", (), "syntax-error"),
        ("mu = d[0]\n", (), "syntax-error"),
        ("roots ideal(z1-1)\n", ("--dim", "2"), "positive-dimensional-zero-set"),
        ("root-order z-1 (0)\n", (), "zero-exponential-coordinate"),
        ("solve d[0] - d[1]\n", ("--window", "1"), "window-too-small"),
        ("verify not-a-suite\n", (), "command-error"),
        ("member ideal(z1-z2) z1\n", ("--dim", "1"), "dimension-mismatch"),
        ("roots z-1\n", ("--bogus",), "usage-error"),
        ("roots z-1\n", ("--dim", "abc"), "usage-error"),
        ("roots z-1\n", ("--dim", "0"), "invalid-value"),
        ("roots z-1\n", ("--dim", "-1"), "invalid-value"),
    ],
)
def test_error_codes(capsys, monkeypatch, script, argv, expected_code):
    code, out = run_cli(capsys, monkeypatch, script, *argv)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["code"] == expected_code
    assert doc["schema"] == 1


@pytest.mark.parametrize(
    "exc",
    [AssertionError("dual space failed to stabilize"), MemoryError(), RuntimeError("x")],
    ids=lambda e: type(e).__name__,
)
def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch, exc):
    def broken(cmd, opts):
        raise exc

    monkeypatch.setattr("synthkit.cli.run", broken)
    code, out = run_cli(capsys, monkeypatch, "roots z-1\n")
    assert code == 1
    doc = json.loads(out)
    assert doc == {
        "schema": 1,
        "error": {"code": "internal-error", "message": f"{type(exc).__name__}: {exc}"},
    }


def test_help_keeps_its_text(capsys, monkeypatch):
    with pytest.raises(SystemExit) as stop:
        run_cli(capsys, monkeypatch, "", "--help")
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: synthkit")


def test_syntax_error_reports_position(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, "roots z +\n")
    assert code == 1
    message = json.loads(out)["error"]["message"]
    assert message.startswith("line 1, column")


# determinism


def test_output_is_byte_stable(capsys, monkeypatch):
    first = run_cli(capsys, monkeypatch, FIB_SCRIPT, "--window", "8")
    second = run_cli(capsys, monkeypatch, FIB_SCRIPT, "--window", "8")
    assert first == second
    code, out = first
    assert out.endswith("\n")
    doc = json.loads(out)
    assert list(doc) == sorted(doc)
