"""Acceptance gate: one pass/fail line per criterion.

Criteria 1-10 drive the randomized verification suites at the default
seed and enforce the stated wall-clock budgets; criterion 11 replays a
fixed corpus of command scripts twice and demands byte-identical output.
Run with `pytest tests/test_acceptance.py -v` to see the lines.
"""

import json
import time
from pathlib import Path

import pytest

from synthkit.cli import main
from synthkit.suites import run_suite

SCRIPTS = Path(__file__).parent / "scripts"


def _suite_criterion(capsys, number, label, suite, budget=None):
    start = time.perf_counter()
    result = run_suite(suite)
    elapsed = time.perf_counter() - start
    ok = result.passed and (budget is None or elapsed < budget)
    note = f"{result.trials} trials, {elapsed:.2f}s"
    if budget is not None:
        note += f" (budget {budget:g}s)"
    with capsys.disabled():
        print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {label}: {note}")
    assert result.passed, f"criterion {number}: {result.failures[:3]}"
    if budget is not None:
        assert elapsed < budget, f"criterion {number}: {elapsed:.2f}s over budget"


def test_criterion_01_transform_homomorphism(capsys):
    _suite_criterion(
        capsys, 1, "transform multiplicativity", "transform-homomorphism", budget=1.0
    )


def test_criterion_02_frechet_order(capsys):
    _suite_criterion(
        capsys, 2, "difference-order characterization", "frechet-order", budget=5.0
    )


def test_criterion_03_product_rule(capsys):
    _suite_criterion(
        capsys, 3, "difference product identity", "product-rule", budget=5.0
    )


def test_criterion_04_derivation_compose(capsys):
    _suite_criterion(capsys, 4, "derivation composition", "derivation-compose")


def test_criterion_05_max_ideal_power(capsys):
    _suite_criterion(
        capsys, 5, "maximal-ideal-power three-way oracle", "max-ideal-power", budget=30.0
    )


def test_criterion_06_derivation_ideal(capsys):
    _suite_criterion(
        capsys, 6, "derivation-ideal equivalence", "derivation-ideal"
    )


def test_criterion_07_lefranc(capsys):
    _suite_criterion(
        capsys, 7, "synthesis on Z^1, Z^2 and Z^3 at desk scale", "lefranc", budget=30.0
    )


def test_criterion_08_plane_instance(capsys):
    _suite_criterion(capsys, 8, "two-variable fat-point instance", "plane-instance")


def test_criterion_09_localizability(capsys):
    _suite_criterion(
        capsys, 9, "membership witnesses, no inconclusives", "localizability"
    )


def test_criterion_10_rank_growth(capsys):
    _suite_criterion(capsys, 10, "bi-additive rank growth", "rank-growth", budget=1.0)


# criterion 11: byte-identical CLI replay over the fixed corpus

CORPUS = [
    ("01-solve-fib.txt", (), 0),
    ("02-solve-fib-window.txt", ("--window", "8"), 0),
    ("03-solve-double-root.txt", (), 0),
    ("04-solve-degbound.txt", ("--degbound", "1"), 2),
    ("05-solve-golden.txt", (), 2),
    ("06-solve-plane.txt", (), 0),
    ("07-roots-exact.txt", (), 0),
    ("08-roots-golden.txt", (), 2),
    ("09-roots-2d.txt", (), 0),
    ("10-member-true.txt", (), 0),
    ("11-member-false.txt", (), 0),
    ("12-member-unit.txt", (), 0),
    ("13-root-order.txt", (), 0),
    ("14-root-order-2d.txt", (), 0),
    ("15-dual-space.txt", (), 0),
    ("16-dual-space-cutoff.txt", ("--cutoff", "0"), 2),
    ("17-apply-derivation.txt", (), 0),
    ("18-verify.txt", (), 0),
    ("19-demo-rank.txt", (), 0),
    ("20-error-syntax.txt", (), 1),
]


def _run_corpus(capsys):
    outputs = {}
    for name, extra, expected in CORPUS:
        code = main(["--input", str(SCRIPTS / name), *extra])
        out = capsys.readouterr().out
        assert code == expected, f"{name}: exit {code}, expected {expected}"
        json.loads(out)
        outputs[name] = out
    return outputs


def test_criterion_11_cli_determinism(capsys, monkeypatch):
    monkeypatch.delenv("SYNTHKIT_SEED", raising=False)
    assert len(CORPUS) == 20
    assert sorted(p.name for p in SCRIPTS.glob("*.txt")) == sorted(
        name for name, _, _ in CORPUS
    )
    ok = False
    try:
        first = _run_corpus(capsys)
        second = _run_corpus(capsys)
        ok = first == second
        assert ok, "outputs differ between consecutive runs"
    finally:
        with capsys.disabled():
            verdict = "PASS" if ok else "FAIL"
            print(
                f"criterion 11 [{verdict}] CLI determinism: "
                f"{len(CORPUS)} scripts, two runs byte-equal"
            )


def test_corpus_matches_golden_outputs(capsys, monkeypatch):
    """Every corpus script prints the bytes recorded in scripts/expected/.

    Criterion 11 compares two runs of the same code; this pins the output
    itself, so a refactor that changes any byte of a result fails here.
    """
    monkeypatch.delenv("SYNTHKIT_SEED", raising=False)
    for name, out in _run_corpus(capsys).items():
        golden = (SCRIPTS / "expected" / name).with_suffix(".json")
        assert out == golden.read_text(encoding="utf-8"), name
