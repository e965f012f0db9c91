"""Checks of the benchmark itself: seeded inputs, answer checks, exact counters.

    python3 -m pytest bench/tests -q
"""

import json
import os
import subprocess
import sys
from itertools import islice

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def traced(workload, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600, env=env,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.TRACE_DECKS))
def test_exact_counters_repeat(workload):
    """The traced configuration the benchmark reports, run twice."""
    first = traced(workload, 7, hash_seed=1)
    second = traced(workload, 7, hash_seed=2)
    assert first["correct"] and second["correct"]
    for name in tracing.EXACT_COUNTERS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    make = workloads.WORKLOADS[workload]
    n = 3 * workloads.DECK_SIZES[workload]
    assert list(islice(make(5), n)) == list(islice(make(5), n))
    assert list(islice(make(5), n)) != list(islice(make(6), n))


def test_solve_fat_decks_hold_one_op_per_shape():
    deck = list(islice(workloads.solve_fat(5), 2 * workloads.DECK_SIZES["solve-fat"]))
    for ops in (deck[: len(deck) // 2], deck[len(deck) // 2:]):
        for kind, shapes in workloads.SOLVE_FAT_SHAPES.items():
            assert sum(op.kind == kind for op in ops) == len(shapes), kind
    assert len({op.script for op in deck}) == len(deck)


def test_runs_have_enough_ops():
    for workload, size in workloads.DECK_SIZES.items():
        assert run.decks_per_run(workload, 1) * size >= run.MIN_OPS


def test_self_check_reports_unreached_functions():
    rec = tracing.Recorder()
    missing = tracing.missing_bindings(rec, "verify")
    assert "synthkit.suites.run_suite" in missing
    assert "synthkit.cli.main" not in missing  # verify does not go through the CLI


def _solve_doc(basis_monomials, root="1/2"):
    return {
        "roots": [
            {
                "root": [root],
                "multiplicity": len(basis_monomials),
                "truncated": False,
                "basis": [
                    {"dim": 1, "terms": [{"monomial": [m], "value": "1"}]}
                    for m in basis_monomials
                ],
            }
        ],
        "approximate_roots": [],
        "total_dimension": len(basis_monomials),
        "inconclusive": False,
    }


def test_check_rejects_wrong_solution_spaces():
    half = (workloads.F(1, 2), workloads.F(0))
    op = workloads.Op(
        "solve.fat1d", "solve x", expect=workloads.SolveExpect({(half,): workloads._box([3])})
    )
    assert workloads.check(op, (0, _solve_doc([0, 1, 2])))[0] == workloads.OK
    for bad in ([0, 1], [0, 1, 3], [0, 1, 1]):
        assert workloads.check(op, (0, _solve_doc(bad)))[0] == workloads.WRONG
    assert workloads.check(op, (0, _solve_doc([0, 1, 2], root="1/3")))[0] == workloads.WRONG
    assert workloads.check(op, (2, _solve_doc([0, 1, 2])))[0] == workloads.WRONG


def test_check_separates_flagged_misses_from_wrong_roots():
    r = workloads.F(1, 10**13 + 37)
    op = workloads.Op(
        "roots.rational", "roots x",
        expect=workloads.RootsExpect(frozenset({((r, workloads.F(0)),), ((workloads.F(2), workloads.F(0)),)})),
    )

    def doc(center, inconclusive=True):
        box = {"re": str(center), "im": "0", "radius": "1/1099511627776",
               "multiplicity": 1, "certified": True}
        return {"exact": [["2"]], "inconclusive": inconclusive,
                "approximate": [{"coordinates": [box], "certified": True}]}

    assert workloads.check(op, (2, doc(r)))[0] == workloads.INCONCLUSIVE
    assert workloads.check(op, (2, doc(r + workloads.F(1, 1000))))[0] == workloads.WRONG
    assert workloads.check(op, (0, doc(r, inconclusive=False)))[0] == workloads.WRONG


def test_scalar_text_round_trip():
    F = workloads.F
    printed = {
        "1/2": (F(1, 2), F(0)), "i": (F(0), F(1)), "-i": (F(0), F(-1)), "3i": (F(0), F(3)),
        "-1/2i": (F(0), F(-1, 2)), "-3+2/7i": (F(-3), F(2, 7)), "5-i": (F(5), F(-1)),
    }
    for text, value in printed.items():
        assert workloads.parse_scalar(text) == value
        assert workloads.parse_scalar(workloads.lit(value)[1:-1]) == value
