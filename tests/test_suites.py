"""Randomized verification suites: registry, seeding, determinism."""

import dataclasses

import pytest

from synthkit import IdealHandle, LaurentPoly, Polynomial
from synthkit.measures import trivial_exponential
from synthkit.suites import (
    DEFAULT_SEED,
    SUITES,
    active_seed,
    dual_space_error,
    run_suite,
)


def test_registry_names():
    assert set(SUITES) == {
        "transform-homomorphism",
        "frechet-order",
        "product-rule",
        "derivation-compose",
        "max-ideal-power",
        "derivation-ideal",
        "lefranc",
        "plane-instance",
        "localizability",
        "rank-growth",
    }


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


def test_active_seed_default(monkeypatch):
    monkeypatch.delenv("SYNTHKIT_SEED", raising=False)
    assert active_seed() == DEFAULT_SEED


def test_active_seed_from_environment(monkeypatch):
    monkeypatch.setenv("SYNTHKIT_SEED", "12345")
    assert active_seed() == 12345


def test_active_seed_rejects_garbage(monkeypatch):
    monkeypatch.setenv("SYNTHKIT_SEED", "not-a-number")
    with pytest.raises(ValueError):
        active_seed()


def test_suite_result_shape():
    result = run_suite("rank-growth", seed=7)
    assert result.name == "rank-growth"
    assert result.trials > 0
    assert result.passed
    assert result.failures == []


def test_suites_are_deterministic_per_seed():
    a = run_suite("transform-homomorphism", seed=99, trials=20)
    b = run_suite("transform-homomorphism", seed=99, trials=20)
    assert (a.trials, a.failures) == (b.trials, b.failures)


def test_trial_count_override():
    result = run_suite("product-rule", seed=5, trials=3)
    assert result.trials == 3
    assert result.passed


def test_cheap_suites_pass_on_alternate_seed():
    for name in ("transform-homomorphism", "derivation-compose", "rank-growth"):
        assert run_suite(name, seed=31337, trials=5).passed


def test_dual_space_error_checks_every_shift():
    z1, z2 = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)
    gens = [(z1 - 1) ** 2, z2 - 1, (z1 - 1) * (z2 - 1)]
    dual = IdealHandle(gens).local_dual_space(trivial_exponential(2))
    assert dual_space_error(gens, dual) is None
    x2 = Polynomial.variable(2, 1)
    wrong = dataclasses.replace(dual, polys=dual.polys[:1] + (x2,))
    assert dual_space_error(gens, wrong) is not None
