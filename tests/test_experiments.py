import pytest

from defekt.errors import ValidationError
from defekt.experiments import CLAIMS, EXPERIMENTS, run_experiment

ROW_KEYS = {"check_id", "claim_id", "inputs", "expected", "actual", "pass"}

SMALL = {
    "lowerbound-gsn": {},
    "dichotomy-random": {"count": 20},
    "no-c4-planar": {"count": 8},
    "kell-smoke": {"count": 4},
    "treefree": {"count": 10},
    "oracle-agreement": {"count": 30},
    "earth-moon-table": {},
}


def test_registry_is_covered():
    assert set(SMALL) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_rows_pass_and_are_well_formed(name):
    rows = run_experiment(name, seed=3, **SMALL[name])
    assert rows
    for row in rows:
        assert set(row) == ROW_KEYS
        assert row["claim_id"] in CLAIMS
        assert row["pass"] is True


def test_experiments_are_deterministic():
    a = run_experiment("dichotomy-random", seed=11, count=12)
    b = run_experiment("dichotomy-random", seed=11, count=12)
    assert a == b


def test_seed_changes_the_instances():
    a = run_experiment("dichotomy-random", seed=1, count=12)
    b = run_experiment("dichotomy-random", seed=2, count=12)
    assert [r["inputs"] for r in a] != [r["inputs"] for r in b]


def test_unknown_experiment_rejected():
    with pytest.raises(ValidationError, match="unknown experiment"):
        run_experiment("nope")
    with pytest.raises(ValidationError, match="does not take count"):
        run_experiment("earth-moon-table", count=3)


def test_none_overrides_mean_defaults():
    a = run_experiment("earth-moon-table", seed=0, count=None)
    b = run_experiment("earth-moon-table", seed=0)
    assert a == b
