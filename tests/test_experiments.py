import hashlib

import pytest

from defekt import cli
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


# sha256 of the seed-0 ``defekt experiment NAME`` stdout at the SMALL counts;
# the benchmark's digests cover the other four experiments
PINNED = {
    "treefree": "e39d33379577687bc0d292737dc45c5db0c8339f7f7c63d3e858dd95fa6c94de",
    "no-c4-planar": "adb84c39ce45e7a76cce95d25fe842fe4831a17188a9de71d373d0add343ac2a",
    "earth-moon-table": "c74aafe145f9389738d7ae138fee3bb42f4bb5aa48671444d7f8e408e7c57b4f",
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


@pytest.mark.parametrize("name", sorted(PINNED))
def test_seed_0_stdout_is_pinned(name, capsys, monkeypatch):
    monkeypatch.delenv("DEFEKT_CAPS", raising=False)
    argv = ["experiment", name, "--seed", "0"]
    for key, value in SMALL[name].items():
        argv += [f"--{key}", str(value)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINNED[name]
