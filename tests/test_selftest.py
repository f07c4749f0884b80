from qcenters import report, selftest
from qcenters.selftest import run_selftest


def _counting(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def wrapper(*args):
        counts[name] += 1
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)


def test_seed_zero_builds_one_tower_per_instance_and_every_sweep_instance_runs_the_twist_checks(monkeypatch):
    counts = {"center_tower": 0, "run_all": 0}
    _counting(monkeypatch, report, "center_tower", counts)
    _counting(monkeypatch, report, "run_all", counts)
    # The brute-force suite calls center_tower through its own import.
    monkeypatch.setattr(selftest, "center_tower", report.center_tower)
    results = run_selftest(0)
    assert all(r.ok for r in results), [r.failures for r in results]
    sweep, brute = results[0], results[1]
    assert (sweep.runs, brute.runs) == (50, 20)
    assert counts == {"center_tower": 70, "run_all": 50}
