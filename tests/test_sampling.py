import random

import pytest

from qcenters import sampling
from qcenters.sampling import random_instance

# The first ten instances of seeds 0 and 7 (max rank 3, max denominator 24),
# as (type, generator rows of X, parameter).  Building a root datum draws
# nothing from the rng, so these must not move with how many are built.
FIRST_INSTANCES = {
    0: [
        ("G2", [[1, 0], [0, 1]], "16/17"),
        ("C2", [[2, 0], [0, 1]], "3/10"),
        ("A1", [[2]], "3/4"),
        ("A1", [[2]], "1/2"),
        ("C2", [[2, 0], [0, 1]], "5/7"),
        ("G2", [[1, 0], [0, 1]], "13/24"),
        ("A1xA1xA1", [[2, 0, 0], [0, 2, 0], [0, 0, 2]], "4/5,4/11,11/24"),
        ("A3", [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "8/19"),
        ("A1", [[2]], "2/3"),
        ("A1xA2", [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "5/9,4/23"),
    ],
    7: [
        ("B2", [[1, 0], [0, 1]], "1/2"),
        ("A3", [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "1/2"),
        ("A1", [[2]], "1/3"),
        ("A1", [[1]], "4/19"),
        ("A1", [[2]], "1/13"),
        ("A1", [[2]], "3/5"),
        ("B2", [[1, 0], [0, 2]], "10/19"),
        ("A1xA1xA1", [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "7/19,1/6,1/6"),
        ("A3", [[1, 0, 1], [0, 1, 2], [0, 0, 4]], "11/16"),
        ("A1xA2", [[2, 0, 0], [0, 1, 0], [0, 0, 1]], "8/23,2/3"),
    ],
}


def test_first_instances_of_two_seeds_are_pinned():
    for seed, expected in FIRST_INSTANCES.items():
        rng = random.Random(seed)
        drawn = []
        for _ in expected:
            rd, q = random_instance(rng, max_rank=3, max_den=24)
            param = ",".join(f"{c.numerator}/{c.denominator}" for c in q.c)
            drawn.append((str(rd.dynkin), rd.charlattice.rows(), param))
        assert drawn == expected, seed


def test_one_root_datum_per_instance(monkeypatch):
    calls = []
    build = sampling.build_root_datum

    def counting(type_str, lattice):
        calls.append(lattice)
        return build(type_str, lattice)

    monkeypatch.setattr(sampling, "build_root_datum", counting)
    rng = random.Random(0)
    kinds = set()
    for _ in range(40):
        calls.clear()
        random_instance(rng, max_rank=3, max_den=24)
        assert len(calls) == 1
        kinds.add(calls[0] if calls[0] in ("sc", "adjoint") else "intermediate")
    assert kinds == {"sc", "adjoint", "intermediate"}


def test_a_max_rank_outside_the_type_table_is_rejected_before_any_draw():
    # The table holds ranks 1-3; a bound past it used to fail with a bare
    # KeyError on whichever draw landed past 3, and 0 with randrange's error.
    for max_rank in (0, 4, 10):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match=rf"max_rank must be in 1\.\.3, not {max_rank}"):
            random_instance(rng, max_rank=max_rank)
        assert rng.getstate() == state
