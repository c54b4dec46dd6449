"""Golden branch-and-bound trees: the search must repeat node for node.

Run as a script (``PYTHONPATH=src python tests/test_golden_bnb.py``) to
rewrite ``golden_bnb_trees.json`` from ``golden_bnb_trees``. Do that only
for a change that is meant to alter trees, and say which ones.
"""

import json
from pathlib import Path

import numpy as np

from lotsize import FixPlan
from lotsize.generate import desk_params, generate_instance
from lotsize.solvers import BnbOptions, branch_and_bound

GOLDEN = Path(__file__).parent / "data" / "golden_bnb_trees.json"
# (T, c_ratio, f_ratio, instances per preset) of the desk presets covered.
PRESETS = [(20, 3, 100.0, 3), (20, 2, 50.0, 2), (20, 4, 200.0, 3), (30, 3, 100.0, 2), (30, 4, 200.0, 2)]
SEED = 11
PLANS_PER_INSTANCE = 2


def random_plan(T: int, rng: np.random.Generator) -> dict[int, int]:
    """Fix between 2 and T/2 random periods to random 0/1 values."""
    k = int(rng.integers(2, T // 2 + 1))
    periods = rng.choice(T, size=k, replace=False) + 1
    return {int(t): int(rng.integers(0, 2)) for t in sorted(periods)}


def golden_bnb_trees() -> list[dict]:
    """Each solver's outcome and tree size on seeded desk instances and plans.

    Every instance is solved unrestricted and under ``PLANS_PER_INSTANCE``
    seeded partial plans, by cut-free ``branch_and_bound`` and by
    ``branch_and_bound`` after 3 and 5 root cut rounds.
    """
    solvers = {
        "bnb": lambda inst, plan: branch_and_bound(inst, plan),
        "lscuts3": lambda inst, plan: branch_and_bound(inst, plan, BnbOptions(ls_rounds=3)),
        "lscuts5": lambda inst, plan: branch_and_bound(inst, plan, BnbOptions(ls_rounds=5)),
    }
    cases = []
    for T, c_ratio, f_ratio, n in PRESETS:
        params = desk_params(c_ratio, f_ratio, T=T, seed=SEED)
        for i in range(n):
            inst = generate_instance(params, i)
            rng = np.random.default_rng([SEED, T, c_ratio, i])
            plans = [{}] + [random_plan(T, rng) for _ in range(PLANS_PER_INSTANCE)]
            for plan in plans:
                for name, solver in solvers.items():
                    sol = solver(inst, FixPlan(plan))
                    cases.append({
                        "T": T, "c_ratio": c_ratio, "f_ratio": f_ratio, "index": i,
                        "plan": {str(t): v for t, v in plan.items()},
                        "solver": name,
                        "status": sol.status,
                        "objective": repr(sol.objective),
                        "nodes_explored": sol.stats.nodes_explored,
                        "lp_solves": sol.stats.lp_solves,
                        "cut_stop": sol.stats.cut_stop,
                        "y": [int(v) for v in sol.y],
                    })
    return cases


def test_golden_bnb_trees_are_reproduced():
    """``golden_bnb_trees.json`` was written by ``golden_bnb_trees`` before the
    closed-form node path was streamlined; every status, objective (to the
    last bit), node count, LP count, cut-loop stop and setup vector must
    come out the same."""
    golden = json.loads(GOLDEN.read_text())
    cases = golden_bnb_trees()
    assert len(cases) == len(golden)
    for got, want in zip(cases, golden):
        assert got == want


if __name__ == "__main__":
    GOLDEN.write_text("[\n" + ",\n".join(map(json.dumps, golden_bnb_trees())) + "\n]\n")
    print(f"wrote {GOLDEN}")
