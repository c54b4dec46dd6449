"""Plans and labels read from outside: fractional entries are errors, never truncated."""

import numpy as np
import pytest

from lotsize import FixPlan, Solution
from lotsize.core import SolveStats
from lotsize.errors import ValidationError


def e1_solution() -> Solution:
    return Solution(x=[2, 4, 0], s=[0, 1, 0], y=[1, 1, 0], objective=17.0, status="Optimal")


class TestFixPlanEntries:
    @pytest.mark.parametrize("entries,named", [
        ({1.5: 1}, "fix plan index must be an integer, got 1.5"),
        ({2: 0.7}, "fix plan value for period 2 must be an integer, got 0.7"),
        ({np.float64(3.5): 0}, "fix plan index must be an integer"),
        ({1: float("nan")}, "fix plan value for period 1"),
    ], ids=["index", "value", "numpy-index", "nan-value"])
    def test_rejects_fractional_entries(self, entries, named):
        with pytest.raises(ValidationError, match=named):
            FixPlan(entries)

    def test_integral_entries_of_any_type_become_ints(self):
        plan = FixPlan({np.int64(2): np.int64(1), 3.0: 0.0, True: False})
        assert plan.entries == {2: 1, 3: 0, 1: 0}
        assert all(type(t) is int and type(v) is int for t, v in plan.entries.items())


class TestSolutionArrays:
    def test_from_dict_rejects_non_binary_labels(self):
        data = {"x": [1.0, 2.0], "s": [0.0, 0.0], "y": [0.5, 1.7], "objective": 3.0}
        with pytest.raises(ValidationError, match="y must hold 0 or 1, got 0.5 in period 1"):
            Solution.from_dict(data)
        with pytest.raises(ValidationError, match="got 2 in period 2"):
            Solution.from_dict({**data, "y": [1, 2]})
        assert Solution.from_dict({**data, "y": [1.0, 0]}).y.tolist() == [1, 0]

    def test_with_stats_shares_the_frozen_arrays(self):
        sol = e1_solution()
        again = sol.with_stats(SolveStats(nodes_explored=3), "TimeLimit")
        assert again.stats.nodes_explored == 3 and again.status == "TimeLimit"
        assert again.x is sol.x and again.s is sol.s and again.y is sol.y
        assert again.objective == sol.objective and sol.status == "Optimal"
        assert not again.x.flags.writeable

    def test_constructor_copies_its_inputs(self):
        x = np.array([1.0, 2.0])
        sol = Solution(x=x, s=[0.0, 0.0], y=[1, 1], objective=3.0, status="Optimal")
        x[0] = 9.0
        assert sol.x.tolist() == [1.0, 2.0] and not sol.x.flags.writeable
