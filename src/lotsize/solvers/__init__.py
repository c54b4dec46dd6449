from ..core import Instance, Solution
from ..errors import ValidationError
from .bnb import BnbOptions, branch_and_bound, repair_pattern, solve_with_ls_cuts
from .brute import brute_force
from .cuts import DEFAULT_ROUNDS, root_cut_loop, separate_ls_cuts
from .dp import solve_dp
from .lp import LpSolution, LpWorkspace
from .pattern import solve_for_pattern

# Every exact backend, by the name the command line and scripts use.
SOLVERS = ("bnb", "lscuts", "dp", "brute")


def solve(name: str, inst: Instance, opts: BnbOptions | None = None) -> Solution:
    """Solve ``inst`` with the named backend from ``SOLVERS``.

    ``opts`` applies to the branch-and-bound backends, and its ``ls_rounds``
    tells them apart: bnb runs no cut round (``ls_rounds == 0``), lscuts at
    least one (``DEFAULT_ROUNDS`` when ``opts`` is None). Any other value
    raises ``ValidationError``. dp and brute take no options.
    """
    # Backends are looked up by module-level name at call time, so a caller
    # that rebinds e.g. ``branch_and_bound`` sees every solve.
    if name == "bnb":
        if opts is not None and opts.ls_rounds > 0:
            raise ValidationError("solver bnb runs no cut rounds; use lscuts for ls_rounds > 0")
        return branch_and_bound(inst, opts=opts)
    if name == "lscuts":
        opts = opts or BnbOptions(ls_rounds=DEFAULT_ROUNDS)
        if opts.ls_rounds < 1:
            raise ValidationError("solver lscuts needs ls_rounds of at least 1")
        return branch_and_bound(inst, opts=opts)
    if name == "dp":
        return solve_dp(inst)
    if name == "brute":
        return brute_force(inst)
    raise ValidationError(f"unknown solver {name!r}; expected one of {', '.join(SOLVERS)}")


__all__ = [
    "BnbOptions",
    "DEFAULT_ROUNDS",
    "LpSolution",
    "LpWorkspace",
    "SOLVERS",
    "branch_and_bound",
    "brute_force",
    "repair_pattern",
    "root_cut_loop",
    "separate_ls_cuts",
    "solve",
    "solve_dp",
    "solve_for_pattern",
    "solve_with_ls_cuts",
]
