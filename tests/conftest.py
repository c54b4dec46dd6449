import numpy as np
import pytest
from hypothesis import strategies as st

from lotsize import GenParams, Instance, generate_instance


@pytest.fixture
def e1() -> Instance:
    """Three-period instance small enough to verify by hand."""
    return Instance(T=3, d=[2, 3, 1], p=[1, 1, 1], f=[5, 5, 5], h=[1, 1, 1], cap=[4, 4, 4])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def random_small_instance(rng: np.random.Generator, T: int | None = None) -> Instance:
    """Tiny random instance with enough capacity slack to usually be feasible."""
    T = T or int(rng.integers(1, 7))
    d = rng.integers(0, 10, T)
    cap = rng.integers(0, 14, T) + d
    return Instance(
        T=T,
        d=d,
        p=rng.integers(0, 5, T),
        f=rng.integers(0, 30, T),
        h=rng.integers(0, 3, T),
        cap=cap,
        s0=int(rng.integers(0, 4)),
    )


@st.composite
def edge_instances(draw) -> Instance:
    """Small instances that reach the edge cases of the path solvers.

    Narrow integer ranges give initial inventory, zero-capacity periods, free
    setups (``f = 0``), period-dependent holding costs and tied unit costs.
    ``T <= 7`` keeps brute force to at most 128 patterns.
    """
    T = draw(st.integers(1, 7))

    def vector(lo: int, hi: int):
        return draw(st.lists(st.integers(lo, hi), min_size=T, max_size=T))

    return Instance(
        T=T,
        d=vector(0, 9),
        p=vector(0, 2),
        f=vector(0, 20),
        h=vector(0, 2),
        cap=vector(0, 16),
        s0=draw(st.integers(0, 12)),
    )


def generated_instances(n: int, seed: int = 5, T: int = 8, c: int = 3, f: float = 50.0):
    params = GenParams(c_ratio=c, f_ratio=f, T=T, demand_range=(1, 20), seed=seed)
    return [generate_instance(params, i) for i in range(n)]


@st.composite
def desk_instances(draw, max_T: int = 20) -> Instance:
    """Generated instances of the desk scheme (d in [1, 60]) with T <= ``max_T``."""
    params = GenParams(
        c_ratio=draw(st.integers(2, 4)),
        f_ratio=float(draw(st.sampled_from([10, 50, 100, 200]))),
        T=draw(st.integers(1, max_T)),
        demand_range=(1, 60),
        seed=draw(st.integers(0, 10_000)),
    )
    return generate_instance(params, draw(st.integers(0, 100)))
