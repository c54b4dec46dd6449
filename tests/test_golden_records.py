"""Golden evaluate records: every mode and level must score the same.

Run as a script (``PYTHONPATH=src python tests/test_golden_records.py``) to
rewrite ``golden_eval_records.json`` from ``golden_eval_records``. Do that
only for a change that is meant to alter records, and say which ones.
"""

import json
from pathlib import Path

import numpy as np

from lotsize.generate import desk_params, generate_instance
from lotsize.pipeline import DEFAULT_LEVELS, MODES, PredictionVector, evaluate_instance
from lotsize.solvers import BnbOptions, solve_dp

GOLDEN = Path(__file__).parent / "data" / "golden_eval_records.json"
# (T, c_ratio, f_ratio, instances per preset) of the desk presets covered.
PRESETS = [(20, 3, 100.0, 3), (20, 2, 50.0, 2), (20, 4, 200.0, 2), (30, 3, 100.0, 1)]
SEED = 23
ROUNDS = (0, 3)
FLIP_RATE = 0.1


def noisy_prediction(y, rng: np.random.Generator) -> PredictionVector:
    """Oracle labels flipped at ``FLIP_RATE``, with a confidence drawn from U(0.5, 1)."""
    flip = rng.random(len(y)) < FLIP_RATE
    label = np.where(flip, 1 - y, y)
    conf = rng.uniform(0.5, 1.0, len(y))
    return PredictionVector(np.where(label == 1, conf, 1.0 - conf), source="noisy-oracle")


def golden_eval_records() -> list[dict]:
    """``evaluate_instance`` over every mode and level, cut-free and with 3 cut rounds."""
    records = []
    for T, c_ratio, f_ratio, n in PRESETS:
        params = desk_params(c_ratio, f_ratio, T=T, seed=SEED)
        for i in range(n):
            inst = generate_instance(params, i)
            rng = np.random.default_rng([SEED, T, c_ratio, i])
            pred = noisy_prediction(solve_dp(inst).y, rng)
            for rounds in ROUNDS:
                for r in evaluate_instance(
                    inst, pred, list(MODES), list(DEFAULT_LEVELS), BnbOptions(ls_rounds=rounds)
                ):
                    records.append({
                        "T": T, "c_ratio": c_ratio, "f_ratio": f_ratio, "index": i,
                        "ls_rounds": rounds, "mode": r.mode, "level_pct": r.level_pct,
                        "status": r.status,
                        "z_star": repr(r.z_star),
                        "z_tilde": repr(r.z_tilde),
                        "k_fixed": r.k_fixed,
                        "optgap_pct": repr(r.optgap_pct),
                    })
    return records


def test_golden_eval_records_are_reproduced():
    """``golden_eval_records.json`` was written by ``golden_eval_records``
    before the restricted-solve path was streamlined; every status,
    objective and gap (to the last bit) and fixed count must come out the
    same."""
    golden = json.loads(GOLDEN.read_text())
    records = golden_eval_records()
    assert len(records) == len(golden)
    for got, want in zip(records, golden):
        assert got == want


if __name__ == "__main__":
    GOLDEN.write_text("[\n" + ",\n".join(map(json.dumps, golden_eval_records())) + "\n]\n")
    print(f"wrote {GOLDEN}")
