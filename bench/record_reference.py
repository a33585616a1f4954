"""Write bench/reference.json: fingerprint and answer of every benchmark input.

Run from the repository root, on the commit whose answers are the
reference:  python3 bench/record_reference.py
Re-recording on a later commit would hide a change of answers, so do it
only when the inputs themselves change, and say so where the change is
described.
"""

import json
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "EQUITERM_THREADS"):
    os.environ[var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import equiterm as eq  # noqa: E402

import inputs  # noqa: E402


def main() -> int:
    out = {}
    for group in ("corpus", "ladder", "cli"):
        for key, sc in inputs.build(group).items():
            entry = {"sha256": inputs.fingerprint(sc)}
            if key == "cli/flat":
                entry["mean_max_prices"] = [float(p) for p in eq.mean_max_equilibrium(sc).prices]
            elif key != "cli/ensemble":
                res = eq.solve_equilibrium(sc, tol=inputs.CLEARING_TOL, kkt_tol=inputs.KKT_TOL)
                if not (res.converged and eq.validate_scenario(sc).passed):
                    print(f"{key}: not a valid, solvable input", file=sys.stderr)
                    return 1
                entry["prices"] = [float(p) for p in res.prices]
            out[key] = entry
    doc = {"about": "discounted equilibrium prices in canonical order; sha256 of the "
                    "canonical JSON of scenario_to_dict", "inputs": out}
    inputs.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(out)} inputs to {inputs.REFERENCE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
