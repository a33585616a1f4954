"""Benchmark inputs, their fingerprints and the recorded reference answers.

Every input is a scenario built from ``tests/corpus.py`` (the acceptance
corpus, a synthetic ladder and the small CLI files).  Its fingerprint is the
sha256 of the canonical JSON of ``scenario_to_dict``.  ``reference.json``
holds the fingerprint and the answer of every input as recorded from the
first benchmarked commit; an input whose fingerprint differs is refused, so
an edit to the scenario builders shows up as an input change and never as
a change of speed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import equiterm as eq
from tests import corpus

REFERENCE = Path(__file__).with_name("reference.json")

LADDER_SIZES = (12, 24, 48)
PRICE_TOL = 1e-4  # acceptance grid step
CLEARING_TOL = 1e-8
KKT_TOL = 1e-8


class InputsChanged(Exception):
    """The generated inputs are not the ones the reference was recorded on."""


def ladder_scenario(n_contracts: int) -> eq.Scenario:
    """N/2 deliveries x 2 trading times, coal and gas, 3 producers, 2 consumers."""
    return corpus.build_scenario(
        seed=n_contracts, sizes=(2,) * (n_contracts // 2), fuels={"coal": 0.9, "gas": 0.5},
        producers=[(1.0, [("coal", 9.0, 4.0, -4.0, 1.0)]),
                   (1.2, [("gas", 8.0, 8.0, -8.0, 2.0)]),
                   (1.5, [("gas", 6.0, 6.0, -6.0, 2.2)])],
        consumers=[(1.0, 0.6, 0.0), (1.2, 0.4, 0.0)],
        demand_frac=0.4,
    )


def ensemble_doc() -> dict:
    """A one-contract scenario whose second moments come from 16 paths."""
    rng = np.random.default_rng(8)
    base = rng.standard_normal((16, 3))
    doc = eq.scenario_to_dict(corpus.desk_n1())
    doc["exogenous"].pop("covariance")
    doc["exogenous"]["ensemble"] = {"paths": [
        {"weight": 1.0 / 16, "pi": [[5.0 + b[0]]], "g": {"gas": [[3.0 + 0.4 * b[1]]]},
         "g_em": [[1.0 + 0.2 * b[2]]]}
        for b in base
    ]}
    return doc


def cli_docs() -> dict[str, dict]:
    """Small scenario documents for the cold CLI calls."""
    return {
        "desk": eq.scenario_to_dict(corpus.desk_n1()),
        "two_stage": eq.scenario_to_dict(corpus.two_stage_scenario(seed=1)),
        "flat": eq.scenario_to_dict(corpus.mean_max_instances()["generic"]),
        "ensemble": ensemble_doc(),
    }


def fingerprint(scenario: eq.Scenario) -> str:
    doc = eq.scenario_to_dict(scenario)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build(group: str) -> dict[str, eq.Scenario]:
    """The inputs of one group (corpus, ladder or cli) by reference key."""
    if group == "corpus":
        items = corpus.make_corpus()
    elif group == "ladder":
        items = [(f"n{n}", ladder_scenario(n)) for n in LADDER_SIZES]
    else:
        items = [(name, eq.scenario_from_dict(doc)) for name, doc in cli_docs().items()]
    return {f"{group}/{name}": sc for name, sc in items}


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["inputs"]


def checked(group: str, reference: dict) -> tuple[dict, dict]:
    """The inputs of ``group`` that the reference names, with fingerprints.

    Raises InputsChanged when one is missing or its fingerprint differs.
    Inputs the reference does not name are ignored.
    """
    built = build(group)
    keys = [key for key in reference if key.startswith(group + "/")]
    prints = {key: fingerprint(built[key]) for key in keys if key in built}
    bad = [key for key in keys if prints.get(key) != reference[key]["sha256"]]
    if bad:
        raise InputsChanged(
            "benchmark inputs differ from bench/reference.json, so runs are not "
            f"comparable: {', '.join(bad)}")
    return {key: built[key] for key in keys}, prints


def price_gap(prices, expected) -> float:
    return float(np.max(np.abs(np.asarray(prices, dtype=float) - np.asarray(expected))))
