import json

import numpy as np
import pytest

import equiterm as eq
from tests.corpus import desk_identity, desk_n1, two_stage_scenario


@pytest.fixture(scope="session")
def identity_scenario():
    return desk_identity()


@pytest.fixture(scope="session")
def n1_scenario():
    return desk_n1()


@pytest.fixture(scope="session")
def two_stage():
    return two_stage_scenario(seed=1)


# scenario files for CLI calls, written once per test module

@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "desk.json"
    path.write_text(json.dumps(eq.scenario_to_dict(desk_n1())), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def two_stage_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ts.json"
    path.write_text(json.dumps(eq.scenario_to_dict(two_stage_scenario(seed=1))),
                    encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def ensemble_file(tmp_path_factory):
    sc = desk_n1()
    rng = np.random.default_rng(8)
    n = 16
    records = []
    base = rng.standard_normal((n, 3))
    for k in range(n):
        records.append({
            "weight": 1.0 / n,
            "pi": [[5.0 + base[k, 0]]],
            "g": {"gas": [[3.0 + 0.4 * base[k, 1]]]},
            "g_em": [[1.0 + 0.2 * base[k, 2]]],
        })
    doc = eq.scenario_to_dict(sc)
    doc["exogenous"].pop("covariance")
    doc["exogenous"]["ensemble"] = {"paths": records}
    path = tmp_path_factory.mktemp("cli") / "ens.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path
