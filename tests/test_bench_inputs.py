"""The benchmark refuses an input whose canonical scenario JSON changed, so
a change to ``scenario_to_dict``'s output would stop every benchmark run;
these tests catch it first."""

import json

import pytest

import equiterm as eq
from bench.inputs import checked, load_reference


@pytest.mark.parametrize("group", ["corpus", "ladder", "cli"])
def test_bench_inputs_match_their_recorded_fingerprints(group):
    inputs, _ = checked(group, load_reference())  # raises InputsChanged on a mismatch
    assert inputs


def test_ensemble_scenario_round_trips_to_the_same_json(ensemble_file):
    doc = json.loads(ensemble_file.read_text(encoding="utf-8"))
    again = eq.scenario_to_dict(eq.load_scenario(ensemble_file))
    assert json.dumps(again, sort_keys=True) == json.dumps(doc, sort_keys=True)
