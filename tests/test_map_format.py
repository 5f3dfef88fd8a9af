"""Map file format v1: checked-in files of every family, and bank validation."""

import json
import os

import numpy as np
import pytest

from otpost import mixed
from otpost.experiments import random_maxpot_map
from otpost.potential import Activation, map_from_json, map_to_json

DATA = os.path.join(os.path.dirname(__file__), "data")

# family -> (loader, writer, flattener, the call that made the file)
FAMILIES = {
    "maxpot": (
        map_from_json, map_to_json, lambda m: m.flat_params(),
        lambda: random_maxpot_map(3, 2, 2, 7, activation=Activation.SOFTSIGN),
    ),
    "semidiscrete": (
        mixed.mixed_map_from_json, mixed.mixed_map_to_json, lambda m: m.bank.flat(),
        lambda: mixed.random_semidiscrete_map(K=2, p=2, M=2, seed=3, kappa=0.5),
    ),
    "gmm_meanfield": (
        mixed.mixed_map_from_json, mixed.mixed_map_to_json, lambda m: m.bank.flat(),
        lambda: mixed.random_gmm_map(n_obs=2, K=2, d=1, M=2, seed=4, block_split=True),
    ),
}


def read(name):
    with open(os.path.join(DATA, name)) as fh:
        return fh.read()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_v1_file_loads_and_rewrites_byte_identically(family):
    # the files were written by the unit-object implementation of the format
    load, dump, flat, _ = FAMILIES[family]
    text = read(f"map_v1_{family}.json")
    mp = load(text)
    want = np.array(json.loads(read("map_v1_flat_params.json"))[family])
    assert flat(mp).tobytes() == want.tobytes()
    assert dump(mp) == text


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_random_constructor_draws_the_v1_file(family):
    _, dump, _, make = FAMILIES[family]
    assert dump(make()) == read(f"map_v1_{family}.json")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_v1_file_with_mixed_activations_is_rejected(family):
    load = FAMILIES[family][0]
    doc = json.loads(read(f"map_v1_{family}.json"))
    locals_ = doc["locals"] if family == "maxpot" else doc["phis"]
    first = locals_[0] if family != "gmm_meanfield" else locals_[0][0]
    first["units"][0]["activation"] = "sqnl"
    with pytest.raises(ValueError, match="one activation"):
        load(json.dumps(doc))


def test_v1_file_with_ragged_units_is_rejected():
    doc = json.loads(read("map_v1_maxpot.json"))
    doc["locals"][1]["units"].pop()
    with pytest.raises(ValueError, match="same number of units"):
        map_from_json(json.dumps(doc))
    doc = json.loads(read("map_v1_maxpot.json"))
    doc["locals"][1]["units"][0]["alpha"].append(0.5)
    with pytest.raises(ValueError):
        map_from_json(json.dumps(doc))
