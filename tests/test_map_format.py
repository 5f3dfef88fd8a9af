"""Map file format v1: checked-in files of every family, bank validation, and
the writer against the json module's indent=2 layout."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from otpost import mixed
from otpost.experiments import random_maxpot_map
from otpost.potential import (
    Activation,
    AffineMap,
    MaxPotentialMap,
    map_from_json,
    map_to_json,
)

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


# ---------------------------------------------------------------------------
# the writer against the json module's indent=2 layout

# floats whose repr json writes verbatim: signed zero, the smallest subnormal
# and normal, the switch to exponent notation on both sides, the largest
# double and a whole number
EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 1e16, 1e22,
               1.7976931348623157e308, 3.0]


def reference_text(mp):
    """The map file as json.dumps(doc, indent=2) writes it from one dict per unit."""
    def docs(bank):
        a, b, w, v = bank.alpha.tolist(), bank.beta.tolist(), bank.w.tolist(), bank.v.tolist()
        return [{"units": [{"activation": bank.activation.value, "alpha": a[k][m],
                            "beta": b[k][m], "w": w[k][m], "v": v[k][m]} for m in range(bank.M)]}
                for k in range(bank.L)]

    if isinstance(mp, AffineMap):
        doc = {"version": 1, "family": "affine", "p": mp.dim, "m": mp.m.tolist(),
               "chol_factor": mp.chol_factor.tolist(), "n_scale": mp.n_scale}
    elif isinstance(mp, MaxPotentialMap):
        doc = {"version": 1, "family": "maxpot", "p": mp.dim, "L": mp.n_locals,
               "gamma_sharp": mp.gamma_sharp, "locals": docs(mp.bank)}
    elif mp.n_obs == 1:
        doc = {"version": 1, "family": "semidiscrete", "kappa": mp.kappa,
               "embedding": {"kind": "one_hot", "vectors": np.eye(mp.K).tolist()},
               "phis": docs(mp.bank)}
    else:
        phis = docs(mp.bank)
        doc = {"version": 1, "family": "gmm_meanfield", "n_obs": mp.n_obs, "K": mp.K,
               "d": mp.phi_dim // mp.K, "kappa": mp.kappa,
               "phis": [phis[i * mp.K : (i + 1) * mp.K] for i in range(mp.n_obs)]}
    return json.dumps(doc, indent=2)


def writer(mp):
    return map_to_json(mp) if isinstance(mp, (AffineMap, MaxPotentialMap)) else mixed.mixed_map_to_json(mp)


def shaped_map(family, activation, n, K, M, p, scale=None):
    """A map of ``family`` with small shapes: K locals (or labels) of M units
    on R^p, n + 1 observations of a gmm map (d = p), and n_scale n of an
    affine map; ``scale`` is gamma_sharp or kappa."""
    if family == "affine":
        return AffineMap(np.zeros(p), np.eye(p), n_scale=n)
    if family == "maxpot":
        return random_maxpot_map(K, M, p, 0, activation=activation).with_gamma(scale or 10.0)
    if family == "semidiscrete":
        return mixed.random_semidiscrete_map(K, p, M, 0, kappa=scale, activation=activation)
    return mixed.random_gmm_map(n + 1, K, p, M, 0, kappa=scale, activation=activation)


def with_params(mp, theta):
    if isinstance(mp, AffineMap):  # theta's p x p block, with a positive diagonal
        p = mp.dim
        C = theta[p:].reshape(p, p)
        return AffineMap(theta[:p], np.tril(C, -1) + np.diag(1.0 + np.abs(C.diagonal())), mp.n_scale)
    return mp.with_flat_params(theta) if isinstance(mp, MaxPotentialMap) else mixed.with_flat_params(mp, theta)


def n_params(mp):
    if isinstance(mp, AffineMap):
        return mp.dim + mp.dim**2
    return mp.bank.flat().size


FINITE = hst.sampled_from(EDGE_FLOATS) | hst.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60)
@given(family=hst.sampled_from(["affine", *sorted(FAMILIES)]),
       activation=hst.sampled_from(list(Activation)), n=hst.integers(1, 3),
       K=hst.integers(1, 3), M=hst.integers(1, 3), p=hst.integers(1, 3),
       scale=hst.sampled_from(EDGE_FLOATS[1:]), data=hst.data())
def test_writer_equals_json_dumps_indent_2(family, activation, n, K, M, p, scale, data):
    mp = shaped_map(family, activation, n, K, M, p, scale)
    theta = np.array(data.draw(hst.lists(FINITE, min_size=n_params(mp), max_size=n_params(mp))))
    mp = with_params(mp, theta)
    assert writer(mp) == reference_text(mp)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_writer_writes_edge_floats_as_json_does(family):
    mp = shaped_map(family, Activation.SQNL, 2, 2, 2, 2, scale=1e-05)
    theta = np.resize(EDGE_FLOATS + [-x for x in EDGE_FLOATS], n_params(mp))
    mp = with_params(mp, theta)
    text = writer(mp)
    assert text == reference_text(mp)
    for x in EDGE_FLOATS:
        assert repr(x) in text


def test_writer_on_a_benchmark_size_gmm_map():
    # 300 observations of 3 labels in 2 dimensions, 13 units: the size of
    # the benchmark's gmm map
    mp = mixed.random_gmm_map(300, 3, 2, 13, 1)
    text = mixed.mixed_map_to_json(mp)
    assert text == reference_text(mp)
    assert mixed.mixed_map_from_json(text).bank.flat().tobytes() == mp.bank.flat().tobytes()


# ---------------------------------------------------------------------------
# parameters that JSON cannot hold


def _set_flat(mp, index, value):
    theta = mp.bank.flat().copy()
    theta[index] = value
    return mp.with_flat_params(theta) if isinstance(mp, MaxPotentialMap) else mixed.with_flat_params(mp, theta)


@pytest.mark.parametrize("make, field", [
    (lambda: _set_flat(random_maxpot_map(3, 2, 2, 7), 0, np.nan), "alpha"),
    (lambda: _set_flat(random_maxpot_map(3, 2, 2, 7), 3, -np.inf), "beta"),
    (lambda: random_maxpot_map(3, 2, 2, 7).with_gamma(np.inf), "gamma_sharp"),
    (lambda: _set_flat(mixed.random_semidiscrete_map(2, 2, 2, 3), 4, np.nan), "w"),
    (lambda: _set_flat(mixed.random_semidiscrete_map(2, 2, 2, 3), 5, np.inf), "v"),
    (lambda: mixed.random_semidiscrete_map(2, 2, 2, 3, kappa=np.inf), "kappa"),
    (lambda: _set_flat(mixed.random_gmm_map(2, 2, 1, 2, 4), 2, np.inf), "beta"),
    (lambda: mixed.random_gmm_map(2, 2, 1, 2, 4, kappa=np.inf), "kappa"),
    (lambda: AffineMap(np.array([np.nan, 0.0]), np.eye(2)), "m"),
    (lambda: AffineMap(np.zeros(2), np.array([[1.0, 0.0], [np.inf, 1.0]])), "chol_factor"),
], ids=["maxpot-alpha", "maxpot-beta", "maxpot-gamma_sharp", "semidiscrete-w",
        "semidiscrete-v", "semidiscrete-kappa", "gmm-beta", "gmm-kappa", "affine-m",
        "affine-chol_factor"])
def test_writer_rejects_a_non_finite_parameter(make, field):
    # NaN and Infinity are not JSON, and the loaders reject them
    with pytest.raises(ValueError, match=f"^{field} has a non-finite entry"):
        writer(make())
