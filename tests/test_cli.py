"""Command-line frontend: configs, artifacts, exit codes, determinism."""

import dataclasses
import json
import os

import numpy as np
import pytest

from otpost.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main


def write_config(tmp_path, doc, name="cfg.json"):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def affine_config(tmp_path, out="out"):
    return write_config(
        tmp_path,
        {
            "target": {"kind": "std_normal", "params": {"dim": 2}},
            "map": {"family": "affine"},
            "train": {"max_iters": 120, "learning_rate": 0.02, "seed": 3},
            "out_dir": os.path.join(tmp_path, out),
        },
        name=f"cfg_{out}.json",
    )


def test_train_affine_minimal_config(tmp_path):
    cfg = affine_config(tmp_path)
    assert main(["train", "--config", cfg]) == EXIT_OK
    out = os.path.join(tmp_path, "out")
    with open(os.path.join(out, "map.json")) as fh:
        doc = json.load(fh)
    assert doc["family"] == "affine"
    assert len(doc["m"]) == 2
    assert os.path.exists(os.path.join(out, "report.json"))


def test_train_missing_target_kind_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"target": {}, "map": {"family": "affine"}, "out_dir": str(tmp_path)},
    )
    assert main(["train", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "kind" in err and "target" in err


def test_train_invalid_json_exits_2(tmp_path, capsys):
    path = os.path.join(tmp_path, "broken.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    assert main(["train", "--config", path]) == EXIT_CONFIG
    assert "invalid JSON" in capsys.readouterr().err


def test_train_aborted_exits_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "target": {"kind": "std_normal", "params": {"dim": 2}},
            "map": {"family": "maxpot", "L": 1, "M": 4, "seed": 1},
            "train": {"max_iters": 200, "learning_rate": 1000, "batch_size": 64, "seed": 1},
            "out_dir": os.path.join(tmp_path, "ab"),
        },
    )
    assert main(["train", "--config", cfg]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "training aborted at iteration" in err and "non-finite" in err
    with open(os.path.join(tmp_path, "ab", "report.json")) as fh:
        doc = json.load(fh)
    assert doc["aborted"] is True and doc["stop_reason"] == "aborted"
    assert not os.path.exists(os.path.join(tmp_path, "ab", "map.json"))


def test_train_value_the_config_rejects_exits_2(tmp_path, capsys):
    # the schema allows any two numbers as adam_betas; TrainConfig does not
    cfg = write_config(
        tmp_path,
        {
            "target": {"kind": "std_normal", "params": {"dim": 2}},
            "map": {"family": "affine"},
            "train": {"adam_betas": [1.5, 0.9]},
            "out_dir": os.path.join(tmp_path, "bad"),
        },
    )
    assert main(["train", "--config", cfg]) == EXIT_CONFIG
    assert "adam_betas" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(tmp_path, "bad"))


def test_train_map_gamma_sharp_exits_2(tmp_path, capsys):
    # the smoothing sharpness has one home, train.gamma_sharp
    cfg = write_config(
        tmp_path,
        {
            "target": {"kind": "std_normal", "params": {"dim": 2}},
            "map": {"family": "maxpot", "gamma_sharp": 5.0},
            "train": {"max_iters": 1},
            "out_dir": os.path.join(tmp_path, "g"),
        },
    )
    assert main(["train", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "map" in err and "gamma_sharp" in err
    assert not os.path.exists(os.path.join(tmp_path, "g"))


def test_schema_train_objects_name_the_config_fields():
    from otpost.cli import _SCHEMA_PATH
    from otpost.trainer import SinkhornConfig, StopConfig, TrainConfig

    with open(_SCHEMA_PATH) as fh:
        train = json.load(fh)["properties"]["train"]
    for obj, cls in (
        (train, TrainConfig),
        (train["properties"]["sinkhorn"], SinkhornConfig),
        (train["properties"]["stop"], StopConfig),
    ):
        assert set(obj["properties"]) == {f.name for f in dataclasses.fields(cls)}


def test_train_rerun_is_byte_identical(tmp_path):
    cfg1 = affine_config(tmp_path, out="r1")
    cfg2 = affine_config(tmp_path, out="r2")
    assert main(["train", "--config", cfg1]) == EXIT_OK
    assert main(["train", "--config", cfg2]) == EXIT_OK
    with open(os.path.join(tmp_path, "r1", "report.json")) as fh:
        rep1 = json.load(fh)
    with open(os.path.join(tmp_path, "r2", "report.json")) as fh:
        rep2 = json.load(fh)
    assert rep1["objective_trace"] == rep2["objective_trace"]
    with open(os.path.join(tmp_path, "r1", "map.json")) as fh:
        m1 = fh.read()
    with open(os.path.join(tmp_path, "r2", "map.json")) as fh:
        m2 = fh.read()
    assert m1 == m2


@pytest.fixture()
def trained_map(tmp_path):
    cfg = affine_config(tmp_path)
    assert main(["train", "--config", cfg]) == EXIT_OK
    return os.path.join(tmp_path, "out", "map.json")


def test_sample_and_metrics_round_trip(tmp_path, trained_map):
    s1 = os.path.join(tmp_path, "s1.csv")
    s2 = os.path.join(tmp_path, "s2.csv")
    assert main(["sample", "--map", trained_map, "--n", "150", "--seed", "4", "--out", s1]) == EXIT_OK
    assert main(["sample", "--map", trained_map, "--n", "150", "--seed", "4", "--out", s2]) == EXIT_OK
    out = os.path.join(tmp_path, "m.json")
    assert main(["metrics", "--metric", "w2", "--a", s1, "--b", s2, "--out", out]) == EXIT_OK
    with open(out) as fh:
        doc = json.load(fh)
    assert doc["metric"] == "w2"
    assert doc["value"] <= 1e-7
    assert doc["n"] == 150


def test_metrics_w2eps_requires_epsilon(tmp_path, trained_map, capsys):
    s1 = os.path.join(tmp_path, "s.csv")
    main(["sample", "--map", trained_map, "--n", "50", "--seed", "1", "--out", s1])
    assert main(["metrics", "--metric", "w2eps", "--a", s1, "--b", s1]) == EXIT_CONFIG
    assert "epsilon" in capsys.readouterr().err


def test_metrics_w2eps_nonconvergence_exits_3(tmp_path, capsys):
    from otpost.samples import SampleMatrix

    rg = np.random.default_rng(5)
    paths = []
    for name, shift in (("a.csv", 0.0), ("b.csv", 3.0)):
        path = os.path.join(tmp_path, name)
        SampleMatrix.continuous(rg.standard_normal((50, 2)) + shift).to_csv(path)
        paths.append(path)
    argv = ["metrics", "--metric", "w2eps", "--a", paths[0], "--b", paths[1]]
    assert main(argv + ["--epsilon", "1e-4"]) == EXIT_NUMERICAL
    assert "did not converge" in capsys.readouterr().err
    assert main(argv + ["--epsilon", "1.0"]) == EXIT_OK


def test_quantiles_emits_three_contours_and_svg(tmp_path, trained_map):
    qdir = os.path.join(tmp_path, "q")
    assert main([
        "quantiles", "--map", trained_map, "--q", "0.2", "--q", "0.5", "--q", "0.9",
        "--out-dir", qdir,
    ]) == EXIT_OK
    for q in ("0.2", "0.5", "0.9"):
        assert os.path.exists(os.path.join(qdir, f"contour_{q}.csv"))
    svg = os.path.join(qdir, "contours.svg")
    assert os.path.exists(svg)
    import xml.etree.ElementTree as ET

    ET.parse(svg)  # valid XML


def test_invert_reports_rank_and_pvalue(tmp_path, trained_map, capsys):
    assert main(["invert", "--map", trained_map, "--theta0", "0.0,0.0"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"preimage", "radius", "rank_level", "pvalue"}
    assert 0.0 <= doc["rank_level"] <= 1.0
    from otpost.inference import bayes_pvalue
    from otpost.potential import map_from_json

    with open(trained_map) as fh:
        mp = map_from_json(fh.read())
    assert doc["pvalue"] == bayes_pvalue(mp, [0.0, 0.0])


def test_invert_dimension_mismatch_exits_2(tmp_path, trained_map):
    assert main(["invert", "--map", trained_map, "--theta0", "0,0,0"]) == EXIT_CONFIG


def reference_config(tmp_path, target, family="maxpot"):
    """A training config; `otpost reference` samples the posterior of its target."""
    return write_config(
        tmp_path,
        {"target": target, "map": {"family": family}, "out_dir": os.path.join(tmp_path, "o")},
        name="ref_cfg.json",
    )


def reference_csv(tmp_path, target, n, seed, family="maxpot"):
    cfg = reference_config(tmp_path, target, family)
    out = os.path.join(tmp_path, "ref.csv")
    argv = ["reference", "--config", cfg, "--n", str(n), "--seed", str(seed), "--out", out]
    assert main(argv) == EXIT_OK
    assert not os.path.exists(os.path.join(tmp_path, "o"))
    with open(out) as fh:
        return fh.read()


def csv_text(tmp_path, draws):
    path = os.path.join(tmp_path, "direct.csv")
    draws.to_csv(path)
    with open(path) as fh:
        return fh.read()


def test_reference_mixture_csv(tmp_path):
    cfg = reference_config(tmp_path, {"kind": "mixture", "params": {"d": 2, "K": 2}})
    out = os.path.join(tmp_path, "ref.csv")
    assert main([
        "reference", "--config", cfg, "--n", "200", "--seed", "5", "--out", out,
    ]) == EXIT_OK
    from otpost.samples import SampleMatrix

    s = SampleMatrix.from_csv(out)
    assert s.data.shape == (200, 2)


def test_reference_gmm_samples_the_gmm_target(tmp_path):
    # the gmm training target's default data set (300 points)
    cfg = reference_config(tmp_path, {"kind": "gmm"}, family="gmm_meanfield")
    out = os.path.join(tmp_path, "ref.csv")
    assert main(["reference", "--config", cfg, "--n", "20", "--out", out]) == EXIT_OK
    with open(out) as fh:
        header = fh.readline().strip().split(",")
    assert sum(c.startswith("tau_") for c in header) == 300


def test_reference_two_ball_is_the_exact_sampler(tmp_path):
    from otpost.refsampler import exact_mixture_sampler
    from otpost.target import two_ball_spec

    got = reference_csv(tmp_path, {"kind": "two_ball"}, n=150, seed=7)
    assert got == csv_text(tmp_path, exact_mixture_sampler(two_ball_spec(), 150, seed=7))


def test_reference_gmm_reads_the_config_data_and_prior(tmp_path):
    from otpost.mixed import GmmPrior
    from otpost.refsampler import gibbs_gmm
    from otpost.samples import SampleMatrix

    data = np.random.default_rng(3).standard_normal((12, 2)) * 3.0
    csv = os.path.join(tmp_path, "obs.csv")
    np.savetxt(csv, data, delimiter=",", header="x0,x1", comments="")
    target = {"kind": "gmm", "csv_path": csv, "params": {"K": 2, "prior": {"prior_sd": 2.0}}}
    got = reference_csv(tmp_path, target, n=30, seed=4, family="gmm_meanfield")
    labels, means = gibbs_gmm(
        np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2),
        GmmPrior(m0=np.zeros(2), prior_sd=2.0), 2, iters=30, seed=4,
    )
    assert got == csv_text(tmp_path, SampleMatrix.mixed(labels.astype(float), means))


def test_reference_logistic_reads_the_config_csv(tmp_path):
    from otpost.refsampler import amh_logistic
    from otpost.target import LogisticPosteriorSpec

    rg = np.random.default_rng(8)
    X = rg.standard_normal((40, 2))
    y = (X[:, 0] + rg.standard_normal(40) > 0).astype(float)
    csv = os.path.join(tmp_path, "xy.csv")
    np.savetxt(csv, np.column_stack([X, y]), delimiter=",", header="a,b,y", comments="")
    got = reference_csv(tmp_path, {"kind": "logistic", "csv_path": csv}, n=50, seed=2)
    raw = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
    spec = LogisticPosteriorSpec(X=raw[:, :2], y=raw[:, 2])
    assert got == csv_text(tmp_path, amh_logistic(spec, iters=50, seed=2))


@pytest.mark.parametrize("target, family", [
    ({"kind": "std_normal"}, "affine"),
    ({"kind": "discrete_mixture", "params": {
        "weights": [0.5, 0.5], "means": [[0.0], [1.0]], "sds": [[1.0], [1.0]]}},
     "semidiscrete"),
], ids=["std_normal", "discrete_mixture"])
def test_reference_without_a_sampler_exits_2(tmp_path, capsys, target, family):
    cfg = reference_config(tmp_path, target, family)
    out = os.path.join(tmp_path, "ref.csv")
    assert main(["reference", "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert f"target.kind {target['kind']!r}" in capsys.readouterr().err
    assert not os.path.exists(out)


_DISCRETE = {"weights": [0.5, 0.5], "means": [[0.0, 0.0], [2.0, 2.0]],
             "sds": [[1.0, 1.0], [1.0, 1.0]]}


@pytest.mark.parametrize("target, family", [
    ({"kind": "discrete_mixture", "params": {**_DISCRETE, "weights": [0.5, 0.6]}},
     "semidiscrete"),
    ({"kind": "discrete_mixture", "params": {**_DISCRETE, "sds": [1.0, 0.5]}},
     "semidiscrete"),
    ({"kind": "gaussian_mixture", "params": {"weights": [1.0], "covariances": [[[1.0]]]}},
     "maxpot"),
    ({"kind": "logistic", "csv_path": "no_such_file.csv"}, "affine"),
], ids=["weights", "sds", "means", "csv_path"])
def test_train_target_that_cannot_be_built_exits_2(tmp_path, capsys, target, family):
    out = os.path.join(tmp_path, "t")
    cfg = write_config(tmp_path, {
        "target": target, "map": {"family": family},
        "train": {"max_iters": 2, "batch_size": 8}, "out_dir": out,
    })
    assert main(["train", "--config", cfg]) == EXIT_CONFIG
    assert "target" in capsys.readouterr().err
    assert not os.path.exists(out)


def exit_code(argv):
    """main's return value, or the exit code of an argparse usage error."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


@pytest.mark.parametrize("argv, named", [
    (["sample", "--map", "{map}", "--n", "-3", "--out", "{out}/s.csv"], "--n"),
    (["quantiles", "--map", "{map}", "--q", "1.5", "--out-dir", "{out}/q"], "--q"),
    (["invert", "--map", "{map}", "--theta0", "a,b", "--out", "{out}/i.json"], "--theta0"),
    (["metrics", "--metric", "w2", "--a", "{out}/missing.csv", "--b", "{out}/missing.csv",
      "--out", "{out}/m.json"], "missing.csv"),
    (["experiment", "--name", "mixture(5)", "--out-dir", "{out}/e"], "--name"),
], ids=["sample-n", "quantiles-q", "invert-theta0", "metrics-a", "experiment-name"])
def test_usage_error_exits_2_and_writes_nothing(tmp_path, trained_map, capsys, argv, named):
    out = os.path.join(tmp_path, "usage")
    os.makedirs(out)
    argv = [a.format(map=trained_map, out=out) for a in argv]
    capsys.readouterr()
    assert exit_code(argv) == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize("metric, dim_b, extra, named", [
    ("w2", 3, [], "--a"),
    ("w2eps", 3, ["--epsilon", "1.0"], "--a"),
    ("w2eps", 2, ["--epsilon", "-1"], "--epsilon"),
    ("ciratio", 3, [], "--a"),
], ids=["w2-dim", "w2eps-dim", "w2eps-epsilon", "ciratio-dim"])
def test_metrics_input_error_exits_2_and_writes_nothing(tmp_path, capsys, metric, dim_b,
                                                        extra, named):
    from otpost.samples import SampleMatrix

    rg = np.random.default_rng(0)
    a, b = os.path.join(tmp_path, "a.csv"), os.path.join(tmp_path, "b.csv")
    SampleMatrix.continuous(rg.standard_normal((20, 2))).to_csv(a)
    SampleMatrix.continuous(rg.standard_normal((20, dim_b))).to_csv(b)
    out = os.path.join(tmp_path, "m.json")
    capsys.readouterr()
    argv = ["metrics", "--metric", metric, "--a", a, "--b", b, "--out", out, *extra]
    assert exit_code(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""
    assert not os.path.exists(out)


@pytest.mark.parametrize("metric, extra", [
    ("w2", []), ("w2eps", ["--epsilon", "1.0"]), ("stdw2", []),
])
def test_metrics_non_finite_point_exits_2_and_writes_nothing(tmp_path, capsys, metric, extra):
    from otpost.samples import SampleMatrix

    rg = np.random.default_rng(0)
    a, b = os.path.join(tmp_path, "a.csv"), os.path.join(tmp_path, "b.csv")
    SampleMatrix.continuous(rg.standard_normal((20, 2))).to_csv(a)
    B = rg.standard_normal((20, 2))
    B[7, 0] = np.nan
    SampleMatrix.continuous(B).to_csv(b)
    out = os.path.join(tmp_path, "m.json")
    capsys.readouterr()
    argv = ["metrics", "--metric", metric, "--a", a, "--b", b, "--out", out, *extra]
    assert exit_code(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "cloud B has a non-finite point (row 7)" in captured.err
    assert captured.out == ""
    assert not os.path.exists(out)


@pytest.mark.parametrize("target, family", [
    ({"kind": "discrete_mixture", "params": _DISCRETE}, "maxpot"),
    ({"kind": "gmm"}, "affine"),
    ({"kind": "two_ball"}, "semidiscrete"),
    ({"kind": "std_normal"}, "gmm_meanfield"),
], ids=["maxpot-discrete_mixture", "affine-gmm", "semidiscrete-two_ball",
        "gmm_meanfield-std_normal"])
def test_train_family_that_cannot_fit_the_target_exits_2(tmp_path, capsys, target, family):
    out = os.path.join(tmp_path, "t")
    cfg = write_config(tmp_path, {
        "target": target, "map": {"family": family},
        "train": {"max_iters": 2, "batch_size": 8}, "out_dir": out,
    })
    assert main(["train", "--config", cfg]) == EXIT_CONFIG
    assert "map.family" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_unknown_experiment_exits_2(tmp_path):
    assert main([
        "experiment", "--name", "bogus", "--out-dir", str(tmp_path)
    ]) == EXIT_CONFIG


def test_maxpot_training_via_cli(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "target": {"kind": "two_ball"},
            "map": {"family": "maxpot", "L": 2, "M": 4, "seed": 2},
            "train": {
                "max_iters": 60, "learning_rate": 0.005, "batch_size": 64,
                "seed": 2,
                "sinkhorn": {"n_target_samples": 64, "init_steps": 5},
            },
            "out_dir": os.path.join(tmp_path, "mp"),
        },
    )
    assert main(["train", "--config", cfg]) == EXIT_OK
    with open(os.path.join(tmp_path, "mp", "map.json")) as fh:
        doc = json.load(fh)
    assert doc["family"] == "maxpot"
    assert doc["L"] == 2


def test_semidiscrete_training_via_cli(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "target": {
                "kind": "discrete_mixture",
                "params": {
                    "weights": [0.5, 0.5],
                    "means": [[-2.0], [2.0]],
                    "sds": [[1.0], [1.0]],
                },
            },
            "map": {"family": "semidiscrete", "M": 3, "seed": 1},
            "train": {"max_iters": 40, "learning_rate": 0.005, "batch_size": 32, "seed": 1},
            "out_dir": os.path.join(tmp_path, "sd"),
        },
    )
    assert main(["train", "--config", cfg]) == EXIT_OK
    map_path = os.path.join(tmp_path, "sd", "map.json")
    out = os.path.join(tmp_path, "sd.csv")
    assert main(["sample", "--map", map_path, "--n", "20", "--seed", "2", "--out", out]) == EXIT_OK
    from otpost.samples import SampleMatrix

    s = SampleMatrix.from_csv(out)
    assert s.columns[0] == "tau_0"


def _maxpot_doc():
    with open(os.path.join(os.path.dirname(__file__), "data", "map_v1_maxpot.json")) as fh:
        return json.load(fh)


def _bad_version(doc):
    doc["version"] = 2


def _bad_family(doc):
    doc["family"] = "bogus"


def _missing_key(doc):
    del doc["gamma_sharp"]


def _ragged_bank(doc):
    doc["locals"][0]["units"].pop()


def _mixed_activations(doc):
    doc["locals"][0]["units"][0]["activation"] = "tanh"


@pytest.mark.parametrize("corrupt, message", [
    (_bad_version, "unsupported map format version 2"),
    (_bad_family, "unknown map family 'bogus'"),
    (_missing_key, "missing key 'gamma_sharp'"),
    (_ragged_bank, "same number of units"),
    (_mixed_activations, "one activation"),
])
def test_sample_bad_map_file_exits_2(tmp_path, capsys, corrupt, message):
    doc = _maxpot_doc()
    corrupt(doc)
    path = write_config(tmp_path, doc, name="map.json")
    out = os.path.join(tmp_path, "s.csv")
    assert main(["sample", "--map", path, "--n", "5", "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert path in err and message in err
    assert not os.path.exists(out)


def test_sample_map_not_json_exits_2(tmp_path, capsys):
    path = os.path.join(tmp_path, "map.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    assert main(["sample", "--map", path, "--n", "5", "--out", os.path.join(tmp_path, "s.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert path in err and "invalid JSON" in err


def _data_doc(family):
    with open(os.path.join(os.path.dirname(__file__), "data", f"map_v1_{family}.json")) as fh:
        return json.load(fh)


def _affine_doc():
    return {"version": 1, "family": "affine", "p": 2, "m": [0.5, -1.0],
            "chol_factor": [[1.0, 0.0], [0.3, 2.0]], "n_scale": 1}


def _set(path, value):
    """A corruption that sets the entry at ``path`` (keys and indices)."""
    def corrupt(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return corrupt


_UNIT = ("units", 1)


@pytest.mark.parametrize("family, corrupt, message", [
    ("maxpot", _set(("locals", 0) + _UNIT + ("alpha", 1), float("nan")), "alpha has a non-finite entry"),
    ("maxpot", _set(("locals", 2) + _UNIT + ("v",), float("inf")), "v has a non-finite entry"),
    ("maxpot", _set(("gamma_sharp",), float("inf")), "gamma_sharp has a non-finite entry"),
    ("maxpot", _set(("p",), 7), "p is declared 7, but the arrays give 2"),
    ("maxpot", _set(("L",), 9), "L is declared 9, but the arrays give 3"),
    ("affine", _set(("m", 0), float("nan")), "m has a non-finite entry"),
    ("affine", _set(("chol_factor", 1, 0), float("-inf")), "chol_factor has a non-finite entry"),
    ("affine", _set(("p",), 3), "p is declared 3, but the arrays give 2"),
    ("semidiscrete", _set(("phis", 1) + _UNIT + ("beta", 0), float("nan")), "beta has a non-finite entry"),
    ("semidiscrete", _set(("embedding", "vectors", 0, 0), float("nan")), "embedding.vectors has a non-finite entry"),
    ("semidiscrete", _set(("kappa",), float("inf")), "kappa has a non-finite entry"),
    ("gmm_meanfield", _set(("phis", 1, 0) + _UNIT + ("w",), float("nan")), "w has a non-finite entry"),
    ("gmm_meanfield", _set(("n_obs",), 3), "n_obs is declared 3, but the arrays give 2"),
    ("gmm_meanfield", _set(("K",), 1), "K is declared 1, but the arrays give 2"),
    ("gmm_meanfield", _set(("d",), 2), "d is declared 2, but the potentials act on R^2"),
])
def test_sample_map_with_non_finite_or_misdeclared_field_exits_2(tmp_path, capsys, family, corrupt, message):
    doc = _affine_doc() if family == "affine" else _data_doc(family)
    corrupt(doc)
    path = write_config(tmp_path, doc, name="map.json")
    out = os.path.join(tmp_path, "s.csv")
    assert main(["sample", "--map", path, "--n", "5", "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert path in err and message in err
    assert not os.path.exists(out)


def test_sample_valid_affine_map_file_loads(tmp_path):
    path = write_config(tmp_path, _affine_doc(), name="map.json")
    out = os.path.join(tmp_path, "s.csv")
    assert main(["sample", "--map", path, "--n", "5", "--out", out]) == EXIT_OK
    assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("theta0", ["nan,0", "inf,0", "0,-inf"])
def test_invert_non_finite_theta0_exits_2(tmp_path, capsys, theta0):
    path = write_config(tmp_path, _data_doc("maxpot"), name="map.json")
    out = os.path.join(tmp_path, "inv.json")
    assert main(["invert", "--map", path, "--theta0", theta0, "--out", out]) == EXIT_CONFIG
    assert "--theta0" in capsys.readouterr().err
    assert not os.path.exists(out)
