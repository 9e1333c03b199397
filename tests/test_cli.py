"""End-to-end command line pipeline through in-process main() calls."""

import contextlib
import io
import json
import os
import shutil
import sys
import warnings

import numpy as np
import pytest

import hgcml.cli as cli
from hgcml.config import load_config, parse_config, to_dict
from hgcml.io import read_matrix, write_matrix


def main(argv):
    """cli.main with its progress prints swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)

QUICK_SECTIONS = {
    "positives": {"k_t": 3, "k_s": 3},
    "train": {"dim": 8, "lr": 1e-2, "max_epochs": 15, "patience": 5},
    "eval": {"probe_runs": 3, "cluster_runs": 3},
}


def make_workspace(root, seed=0):
    """Small planted dataset plus a quick-settings run config."""
    data_dir = os.path.join(root, "data")
    synth_cfg = os.path.join(root, "synth.json")
    with open(synth_cfg, "w", encoding="utf-8") as fh:
        json.dump({"blocks": 3, "block_size": 10, "metapaths": 2,
                   "seed": seed}, fh)
    assert main(["synth", "--config", synth_cfg, "--out", data_dir]) == 0
    with open(os.path.join(data_dir, "config.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw.update(QUICK_SECTIONS)
    run_cfg = os.path.join(data_dir, "run.json")
    with open(run_cfg, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=2)
    return data_dir, run_cfg


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("cliws"))
    data_dir, run_cfg = make_workspace(root)
    out = os.path.join(root, "out")
    for command in ("prepare", "positives", "train", "embed", "eval"):
        assert main([command, "--config", run_cfg, "--out", out]) == 0
    return {"root": root, "data": data_dir, "config": run_cfg, "out": out}


def test_synth_default_dataset(tmp_path):
    out = str(tmp_path / "synthetic")
    assert main(["synth", "--out", out]) == 0
    nodes = (tmp_path / "synthetic" / "nodes.tsv").read_text().splitlines()
    entities = [ln for ln in nodes if ln.endswith("\tentity")]
    assert len(entities) == 90
    assert len(nodes) > 90  # bridge nodes follow the entities
    labels = (tmp_path / "synthetic" / "labels.tsv").read_text().splitlines()
    assert len(labels) == 90
    cfg = load_config(os.path.join(out, "config.json"))
    assert [m.name for m in cfg.metapaths] == ["meta0", "meta1"]
    assert read_matrix(os.path.join(out, "features.bin")).shape == (90, 16)


def test_synth_seed_flag(tmp_path):
    out = str(tmp_path / "s7")
    cfg_path = str(tmp_path / "synth.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump({"blocks": 2, "block_size": 4}, fh)
    assert main(["synth", "--config", cfg_path, "--seed", "7", "--out", out]) == 0
    with open(os.path.join(out, "config.json"), encoding="utf-8") as fh:
        assert json.load(fh)["seed"] == 7


def test_prepare_outputs(pipeline):
    out = pipeline["out"]
    summary = open(os.path.join(out, "views.tsv"), encoding="utf-8").read().splitlines()
    assert summary[0] == "view\tnodes\tedges"
    assert len(summary) == 3
    for line in summary[1:]:
        name, nodes, edges = line.split("\t")
        assert name in ("meta0", "meta1")
        assert int(nodes) == 30
        assert int(edges) > 0
    for name in ("meta0", "meta1"):
        rows = open(os.path.join(out, f"view_{name}.tsv"), encoding="utf-8").read().splitlines()
        pairs = [tuple(map(int, r.split("\t"))) for r in rows]
        assert all(i < j for i, j in pairs)
        assert pairs == sorted(pairs)


def test_prepare_rerun_identical(pipeline, tmp_path):
    out2 = str(tmp_path / "again")
    assert main(["prepare", "--config", pipeline["config"], "--out", out2]) == 0
    for name in ("views.tsv", "view_meta0.tsv", "view_meta1.tsv"):
        first = open(os.path.join(pipeline["out"], name), "rb").read()
        second = open(os.path.join(out2, name), "rb").read()
        assert first == second


def test_positives_file_contents(pipeline):
    lines = open(os.path.join(pipeline["out"], "positives.tsv"),
                 encoding="utf-8").read().splitlines()
    assert len(lines) == 30
    for u, line in enumerate(lines):
        anchor, members = line.split("\t")
        assert int(anchor) == u
        ids = [int(v) for v in members.split(",")]
        assert u in ids
        assert ids == sorted(ids)
        assert 1 <= len(ids) <= 7  # anchor plus at most k_t + k_s
        assert all(0 <= v < 30 for v in ids)


def test_positives_rerun_byte_identical(pipeline, tmp_path):
    out2 = str(tmp_path / "p2")
    assert main(["positives", "--config", pipeline["config"], "--out", out2]) == 0
    first = open(os.path.join(pipeline["out"], "positives.tsv"), "rb").read()
    second = open(os.path.join(out2, "positives.tsv"), "rb").read()
    assert first == second


def test_positives_k_zero_anchor_only(pipeline, tmp_path):
    raw = json.load(open(pipeline["config"], encoding="utf-8"))
    raw["positives"] = {"k_t": 0, "k_s": 0}
    cfg2 = os.path.join(pipeline["data"], "run_k0.json")
    with open(cfg2, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    out2 = str(tmp_path / "k0")
    assert main(["positives", "--config", cfg2, "--out", out2]) == 0
    lines = open(os.path.join(out2, "positives.tsv"), encoding="utf-8").read().splitlines()
    assert lines == [f"{u}\t{u}" for u in range(30)]


def test_train_artifacts(pipeline):
    out = pipeline["out"]
    trace = open(os.path.join(out, "trace.tsv"), encoding="utf-8").read().splitlines()
    assert 1 <= len(trace) <= 15
    losses = []
    for epoch, line in enumerate(trace):
        e, loss = line.split("\t")
        assert int(e) == epoch
        losses.append(float(loss))
    assert all(np.isfinite(losses))
    checkpointed = read_matrix(os.path.join(out, "embeddings.bin"))
    assert checkpointed.shape == (30, 8)  # fusion=sum keeps train dim


def test_eval_report(pipeline):
    rows = open(os.path.join(pipeline["out"], "report.tsv"),
                encoding="utf-8").read().splitlines()
    parsed = {r.split("\t")[0]: r.split("\t") for r in rows}
    assert set(parsed) == {"micro_f1", "nmi"}
    for metric, mean, std, runs in parsed.values():
        assert 0.0 <= float(mean) <= 1.0
        assert float(std) >= 0.0
        assert int(runs) == 3


def test_train_without_positives_exits_2(pipeline, tmp_path, capsys):
    out2 = str(tmp_path / "empty")
    assert main(["train", "--config", pipeline["config"], "--out", out2]) == 2
    assert "positives" in capsys.readouterr().err


def test_train_with_repeated_positives_anchor_exits_2(pipeline, tmp_path,
                                                     capsys):
    out2 = str(tmp_path / "repeated")
    os.makedirs(out2)
    with open(os.path.join(pipeline["out"], "positives.tsv"),
              encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(os.path.join(out2, "positives.tsv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines + ["0\t0"]) + "\n")
    assert main(["train", "--config", pipeline["config"], "--out", out2]) == 2
    assert "anchor 0 repeated" in capsys.readouterr().err


def test_missing_config_flag_exits_3(capsys):
    assert main(["prepare"]) == 3
    assert "ConfigError" in capsys.readouterr().err


def test_unknown_config_key_exits_3(pipeline, tmp_path, capsys):
    raw = json.load(open(pipeline["config"], encoding="utf-8"))
    raw["trian"] = {}
    bad = str(tmp_path / "bad.json")
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    assert main(["prepare", "--config", bad, "--out", str(tmp_path / "o")]) == 3
    assert "trian" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, key, value", [
    ("train", "train", "dim", 8.5),
    ("train", "train", "max_epochs", 2.5),
    ("positives", "positives", "k_t", 2.5),
    ("eval", "eval", "probe_runs", 2.5),
    ("train", "train", "share_encoder", "no"),
    ("train", "augment", "resample_every_epoch", "false"),
    ("train", "train", "patience", True),
    ("train", "train", "lr", "0.01"),
    ("prepare", "data", "nodes", 5),
    ("prepare", "data", "edges", 5),
    ("prepare", "data", "features", 5),
    ("eval", "data", "labels", 5),
    ("prepare", None, "out", 5),
])
def test_wrongly_typed_config_value_exits_3(pipeline, tmp_path, capsys,
                                            command, section, key, value):
    raw = json.load(open(pipeline["config"], encoding="utf-8"))
    if section is None:
        raw[key] = value
    else:
        raw[section] = dict(raw.get(section, {}), **{key: value})
    bad = os.path.join(pipeline["data"], "run_typed.json")
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    out2 = str(tmp_path / "typed")
    shutil.copytree(pipeline["out"], out2)  # every stage finds its inputs
    assert main([command, "--config", bad, "--out", out2]) == 3
    err = capsys.readouterr().err
    assert "ConfigError" in err and key in err


@pytest.mark.parametrize("path, value, key", [
    pytest.param(("metapaths", 0, "relations"), "via0", "metapaths[].relations",
                 id="metapath-relations-string"),
    pytest.param(("metapaths", 0, "relations"), ["via0", 3],
                 "metapaths[].relations[]", id="metapath-relation-number"),
    pytest.param(("metapaths", 0, "name"), 3, "metapaths[].name",
                 id="metapath-name-number"),
    pytest.param(("metapaths",), "meta0", "metapaths", id="metapaths-string"),
    pytest.param(("schema", "types"), "entity", "schema.types",
                 id="types-string"),
    pytest.param(("schema", "types"), ["entity", 1, "bridge1"], "schema.types[]",
                 id="type-number"),
    pytest.param(("schema", "relations"), "via0", "schema.relations",
                 id="relations-string"),
    pytest.param(("schema", "target_type"), 1, "schema.target_type",
                 id="target-type-number"),
    pytest.param(("schema", "relations", 0, "name"), None,
                 "schema.relations[].name", id="relation-name-null"),
    pytest.param(("schema", "relations", 0, "src"), 1, "schema.relations[].src",
                 id="relation-src-number"),
    pytest.param(("schema", "relations", 0, "dst"), ["bridge0"],
                 "schema.relations[].dst", id="relation-dst-array"),
])
def test_schema_value_of_wrong_shape_exits_3(pipeline, tmp_path, capsys,
                                             path, value, key):
    raw = json.load(open(pipeline["config"], encoding="utf-8"))
    *outer, last = path
    target = raw
    for part in outer:
        target = target[part]
    target[last] = value
    bad = os.path.join(pipeline["data"], "run_shape.json")
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    out = tmp_path / "shape"
    assert main(["prepare", "--config", bad, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "ConfigError" in err and f"{key} must be" in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("path, key, section", [
    pytest.param(("data",), "data", "<top>", id="data"),
    pytest.param(("schema", "types"), "types", "schema", id="schema-types"),
    pytest.param(("metapaths", 0, "relations"), "relations", "metapaths[]",
                 id="metapath-relations"),
    pytest.param(("schema", "relations", 0, "dst"), "dst", "schema.relations[]",
                 id="relation-dst"),
])
def test_missing_config_key_exits_3(pipeline, tmp_path, capsys,
                                    path, key, section):
    raw = json.load(open(pipeline["config"], encoding="utf-8"))
    *outer, last = path
    target = raw
    for part in outer:
        target = target[part]
    del target[last]
    bad = os.path.join(pipeline["data"], "run_missing.json")
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    out = tmp_path / "missing"
    assert main(["prepare", "--config", bad, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"ConfigError: missing key {key!r} in section {section!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["", "a/b", "a\u0000b"],
                         ids=["empty", "slash", "nul"])
def test_metapath_name_unusable_in_file_name_exits_3(pipeline, tmp_path,
                                                     capsys, name):
    raw = json.load(open(pipeline["config"], encoding="utf-8"))
    raw["metapaths"][0]["name"] = name
    bad = os.path.join(pipeline["data"], "run_name.json")
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    out = tmp_path / "named"
    out.mkdir()
    assert main(["prepare", "--config", bad, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "ConfigError: metapaths[].name must be" in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("key, value", [
    ("blocks", 2.5), ("feature_dim", 3.0), ("blocks", True), ("seed", 1.5),
])
def test_wrongly_typed_synth_config_exits_3(tmp_path, capsys, key, value):
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    out = tmp_path / "synthetic"
    assert main(["synth", "--config", str(synth_cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"ConfigError: synth.{key} must be" in err
    assert not out.exists()


def test_console_entry_exits_with_main_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["hgcml", "synth", "--out",
                                      str(tmp_path / "synthetic")])
    with pytest.raises(SystemExit) as exited:
        cli.entry()
    assert exited.value.code == 0
    assert (tmp_path / "synthetic" / "config.json").exists()
    monkeypatch.setattr(sys, "argv", ["hgcml", "prepare"])
    with pytest.raises(SystemExit) as exited:
        cli.entry()
    assert exited.value.code == 3
    assert "--config is required" in capsys.readouterr().err


def test_bad_tau_exits_3(pipeline, tmp_path, capsys):
    raw = json.load(open(pipeline["config"], encoding="utf-8"))
    raw["train"] = dict(raw["train"], tau=0.0)
    bad = str(tmp_path / "tau.json")
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    assert main(["train", "--config", bad, "--out", str(tmp_path / "o")]) == 3
    assert "tau" in capsys.readouterr().err.lower()


def test_missing_features_exits_2(tmp_path, capsys):
    data_dir, run_cfg = make_workspace(str(tmp_path))
    os.remove(os.path.join(data_dir, "features.bin"))
    assert main(["prepare", "--config", run_cfg, "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_without_labels_exits_2(pipeline, tmp_path, capsys):
    raw = json.load(open(pipeline["config"], encoding="utf-8"))
    del raw["data"]["labels"]
    cfg2 = os.path.join(pipeline["data"], "run_nolabels.json")
    with open(cfg2, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    assert main(["eval", "--config", cfg2, "--out", pipeline["out"]]) == 2
    assert "label" in capsys.readouterr().err


def test_diverged_train_exits_4(pipeline, tmp_path, capsys):
    raw = json.load(open(pipeline["config"], encoding="utf-8"))
    raw["train"] = dict(raw["train"], lr=1e155, max_epochs=10)
    cfg2 = os.path.join(pipeline["data"], "run_diverge.json")
    with open(cfg2, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    out2 = str(tmp_path / "div")
    assert main(["positives", "--config", cfg2, "--out", out2]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["train", "--config", cfg2, "--out", out2]) == 4
    assert "DivergedLoss" in capsys.readouterr().err
    assert os.path.exists(os.path.join(out2, "model.bin"))
    assert os.path.exists(os.path.join(out2, "trace.tsv"))
    # the kept checkpoint is still usable downstream
    assert main(["embed", "--config", cfg2, "--out", out2]) == 0
    emb = read_matrix(os.path.join(out2, "embeddings.bin"))
    assert emb.shape == (30, 8)
    assert np.isfinite(emb).all()


def test_embed_with_mismatched_checkpoint_exits_2(pipeline, tmp_path, capsys):
    raw = json.load(open(pipeline["config"], encoding="utf-8"))
    raw["metapaths"][1]["name"] = "other"
    renamed = os.path.join(pipeline["data"], "run_renamed.json")
    with open(renamed, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    out2 = str(tmp_path / "renamed")
    os.makedirs(out2)
    shutil.copy(os.path.join(pipeline["out"], "model.bin"), out2)
    assert main(["embed", "--config", renamed, "--out", out2]) == 2
    assert "missing tensors: ['enc.other.W']" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out2, "embeddings.bin"))


def test_seed_override_changes_training(pipeline, tmp_path):
    out2 = str(tmp_path / "seeded")
    assert main(["positives", "--config", pipeline["config"], "--out", out2]) == 0
    assert main(["train", "--config", pipeline["config"], "--seed", "1",
                 "--out", out2]) == 0
    base = open(os.path.join(pipeline["out"], "trace.tsv"), "rb").read()
    other = open(os.path.join(out2, "trace.tsv"), "rb").read()
    assert base != other


def test_config_out_key_used_without_flag(tmp_path):
    data_dir, run_cfg = make_workspace(str(tmp_path))
    raw = json.load(open(run_cfg, encoding="utf-8"))
    raw["out"] = "fromcfg"
    with open(run_cfg, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    assert main(["prepare", "--config", run_cfg]) == 0
    assert os.path.exists(os.path.join(data_dir, "fromcfg", "views.tsv"))


def test_eval_one_hot_embeddings(pipeline, tmp_path):
    out2 = str(tmp_path / "onehot")
    os.makedirs(out2)
    labels = np.repeat(np.arange(3), 10)
    onehot = np.zeros((30, 3))
    onehot[np.arange(30), labels] = 1.0
    write_matrix(os.path.join(out2, "embeddings.bin"), onehot)
    assert main(["eval", "--config", pipeline["config"], "--out", out2]) == 0
    rows = open(os.path.join(out2, "report.tsv"), encoding="utf-8").read().splitlines()
    assert rows[0] == "micro_f1\t1.000000\t0.000000\t3"
    assert rows[1].startswith("nmi\t1.000000\t0.000000")


def test_config_round_trip(pipeline):
    cfg = load_config(pipeline["config"])
    emitted = to_dict(cfg)
    again = to_dict(parse_config(emitted, base_dir=cfg.base_dir))
    assert emitted == again


def test_thread_cap_env(monkeypatch):
    vars_ = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    for var in vars_:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("HGCML_THREADS", "2")
    monkeypatch.setenv("OMP_NUM_THREADS", "8")  # explicit settings win
    cli._cap_threads()
    assert os.environ["OMP_NUM_THREADS"] == "8"
    for var in vars_[1:]:
        assert os.environ[var] == "2"
