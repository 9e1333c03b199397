"""End-to-end command line pipeline through in-process main() calls."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

import hgcml.cli as cli
import hgcml.hin as hin_module
from conftest import append_tensor, code_objects, load_pipebench
from hgcml.config import load_config, parse_config, to_dict
from hgcml.io import (read_checkpoint, read_matrix, write_checkpoint,
                       write_matrix)
from hgcml.positives import DENSE_ABOVE


def main(argv):
    """cli.main with its progress prints swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)

QUICK_SECTIONS = {
    "positives": {"k_t": 3, "k_s": 3},
    "train": {"dim": 8, "lr": 1e-2, "max_epochs": 15, "patience": 5},
    "eval": {"probe_runs": 3, "cluster_runs": 3},
}


def make_workspace(root, seed=0, **synth):
    """Small planted dataset plus a quick-settings run config; `synth`
    overrides the dataset's `synth` keys."""
    data_dir = os.path.join(root, "data")
    synth_cfg = os.path.join(root, "synth.json")
    with open(synth_cfg, "w", encoding="utf-8") as fh:
        json.dump({"blocks": 3, "block_size": 10, "metapaths": 2,
                   "seed": seed, **synth}, fh)
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


def test_positives_drops_ppr_totals_before_the_semantic_channel(
        pipeline, tmp_path, monkeypatch):
    totals, alive = [], []
    ppr_matrix, semantic_similarity = cli.ppr_matrix, cli.semantic_similarity

    def tracked_ppr(*args, **kwargs):
        diffusion = ppr_matrix(*args, **kwargs)
        totals.append(weakref.ref(diffusion.values))
        return diffusion

    def checked_semantic(features):
        alive.extend(ref() is not None for ref in totals)
        return semantic_similarity(features)

    monkeypatch.setattr(cli, "ppr_matrix", tracked_ppr)
    monkeypatch.setattr(cli, "semantic_similarity", checked_semantic)
    out = str(tmp_path / "out")
    assert main(["positives", "--config", pipeline["config"], "--out", out]) == 0
    assert alive == [False, False]
    with open(os.path.join(out, "positives.tsv"), "rb") as a, \
            open(os.path.join(pipeline["out"], "positives.tsv"), "rb") as b:
        assert a.read() == b.read()


def test_positives_streams_the_view_sum(pipeline, tmp_path, monkeypatch):
    """Each view's series starts only after the previous view's total has
    been added to the sum and let go."""
    totals, alive = [], []
    ppr_matrix = cli.ppr_matrix

    def tracked_ppr(*args, **kwargs):
        alive.append([ref() is not None for ref in totals])
        diffusion = ppr_matrix(*args, **kwargs)
        totals.append(weakref.ref(diffusion.values))
        return diffusion

    monkeypatch.setattr(cli, "ppr_matrix", tracked_ppr)
    out = str(tmp_path / "out")
    assert main(["positives", "--config", pipeline["config"], "--out", out]) == 0
    assert alive == [[], [False]]
    with open(os.path.join(out, "positives.tsv"), "rb") as a, \
            open(os.path.join(pipeline["out"], "positives.tsv"), "rb") as b:
        assert a.read() == b.read()


SCIPY_PROBE = """\
import contextlib, io, json, sys
def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from hgcml.cli import main
print(json.dumps(scipy_loaded()))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    print(json.dumps(scipy_loaded()))
"""


def probe_scipy(*argvs):
    """The scipy modules loaded in a fresh process once it has imported the
    CLI, and again after each `main(argv)` of `argvs`."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(argvs)],
        env=env, capture_output=True, text=True, check=True)
    return [json.loads(line) for line in result.stdout.splitlines()]


def test_cli_import_leaves_scipy_spatial_unloaded(pipeline, tmp_path):
    """No stage needs scipy.spatial, so none pays its import cost: neither
    importing the CLI nor running `prepare` and `positives` loads it."""
    out = tmp_path / "stages"
    loaded = probe_scipy(
        *([stage, "--config", pipeline["config"], "--out", str(out)]
          for stage in ("prepare", "positives")))
    assert len(loaded) == 3
    assert not any("scipy.spatial" in modules for modules in loaded)
    assert (out / "positives.tsv").read_bytes() == open(
        os.path.join(pipeline["out"], "positives.tsv"), "rb").read()


def test_synth_and_cached_eval_leave_scipy_unloaded(pipeline, tmp_path):
    """`synth` never calls scipy and `eval` needs only the labels, which a
    valid graph cache holds: importing the CLI, then running both, loads
    no scipy module. `eval` without the cache parses the dataset and
    writes the same report."""
    cached, parsed = tmp_path / "cached", tmp_path / "parsed"
    for run in (cached, parsed):
        run.mkdir()
        shutil.copy(os.path.join(pipeline["out"], "embeddings.bin"), run)
    shutil.copy(os.path.join(pipeline["out"], cli.GRAPH_CACHE), cached)
    assert probe_scipy(
        ["synth", "--out", str(tmp_path / "synth")],
        ["eval", "--config", pipeline["config"], "--out", str(cached)],
    ) == [[]] * 3
    assert main(["eval", "--config", pipeline["config"], "--out", str(parsed)]) == 0
    report = open(os.path.join(pipeline["out"], "report.tsv"), "rb").read()
    for run in (cached, parsed):
        assert (run / "report.tsv").read_bytes() == report


def dense_transitions(out):
    """Per view in the run's graph cache, whether its transition holds more
    than n*n/DENSE_ABOVE nonzeros: one per edge each way and one per
    isolated node."""
    tensors = read_checkpoint(out / cli.GRAPH_CACHE)
    n = tensors["features"].shape[0]
    sides = []
    for name, edges in tensors.items():
        if name.startswith("view."):
            isolated = n - np.unique(edges).size
            sides.append((2 * edges.shape[1] + isolated) * DENSE_ABOVE > n * n)
    return sides


def test_positives_imports_scipy_only_for_a_sparse_series(pipeline, tmp_path):
    """The PPR transition of a view denser than 1/DENSE_ABOVE is built in
    numpy: `positives` on the cached, dense-view run loads no scipy
    module. A sparser view's series runs on a CSR and loads scipy.sparse.
    Either way the file equals the in-process run's."""
    dense = tmp_path / "dense"
    dense.mkdir()
    shutil.copy(os.path.join(pipeline["out"], cli.GRAPH_CACHE), dense)
    assert dense_transitions(dense) == [True, True]
    assert probe_scipy(
        ["positives", "--config", pipeline["config"], "--out", str(dense)],
    ) == [[]] * 2
    assert (dense / "positives.tsv").read_bytes() == open(
        os.path.join(pipeline["out"], "positives.tsv"), "rb").read()

    _, run_cfg = make_workspace(str(tmp_path), block_size=40, p_intra=0.05,
                                p_inter=0.005)
    cached, fresh = tmp_path / "cached", tmp_path / "fresh"
    assert main(["prepare", "--config", run_cfg, "--out", str(cached)]) == 0
    assert dense_transitions(cached) == [False, False]
    loaded = probe_scipy(["positives", "--config", run_cfg, "--out", str(cached)])
    assert loaded[0] == [] and "scipy.sparse" in loaded[1]
    assert main(["positives", "--config", run_cfg, "--out", str(fresh)]) == 0
    assert ((cached / "positives.tsv").read_bytes()
            == (fresh / "positives.tsv").read_bytes())


def site_names(module):
    """Every global name the module's functions and methods look up."""
    return {name for _, code in code_objects(module) for name in code.co_names}


def test_tracer_patch_sites_resolve():
    """Every site the benchmark's tracer patches is an attribute of its
    hgcml module or class and holds a function of the layer's module under
    its own name, not a wrapper left behind. A site that imports the
    function into another module must be a name that module's code looks
    up at call time, so that wrapping it intercepts the calls."""
    tracing = load_pipebench("tracing")
    sites = [(layer.name, site) for layer in tracing.LAYERS for site in layer.sites]
    sites += [(None, tracing.EPOCH_START), (None, tracing.TRAIN_END)]
    for name, site in sites:
        owner, attr = tracing._resolve(site)
        assert attr in vars(owner), site
        target = vars(owner)[attr]
        assert callable(target), site
        assert target.__name__ == attr, site
        if name is not None:
            assert target.__module__ == f"hgcml.{name.split('.')[0]}", site
        if "." not in site[1] and target.__module__ != owner.__name__:
            assert attr in site_names(owner), site


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


def test_train_with_repeated_id_in_a_positive_set_exits_2(pipeline, tmp_path,
                                                          capsys):
    out2 = tmp_path / "dup"
    out2.mkdir()
    with open(os.path.join(pipeline["out"], "positives.tsv"),
              encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[1] = "1\t0,1,1"
    path = out2 / "positives.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["train", "--config", pipeline["config"], "--out", str(out2)]) == 2
    assert f"MalformedRecord: {path}:2: id 1 repeated" in capsys.readouterr().err
    assert not (out2 / "model.bin").exists()


def test_train_with_an_id_outside_int64_exits_2(pipeline, tmp_path, capsys):
    out2 = tmp_path / "int64"
    out2.mkdir()
    with open(os.path.join(pipeline["out"], "positives.tsv"),
              encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[1] += ",99999999999999999999"
    path = out2 / "positives.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["train", "--config", pipeline["config"], "--out", str(out2)]) == 2
    assert (f"MalformedRecord: {path}:2: id outside int64"
            in capsys.readouterr().err)
    assert not (out2 / "model.bin").exists()


@pytest.mark.parametrize("line, message", [
    ("{node}\t2", "node {node!r} repeated"),
    ("{node}\t99999999999999999999", "class id outside int64"),
    ("{node}\t-7", "class id '-7' is not ASCII digits")],
    ids=["repeated", "int64", "negative"])
def test_bad_labels_line_exits_2_naming_it(pipeline, tmp_path, capsys, line,
                                           message):
    """A second label for a node, a class id past int64 and a negative one
    are faults of their line, whichever class the node had."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    node = (data / "labels.tsv").read_text(encoding="utf-8").split("\t")[0]
    with open(data / "labels.tsv", "a", encoding="utf-8") as fh:
        fh.write(line.format(node=node) + "\n")
    number = len((data / "labels.tsv").read_bytes().splitlines())
    out = tmp_path / "o"
    run_cfg = str(data / os.path.basename(pipeline["config"]))
    assert main(["prepare", "--config", run_cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert (f"MalformedRecord: {data / 'labels.tsv'}:{number}: "
            f"{message.format(node=node)}") in err
    assert not out.exists()


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


@pytest.mark.parametrize("name, problem", [
    ("", "non-empty"), ("a/b", "no path separator"),
    ("a\u0000b", "no path separator"),
    # each would split a row of views.tsv
    ("a\tb", "tab, CR or LF"), ("a\rb", "tab, CR or LF"),
    ("c\nd", "tab, CR or LF"),
    # too long for `view_<name>.tsv.<pid>.tmp` to be a file name
    ("m" * 300, "at most 200 bytes of UTF-8, got 300"),
    ("\u00e9" * 101, "at most 200 bytes of UTF-8, got 202"),
    # JSON "\\ud800" reads as a lone surrogate, which has no UTF-8 encoding
    ("a\ud800", "valid UTF-8 text"),
], ids=["empty", "slash", "nul", "tab", "cr", "lf", "300-bytes",
        "202-bytes-in-101-chars", "lone-surrogate"])
def test_metapath_name_unusable_in_file_name_exits_3(pipeline, tmp_path,
                                                     capsys, name, problem):
    raw = json.load(open(pipeline["config"], encoding="utf-8"))
    raw["metapaths"][0]["name"] = name
    bad = os.path.join(pipeline["data"], "run_name.json")
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    out = tmp_path / "named"
    out.mkdir()
    assert main(["prepare", "--config", bad, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "ConfigError: metapaths[].name must be" in err and problem in err
    assert not any(out.iterdir())


def test_metapath_name_of_the_longest_length_is_written(pipeline, tmp_path):
    raw = json.load(open(pipeline["config"], encoding="utf-8"))
    name = "a" * 200
    raw["metapaths"][0]["name"] = name
    longest = os.path.join(pipeline["data"], "run_longest_name.json")
    with open(longest, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    out = tmp_path / "named"
    assert main(["prepare", "--config", longest, "--out", str(out)]) == 0
    assert (out / f"view_{name}.tsv").exists()


def test_config_without_a_metapath_exits_3(pipeline, tmp_path, capsys):
    raw = json.load(open(pipeline["config"], encoding="utf-8"))
    raw["metapaths"] = []
    bad = str(tmp_path / "no_metapath.json")
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    out = tmp_path / "o"
    assert main(["train", "--config", bad, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "ConfigError: at least one metapath is required" in err
    assert not out.exists()


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


@pytest.mark.parametrize("key, value", [
    ("local", float("nan")), ("local", -1.0), ("global", float("inf")),
    ("global", -0.5),
], ids=["local-nan", "local-negative", "global-inf", "global-negative"])
def test_bad_loss_weight_exits_3(pipeline, tmp_path, capsys, key, value):
    raw = json.load(open(pipeline["config"], encoding="utf-8"))
    raw["train"] = dict(raw["train"], loss_weights={key: value})
    bad = str(tmp_path / "weights.json")
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)  # writes NaN and Infinity as bare literals
    out = tmp_path / "o"
    assert main(["train", "--config", bad, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "ConfigError" in err and f"loss_weights.{key}" in err
    assert not (out / "model.bin").exists()


@pytest.mark.parametrize("command, section, key, literal", [
    ("train", "train", "tau", "Infinity"),
    ("positives", "positives", "tol", "Infinity"),
    ("train", "augment", "p_e", "NaN"),
    ("synth", None, "p_intra", "-Infinity"),
])
def test_non_finite_json_literal_exits_3(pipeline, tmp_path, capsys,
                                         command, section, key, literal):
    if section is None:  # a synth config
        text = f'{{"blocks": 2, "{key}": {literal}}}'
    else:
        raw = json.load(open(pipeline["config"], encoding="utf-8"))
        raw[section] = dict(raw.get(section, {}), **{key: "@"})
        text = json.dumps(raw).replace('"@"', literal)
    bad = tmp_path / "nonfinite.json"
    bad.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    assert main([command, "--config", str(bad), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    where = f"{section}.{key}" if section else key
    assert f"ConfigError: {bad}: {where} is {literal}" in err
    assert not out.exists()


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


@pytest.mark.parametrize("fault", ["truncated-header", "repeated-tensor"])
def test_embed_with_a_corrupt_checkpoint_exits_2(pipeline, tmp_path, capsys,
                                                 fault):
    out2 = tmp_path / "corrupt"
    out2.mkdir()
    path = os.path.join(pipeline["out"], "model.bin")
    blob = open(path, "rb").read()
    if fault == "truncated-header":  # the magic and one byte of the count
        blob, message = blob[:5], "truncated header"
    else:
        name, tensor = next(iter(read_checkpoint(path).items()))
        blob, message = append_tensor(blob, name, tensor), "repeated"
    (out2 / "model.bin").write_bytes(blob)
    assert main(["embed", "--config", pipeline["config"], "--out", str(out2)]) == 2
    err = capsys.readouterr().err
    assert "FormatError" in err and message in err
    assert not (out2 / "embeddings.bin").exists()


@pytest.mark.parametrize("change", ["feature-columns", "encoder-width"])
def test_embed_with_misfitting_checkpoint_exits_2(pipeline, tmp_path, capsys,
                                                  change):
    data = str(tmp_path / "data")
    shutil.copytree(pipeline["data"], data)
    out2 = str(tmp_path / "misfit")
    os.makedirs(out2)
    checkpoint = read_checkpoint(os.path.join(pipeline["out"], "model.bin"))
    if change == "feature-columns":  # the checkpoint was trained on 16 columns
        write_matrix(os.path.join(data, "features.bin"), np.ones((30, 20)))
        tensor, shape, expected = "enc.meta0.W", (16, 8), (20, 8)
    else:
        checkpoint["enc.meta1.W"] = checkpoint["enc.meta1.W"][:, :4]
        tensor, shape, expected = "enc.meta1.W", (16, 4), (16, 8)
    write_checkpoint(os.path.join(out2, "model.bin"), checkpoint)
    run_cfg = os.path.join(data, os.path.basename(pipeline["config"]))
    assert main(["embed", "--config", run_cfg, "--out", out2]) == 2
    assert (f"FormatError: checkpoint tensor '{tensor}' has shape {shape}, "
            f"expected {expected}") in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out2, "embeddings.bin"))


@pytest.mark.parametrize("name", ["nodes.tsv", "edges.tsv", "labels.tsv"])
def test_invalid_utf8_in_data_file_exits_2(pipeline, tmp_path, capsys, name):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    line = len((data / name).read_bytes().splitlines()) + 1
    with open(data / name, "ab") as fh:
        fh.write(b"\xff\n")
    out = tmp_path / "o"
    run_cfg = str(data / os.path.basename(pipeline["config"]))
    assert main(["prepare", "--config", run_cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"MalformedRecord: {data / name}:{line}: not UTF-8 text" in err
    assert not out.exists()


def test_invalid_utf8_in_positives_file_exits_2(pipeline, tmp_path, capsys):
    out2 = tmp_path / "o"
    out2.mkdir()
    blob = open(os.path.join(pipeline["out"], "positives.tsv"), "rb").read()
    (out2 / "positives.tsv").write_bytes(blob + b"\xff\n")
    assert main(["train", "--config", pipeline["config"], "--out", str(out2)]) == 2
    err = capsys.readouterr().err
    line = len(blob.splitlines()) + 1
    assert (f"MalformedRecord: {out2 / 'positives.tsv'}:{line}: "
            "not UTF-8 text") in err
    assert not (out2 / "model.bin").exists()


@pytest.mark.parametrize("command", ["prepare", "synth"])
def test_invalid_utf8_in_config_exits_3(pipeline, tmp_path, capsys, command):
    source = pipeline["config"] if command == "prepare" else None
    text = (open(source, "rb").read() if source
            else json.dumps({"blocks": 2}).encode("utf-8"))
    bad = tmp_path / "config.json"
    bad.write_bytes(text + b"\xff")
    out = tmp_path / "o"
    assert main([command, "--config", str(bad), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"ConfigError: {bad}: invalid JSON" in err
    assert "can't decode byte 0xff" in err
    assert not out.exists()


@pytest.mark.parametrize("where", ["flag", "flag-below-file", "config-key",
                                   "synth"])
def test_out_at_a_file_exits_3(pipeline, tmp_path, capsys, where):
    blocker = tmp_path / "taken"
    blocker.write_text("keep me\n", encoding="utf-8")
    out = str(blocker / "run") if where == "flag-below-file" else str(blocker)
    argv = ["prepare", "--config", pipeline["config"], "--out", out]
    if where == "config-key":
        raw = json.load(open(pipeline["config"], encoding="utf-8"))
        raw["out"] = out
        argv = ["prepare", "--config",
                os.path.join(pipeline["data"], "run_out_file.json")]
        with open(argv[-1], "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
    elif where == "synth":
        argv = ["synth", "--out", out]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"ConfigError: output directory {out} is not a directory" in err
    assert blocker.read_text(encoding="utf-8") == "keep me\n"


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


# -- the graph cache prepare writes ---------------------------------------------

STAGES = ("prepare", "positives", "train", "embed", "eval")
LATER_ARTIFACTS = ("positives.tsv", "trace.tsv", "model.bin", "embeddings.bin",
                   "report.tsv")
ARTIFACTS = ("view_meta0.tsv", "view_meta1.tsv", "views.tsv") + LATER_ARTIFACTS


def count_load_hin(monkeypatch):
    """A list that grows by one entry per cli.load_hin call."""
    calls, load_hin = [], cli.load_hin

    def counted(*args):
        calls.append(args)
        return load_hin(*args)

    monkeypatch.setattr(cli, "load_hin", counted)
    return calls


@pytest.fixture(scope="module")
def cache_and_parse_runs(tmp_path_factory):
    """The five stages on the default synth fixture: once reading the graph
    cache, once with the cache deleted before each stage. Maps each mode
    to (output directory, cli.load_hin calls)."""
    root = tmp_path_factory.mktemp("graphcache")
    assert main(["synth", "--out", str(root / "data")]) == 0
    config = str(root / "data" / "config.json")
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        for mode in ("cache", "parse"):
            calls = count_load_hin(mp)
            out = root / mode
            for stage in STAGES:
                if mode == "parse":
                    (out / cli.GRAPH_CACHE).unlink(missing_ok=True)
                assert main([stage, "--config", config, "--out", str(out)]) == 0
            runs[mode] = (out, len(calls))
    return runs


def test_cache_path_artifacts_match_parse_path(cache_and_parse_runs):
    cached, parsed = cache_and_parse_runs["cache"][0], cache_and_parse_runs["parse"][0]
    assert (cached / cli.GRAPH_CACHE).exists()
    for name in ARTIFACTS:
        assert (cached / name).read_bytes() == (parsed / name).read_bytes(), name


def test_load_hin_runs_once_with_the_cache_and_per_stage_without(
        cache_and_parse_runs):
    assert cache_and_parse_runs["cache"][1] == 1
    assert cache_and_parse_runs["parse"][1] == len(STAGES)


def test_cached_stages_run_no_metapath_product(pipeline, tmp_path,
                                               monkeypatch):
    """After prepare, positives, train and embed take every view from the
    graph cache: with the metapath product made to fail, they exit 0 and
    write the bytes of the pipeline's own run."""
    _, run_cfg, out = prepared_copy(pipeline, tmp_path)

    def no_product(*args):
        raise AssertionError("a metapath product ran on the cached path")

    monkeypatch.setattr(hin_module, "resolve_chain", no_product)
    for stage in ("positives", "train", "embed"):
        assert main([stage, "--config", run_cfg, "--out", str(out)]) == 0
    for name in ("positives.tsv", "trace.tsv", "model.bin", "embeddings.bin"):
        with open(os.path.join(pipeline["out"], name), "rb") as fh:
            assert (out / name).read_bytes() == fh.read(), name


def prepared_copy(pipeline, tmp_path):
    """(data directory, run config, output directory) of a copy of the
    dataset on which prepare has run."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    run_cfg = str(data / os.path.basename(pipeline["config"]))
    out = tmp_path / "out"
    assert main(["prepare", "--config", run_cfg, "--out", str(out)]) == 0
    assert (out / cli.GRAPH_CACHE).exists()
    return data, run_cfg, out


def test_class_ids_past_2_53_give_equal_cached_and_parsed_reports(pipeline,
                                                                  tmp_path):
    """Class ids 2**53 + c, which float64 would fold together, score the
    same from the graph cache as from labels.tsv."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    rows = [line.split("\t") for line in
            (data / "labels.tsv").read_text(encoding="utf-8").splitlines()]
    assert {int(c) for _, c in rows} == {0, 1, 2}
    (data / "labels.tsv").write_text("".join(
        f"{node}\t{2 ** 53 + int(c)}\n" for node, c in rows), encoding="utf-8")
    run_cfg = str(data / os.path.basename(pipeline["config"]))
    reports = []
    for out, stages in ((tmp_path / "cached", ("prepare", "eval")),
                        (tmp_path / "parsed", ("eval",))):
        out.mkdir()
        shutil.copy(os.path.join(pipeline["out"], "embeddings.bin"), out)
        for stage in stages:
            assert main([stage, "--config", run_cfg, "--out", str(out)]) == 0
        reports.append((out / "report.tsv").read_bytes())
    assert (tmp_path / "cached" / cli.GRAPH_CACHE).exists()
    assert not (tmp_path / "parsed" / cli.GRAPH_CACHE).exists()
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", ["positives", "train"])
def test_edge_appended_after_prepare_exits_2_naming_its_line(
        pipeline, tmp_path, capsys, command):
    data, run_cfg, out = prepared_copy(pipeline, tmp_path)
    shutil.copy(os.path.join(pipeline["out"], "positives.tsv"), out)
    before = (out / "positives.tsv").read_bytes()
    with open(data / "edges.tsv", "a", encoding="utf-8") as fh:
        fh.write("e0\tnowhere\tvia0\n")
    line = len((data / "edges.tsv").read_bytes().splitlines())
    assert main([command, "--config", run_cfg, "--out", str(out)]) == 2
    assert (f"UnknownNode: {data / 'edges.tsv'}:{line}: unknown node "
            "'nowhere'") in capsys.readouterr().err
    assert (out / "positives.tsv").read_bytes() == before
    assert not (out / "model.bin").exists()


def flip_first_label(data, run_cfg, out):
    blob = (data / "labels.tsv").read_bytes()
    at = blob.index(b"\t") + 1
    label = (int(blob[at:at + 1]) + 1) % 3
    (data / "labels.tsv").write_bytes(blob[:at] + b"%d" % label + blob[at + 1:])


def flip_a_feature_bit(data, run_cfg, out):
    blob = bytearray((data / "features.bin").read_bytes())
    blob[12] ^= 1  # lowest mantissa bit of the first value
    (data / "features.bin").write_bytes(bytes(blob))


def edit_config(run_cfg, edit):
    with open(run_cfg, encoding="utf-8") as fh:
        raw = json.load(fh)
    edit(raw)
    with open(run_cfg, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)


def add_a_spare_type(data, run_cfg, out):
    edit_config(run_cfg, lambda raw: raw["schema"]["types"].append("spare"))


def features_as_tsv(data, run_cfg, out):
    rows = read_matrix(data / "features.bin").astype(np.float64)
    (data / "features.tsv").write_text("".join(
        f"e{i}\t{','.join(map(repr, row.tolist()))}\n"
        for i, row in enumerate(rows)), encoding="utf-8")
    edit_config(run_cfg, lambda raw: raw["data"].update(features="features.tsv"))


def truncate_cache(data, run_cfg, out):
    blob = (out / cli.GRAPH_CACHE).read_bytes()
    (out / cli.GRAPH_CACHE).write_bytes(blob[:len(blob) // 2])


def truncate_cache_header(data, run_cfg, out):
    """The magic and one byte of the tensor count."""
    blob = (out / cli.GRAPH_CACHE).read_bytes()
    (out / cli.GRAPH_CACHE).write_bytes(blob[:5])


def repeat_a_cached_view(data, run_cfg, out):
    """A second tensor under a view's name, holding that view's first edge."""
    path = out / cli.GRAPH_CACHE
    name, edges = next(item for item in read_checkpoint(path).items()
                       if item[0].startswith("view."))
    path.write_bytes(append_tensor(path.read_bytes(), name, edges[:, :1]))


def garbage_cache(data, run_cfg, out):
    (out / cli.GRAPH_CACHE).write_bytes(b"\x00garbage\n" * 7)


def change_cache_key(data, run_cfg, out):
    tensors = read_checkpoint(out / cli.GRAPH_CACHE)
    tensors["key"][0, -1] = (tensors["key"][0, -1] + 1) % 256
    write_checkpoint(out / cli.GRAPH_CACHE, tensors)


def add_a_stray_tensor(data, run_cfg, out):
    tensors = read_checkpoint(out / cli.GRAPH_CACHE)
    tensors["stray.indptr"] = np.zeros((1, 1))
    write_checkpoint(out / cli.GRAPH_CACHE, tensors)


def index_out_of_range(data, run_cfg, out):
    """A view's last index one past the target node count."""
    tensors = read_checkpoint(out / cli.GRAPH_CACHE)
    name = next(key for key in tensors if key.startswith("view."))
    tensors[name][1, -1] = tensors["features"].shape[0]
    write_checkpoint(out / cli.GRAPH_CACHE, tensors)


def change_a_metapath(data, run_cfg, out):
    """Another relation chain under the first metapath's name."""
    edit_config(run_cfg, lambda raw: raw["metapaths"][0].update(
        relations=["via1", "via1"]))


def drop_a_cached_label(data, run_cfg, out):
    tensors = read_checkpoint(out / cli.GRAPH_CACHE)
    tensors["labels"] = tensors["labels"][:, :-1]
    write_checkpoint(out / cli.GRAPH_CACHE, tensors)


@pytest.mark.parametrize("change", [
    flip_a_feature_bit, flip_first_label, add_a_spare_type, features_as_tsv,
    truncate_cache, truncate_cache_header, repeat_a_cached_view,
    garbage_cache, change_cache_key, add_a_stray_tensor, index_out_of_range,
    drop_a_cached_label, change_a_metapath],
    ids=lambda change: change.__name__)
def test_stale_or_broken_cache_is_parsed_again(pipeline, tmp_path,
                                               monkeypatch, change):
    data, run_cfg, out = prepared_copy(pipeline, tmp_path)
    change(data, run_cfg, out)
    calls = count_load_hin(monkeypatch)
    fresh = tmp_path / "fresh"  # no cache: the parse path
    for target in (out, fresh):
        for stage in STAGES[1:]:
            assert main([stage, "--config", run_cfg, "--out", str(target)]) == 0
    assert len(calls) == 2 * len(STAGES[1:])
    for name in LATER_ARTIFACTS:
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
