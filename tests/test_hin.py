"""Typed graph loading, validation, and metapath view extraction."""

import dataclasses
import itertools
import os
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from hgcml.hin import (HIN, AsymmetricViewWarning, DuplicateNodeId,
                       EmptyViewWarning, EndpointTypeMismatch,
                       FeatureRowMissing, HinError, MalformedRecord,
                       MetapathSpec, MetapathView, RelationDecl, SchemaConfig,
                       TypeChainBroken, UnknownNode, UnknownRelation,
                       UnknownType, extract_metapath_view, graph_key,
                       load_hin, read_graph, resolve_chain, write_graph)
import hgcml.hin as hin_module
from hgcml.io import read_checkpoint, write_checkpoint, write_matrix
from hgcml.positives import load_positives
from hgcml.rng import substream

from conftest import (APA, APCPA, APSPA, TOY_EDGES, TOY_NODES, TOY_SCHEMA,
                      adjacency_of, append_tensor, brute_force_view,
                      build_hin, metapath_neighbors, random_typed_case,
                      reference_load_hin, reference_load_positives,
                      relation_matrix, write_toy_files)


def edge_pairs(view):
    return set(zip(*view.edges.tolist()))


def test_toy_counts(toy_hin):
    assert len(toy_hin.schema.types) == 4
    assert len(toy_hin.schema.relations) == 3
    assert toy_hin.n_target == 4
    # (authors, papers), (papers, subjects), (papers, conferences)
    assert {name: shape for name, (_, _, shape)
            in toy_hin.biadjacency.items()} == {
        "AP": (4, 5), "PS": (5, 3), "PC": (5, 2)}
    assert toy_hin.features.shape == (4, 2)


def test_target_remap_preserves_input_order(toy_paths):
    """Rows and columns follow nodes.tsv, whatever order the files keyed
    by id are in."""
    dirpath = os.path.dirname(toy_paths["nodes"])
    features, labels = (os.path.join(dirpath, name)
                        for name in ("features.tsv", "labels.tsv"))
    with open(features, "w", encoding="utf-8") as fh:
        fh.writelines(f"a{k + 1}\t{k}.0,{k}.5\n" for k in (2, 0, 3, 1))
    with open(labels, "w", encoding="utf-8") as fh:
        fh.writelines(f"a{k + 1}\t{10 + k}\n" for k in (3, 1, 0, 2))
    hin = load_hin(toy_paths["nodes"], toy_paths["edges"], features, labels,
                   TOY_SCHEMA)
    assert hin.features.tolist() == [[k, k + 0.5] for k in range(4)]
    assert hin.labels.tolist() == [10, 11, 12, 13]
    # a3 is author 2 and wrote p3 and p5, papers 2 and 4; p5 is in s2,
    # subject 1, and at c2, conference 1
    assert sorted(relation_matrix(hin, "AP")[2].indices.tolist()) == [2, 4]
    assert relation_matrix(hin, "PS")[4].indices.tolist() == [1]
    assert relation_matrix(hin, "PC")[4].indices.tolist() == [1]


def test_coauthor_view_neighbors(toy_hin):
    view = extract_metapath_view(toy_hin, APA)
    assert metapath_neighbors(view, 0) == [1]
    assert edge_pairs(view) == {(0, 1), (2, 3)}


def test_cosubject_view(toy_hin):
    view = extract_metapath_view(toy_hin, APSPA)
    assert edge_pairs(view) == {(0, 1), (2, 3)}


def test_coconference_view(toy_hin):
    view = extract_metapath_view(toy_hin, APCPA)
    assert edge_pairs(view) == {(0, 1), (0, 2), (1, 2), (2, 3)}


def test_three_node_chain_not_transitive():
    schema = SchemaConfig(types=("author", "paper"),
                          relations=(RelationDecl("AP", "author", "paper"),),
                          target_type="author")
    hin, _ = build_hin(schema, {"author": 3, "paper": 2},
                       [("AP", 0, 0), ("AP", 1, 0), ("AP", 1, 1),
                        ("AP", 2, 1)], np.zeros((3, 1)))
    view = extract_metapath_view(hin, MetapathSpec("APA", ("AP", "AP")))
    assert edge_pairs(view) == {(0, 1), (1, 2)}


def test_view_is_symmetric_zero_diagonal_deterministic(toy_hin):
    a = adjacency_of(extract_metapath_view(toy_hin, APCPA))
    b = adjacency_of(extract_metapath_view(toy_hin, APCPA))
    assert (a != a.T).nnz == 0
    assert not a.diagonal().any()
    assert (a != b).nnz == 0


def test_empty_edge_file_is_valid(tmp_path):
    with open(tmp_path / "nodes.tsv", "w") as fh:
        fh.write("a1\tauthor\np1\tpaper\n")
    open(tmp_path / "edges.tsv", "w").close()
    write_matrix(str(tmp_path / "features.bin"), np.ones((1, 3)))
    hin = load_hin(str(tmp_path / "nodes.tsv"), str(tmp_path / "edges.tsv"),
                   str(tmp_path / "features.bin"), None, TOY_SCHEMA)
    assert hin.n_target == 1
    assert relation_matrix(hin, "AP").nnz == 0
    with pytest.warns(EmptyViewWarning):
        view = extract_metapath_view(hin, APA)
    assert view.n_edges == 0


def test_duplicate_edges_collapse(toy_paths):
    with open(toy_paths["edges"], "a") as fh:
        fh.write("a1\tp1\tAP\n")  # repeat of an existing edge
    hin = load_hin(toy_paths["nodes"], toy_paths["edges"],
                   toy_paths["features"], None, TOY_SCHEMA)
    ap = relation_matrix(hin, "AP")
    assert ap[0].indices.tolist() == [0]  # a1 wrote p1, listed once
    assert ap.nnz == 6


def test_unknown_node_in_edge(toy_paths):
    with open(toy_paths["edges"], "a") as fh:
        fh.write("a1\tp99\tAP\n")
    with pytest.raises(UnknownNode):
        load_hin(toy_paths["nodes"], toy_paths["edges"],
                 toy_paths["features"], None, TOY_SCHEMA)


def test_endpoint_type_mismatch(toy_paths):
    with open(toy_paths["edges"], "a") as fh:
        fh.write("a1\ts1\tAP\n")  # subject on a paper endpoint
    with pytest.raises(EndpointTypeMismatch):
        load_hin(toy_paths["nodes"], toy_paths["edges"],
                 toy_paths["features"], None, TOY_SCHEMA)


def test_duplicate_node_id(toy_paths):
    with open(toy_paths["nodes"], "a") as fh:
        fh.write("a1\tauthor\n")
    with pytest.raises(DuplicateNodeId):
        load_hin(toy_paths["nodes"], toy_paths["edges"],
                 toy_paths["features"], None, TOY_SCHEMA)


def test_unknown_type_and_relation(toy_paths):
    with open(toy_paths["nodes"], "a") as fh:
        fh.write("x1\tvenue\n")
    with pytest.raises(UnknownType):
        load_hin(toy_paths["nodes"], toy_paths["edges"],
                 toy_paths["features"], None, TOY_SCHEMA)
    paths = write_toy_files(os.path.dirname(toy_paths["nodes"]))
    with open(paths["edges"], "a") as fh:
        fh.write("a1\tp1\tZZ\n")
    with pytest.raises(UnknownRelation):
        load_hin(paths["nodes"], paths["edges"], paths["features"],
                 None, TOY_SCHEMA)


def test_malformed_record_reports_line(toy_paths):
    with open(toy_paths["edges"], "a") as fh:
        fh.write("only_one_field\n")
    with pytest.raises(MalformedRecord, match=":17"):
        load_hin(toy_paths["nodes"], toy_paths["edges"],
                 toy_paths["features"], None, TOY_SCHEMA)


def test_missing_feature_file(toy_paths):
    os.remove(toy_paths["features"])
    with pytest.raises(FeatureRowMissing):
        load_hin(toy_paths["nodes"], toy_paths["edges"],
                 toy_paths["features"], None, TOY_SCHEMA)


def test_feature_row_count_mismatch(toy_paths):
    write_matrix(toy_paths["features"], np.ones((3, 2)))  # 4 authors
    with pytest.raises(FeatureRowMissing):
        load_hin(toy_paths["nodes"], toy_paths["edges"],
                 toy_paths["features"], None, TOY_SCHEMA)


def test_nonfinite_features_rejected(toy_paths):
    bad = np.ones((4, 2), dtype=np.float64)
    bad[2, 1] = np.inf
    write_matrix(toy_paths["features"], bad)
    with pytest.raises(MalformedRecord):
        load_hin(toy_paths["nodes"], toy_paths["edges"],
                 toy_paths["features"], None, TOY_SCHEMA)


def test_features_tsv_alternative(tmp_path, toy_paths):
    dense = np.arange(8, dtype=np.float64).reshape(4, 2) + 1.0
    tsv = tmp_path / "feat.tsv"
    with open(tsv, "w") as fh:
        for i in range(4):
            fh.write(f"a{i + 1}\t{dense[i, 0]},{dense[i, 1]}\n")
    hin = load_hin(toy_paths["nodes"], toy_paths["edges"], str(tsv),
                   None, TOY_SCHEMA)
    assert np.array_equal(hin.features, dense)


def test_labels_loaded(toy_paths, tmp_path):
    labels = tmp_path / "labels.tsv"
    with open(labels, "w") as fh:
        fh.write("a1\t0\na2\t0\na3\t1\na4\t1\n")
    hin = load_hin(toy_paths["nodes"], toy_paths["edges"],
                   toy_paths["features"], str(labels), TOY_SCHEMA)
    assert hin.labels.tolist() == [0, 0, 1, 1]


def test_partial_labels_fill_minus_one(toy_paths, tmp_path):
    labels = tmp_path / "labels.tsv"
    with open(labels, "w") as fh:
        fh.write("a2\t3\n")
    hin = load_hin(toy_paths["nodes"], toy_paths["edges"],
                   toy_paths["features"], str(labels), TOY_SCHEMA)
    assert hin.labels.tolist() == [-1, 3, -1, -1]


@pytest.mark.parametrize("name", ["labels", "features"])
def test_repeated_node_in_a_row_file_names_its_line(toy_paths, tmp_path, name):
    """A second line for a node is a fault of that line, not a new value
    for the node; the parser and its per-line oracle agree."""
    path = tmp_path / f"{name}.tsv"
    lines = ([f"a{k + 1}\t{k // 2}" for k in range(4)] + ["a1\t2"]
             if name == "labels" else
             [f"a{k + 1}\t{k}.0,1.0" for k in range(4)] + ["a1\t9.0,9.0"])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    paths = dict(toy_paths, **{name: str(path)})
    for loader in (load_hin, reference_load_hin):
        with pytest.raises(MalformedRecord,
                           match=f"^{re.escape(str(path))}:5: node 'a1' repeated$"):
            loader(paths["nodes"], paths["edges"], paths["features"],
                   paths["labels"], TOY_SCHEMA)


@pytest.mark.parametrize("class_id", [
    2 ** 63, 10 ** 20,
    pytest.param("1" * 5000, id="5000-digits")])  # past int()'s digit limit
def test_class_id_outside_int64_names_its_line(toy_paths, tmp_path, class_id):
    path = tmp_path / "labels.tsv"
    path.write_text(f"a1\t{2 ** 63 - 1}\na2\t007\na3\t{class_id}\n",
                    encoding="utf-8")
    for loader in (load_hin, reference_load_hin):
        with pytest.raises(MalformedRecord,
                           match=f"^{re.escape(str(path))}:3: class id outside int64$"):
            loader(toy_paths["nodes"], toy_paths["edges"],
                   toy_paths["features"], str(path), TOY_SCHEMA)
    path.write_text(f"a1\t{2 ** 63 - 1}\na2\t007\n", encoding="utf-8")
    hin = load_hin(toy_paths["nodes"], toy_paths["edges"],
                   toy_paths["features"], str(path), TOY_SCHEMA)
    assert hin.labels.tolist() == [2 ** 63 - 1, 7, -1, -1]


@pytest.mark.parametrize("class_id", ["1_0", " \u0663 ", "\u0663", "+3", "-7",
                                      str(-2 ** 63 - 1), "1.0", "0x1", ""])
def test_class_id_outside_the_grammar_names_its_line(toy_paths, tmp_path,
                                                     class_id):
    """A class id is ASCII digits. Python's int() would take the
    underscore, the Arabic-Indic three with or without spaces, and a sign;
    a negative class would then read as unlabeled."""
    path = tmp_path / "labels.tsv"
    path.write_text(f"a1\t0\na2\t1\na3\t{class_id}\na4\t0\n", encoding="utf-8")
    for loader in (load_hin, reference_load_hin):
        with pytest.raises(MalformedRecord, match=(
                f"^{re.escape(str(path))}:3: class id "
                f"{re.escape(repr(class_id))} is not ASCII digits$")):
            loader(toy_paths["nodes"], toy_paths["edges"],
                   toy_paths["features"], str(path), TOY_SCHEMA)


def test_schema_validation():
    with pytest.raises(UnknownType):
        SchemaConfig(types=("a", "a"), relations=(), target_type="a")
    with pytest.raises(UnknownType):
        SchemaConfig(types=("a", "b"),
                     relations=(RelationDecl("R", "a", "c"),),
                     target_type="a")
    with pytest.raises(HinError):
        # |types| + |relations| must exceed 2
        SchemaConfig(types=("a", "b"), relations=(), target_type="a")


def test_zero_length_metapath_rejected(toy_hin):
    with pytest.raises(TypeChainBroken):
        extract_metapath_view(toy_hin, MetapathSpec("bad", ()))


def test_chain_that_cannot_type_check(toy_hin):
    with pytest.raises(TypeChainBroken):
        extract_metapath_view(toy_hin, MetapathSpec("bad", ("PS", "AP")))
    with pytest.raises(TypeChainBroken):
        # ends on paper, not on the target type
        extract_metapath_view(toy_hin, MetapathSpec("bad", ("AP",)))


def test_resolve_chain_directions(toy_hin):
    chain = resolve_chain(TOY_SCHEMA, APSPA)
    assert chain == [("AP", False), ("PS", False), ("PS", True), ("AP", True)]


def test_asymmetric_product_symmetrized():
    schema = SchemaConfig(types=("t", "u"),
                          relations=(RelationDecl("R0", "t", "u"),
                                     RelationDecl("R1", "u", "t")),
                          target_type="t")
    # one directed chain t0 -R0-> u0 -R1-> t1 and nothing back
    hin, _ = build_hin(schema, {"t": 2, "u": 1},
                       [("R0", 0, 0), ("R1", 0, 1)], np.zeros((2, 1)))
    with pytest.warns(AsymmetricViewWarning):
        view = extract_metapath_view(hin, MetapathSpec("m", ("R0", "R1")))
    assert edge_pairs(view) == {(0, 1)}
    adjacency = adjacency_of(view)
    assert (adjacency != adjacency.T).nnz == 0


@pytest.mark.parametrize("edges, fault", [
    (np.zeros((3, 1), np.int64), "integer array"),
    (np.zeros(2, np.int64), "integer array"),
    (np.array([[0.0], [1.0]]), "integer array"),
    (np.array([[1], [1]]), "i < j < 4"),
    (np.array([[0, 2], [1, 1]]), "i < j < 4"),
    (np.array([[0, 0], [1, 1]]), "row-major"),
    (np.array([[0, 0], [2, 1]]), "row-major"),
    (np.array([[1, 0], [2, 3]]), "row-major"),
    (np.array([[-1], [2]]), "0 <= i < j < 4"),
    (np.array([[0], [4]]), "0 <= i < j < 4"),
    (np.array([[4], [5]]), "0 <= i < j < 4"),
])
def test_view_rejects_edges_that_are_not_its_upper_triangle(edges, fault):
    with pytest.raises(HinError, match=fault):
        MetapathView(edges=edges, features=np.zeros((4, 1)), metapath=APA)


def test_view_takes_sorted_upper_triangle_edges():
    edges = np.array([[0, 0, 1, 2], [1, 3, 2, 3]])
    view = MetapathView(edges=edges, features=np.zeros((4, 1)), metapath=APA)
    assert (view.n_nodes, view.n_edges) == (4, 4)
    empty = MetapathView(edges=np.empty((2, 0), np.intp),
                         features=np.zeros((1, 1)), metapath=APA)
    assert (empty.n_nodes, empty.n_edges) == (1, 0)


def test_views_match_brute_force_enumeration():
    for trial in range(30):
        rng = substream(trial, "viewcase")
        hin, _, spec = random_typed_case(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            view = extract_metapath_view(hin, spec)
        assert np.array_equal(adjacency_of(view).toarray(),
                              brute_force_view(hin, spec)), f"trial {trial}"


# -- the block parser against the per-line oracle ----------------------------

def typed_lines(hin, node_ids, rng, prefix=""):
    """Shuffled node and edge lines of an in-memory HIN with the string ids
    `node_ids`, with a few repeated edges; `prefix` renames every node id."""
    nodes = [f"{prefix}{node_id}\t{t}" for t, ids in node_ids.items()
             for node_id in ids]
    edges = []
    for rel in hin.schema.relations:
        coo = relation_matrix(hin, rel.name).tocoo()
        src_ids, dst_ids = node_ids[rel.src], node_ids[rel.dst]
        edges += [f"{prefix}{src_ids[i]}\t{prefix}{dst_ids[j]}\t{rel.name}"
                  for i, j in zip(coo.row, coo.col)]
    if edges:
        edges += [edges[int(k)] for k in rng.integers(len(edges), size=3)]
    return ([nodes[k] for k in rng.permutation(len(nodes))],
            [edges[k] for k in rng.permutation(len(edges))])


def write_lines(path, lines, rng, crlf=False, final_newline=True, blanks=0):
    lines = list(lines)
    for _ in range(blanks):
        lines.insert(int(rng.integers(len(lines) + 1)), "")
    eol = "\r\n" if crlf else "\n"
    # a lone surrogate such as "\udcff" writes the byte 0xff: not UTF-8
    with open(path, "w", encoding="utf-8", errors="surrogateescape",
              newline="") as fh:
        fh.write(eol.join(lines) + (eol if final_newline and lines else ""))


def write_typed_case(dirpath, hin, node_ids, nodes, edges, rng, prefix="",
                     **fmt):
    """The node and edge lines in the input formats, plus the HIN's
    features and a label for every other target node of `node_ids`."""
    paths = {name: os.path.join(dirpath, f"{name}.tsv")
             for name in ("nodes", "edges", "labels")}
    paths["features"] = os.path.join(dirpath, "features.bin")
    write_lines(paths["nodes"], nodes, rng, **fmt)
    write_lines(paths["edges"], edges, rng, **fmt)
    write_matrix(paths["features"], hin.features)
    targets = node_ids[hin.schema.target_type]
    write_lines(paths["labels"], [f"{prefix}{node_id}\t{k % 3}" for k, node_id
                                  in enumerate(targets) if k % 2 == 0], rng)
    return paths


def load_outcome(loader, paths, schema):
    try:
        return loader(paths["nodes"], paths["edges"], paths["features"],
                      paths["labels"], schema)
    except HinError as exc:
        return exc


def assert_same_outcome(paths, schema):
    """load_hin and the per-line oracle agree: the same graph, or the same
    exception class and message. Returns the oracle's outcome: its graph
    and string ids, or its exception."""
    want = load_outcome(reference_load_hin, paths, schema)
    got = load_outcome(load_hin, paths, schema)
    if isinstance(want, HinError):
        assert (type(got), str(got)) == (type(want), str(want))
        return want
    assert not isinstance(got, HinError), got
    assert_same_graph(got, want[0])
    return want


def assert_same_value(got, want, where):
    """`got` equals `want`: dicts key by key in order, CSR matrices array by
    array, arrays in dtype, shape and bits."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_same_value(got[key], want[key], f"{where}[{key!r}]")
    elif sp.issparse(want):
        assert got.shape == want.shape, where
        for part in ("indptr", "indices", "data"):
            assert_same_value(getattr(got, part), getattr(want, part),
                              f"{where}.{part}")
    elif isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        assert got.tobytes() == want.tobytes(), where
    else:
        assert got == want, where


def assert_same_graph(got, want):
    """Every field of two HINs is the same value; a relation is compared
    as the CSR that view extraction builds from its arrays."""
    for f in dataclasses.fields(HIN):
        mine, theirs = getattr(got, f.name), getattr(want, f.name)
        if f.name == "biadjacency":
            mine, theirs = ({name: relation_matrix(g, name)
                             for name in g.biadjacency} for g in (got, want))
        assert_same_value(mine, theirs, f.name)


# Block sizes in characters: every line in one block, one character per
# read, and blocks of a few lines each.
BLOCK_SIZES = [hin_module.BLOCK_CHARS, 1, 16]

FAULTS = {"node-fields": MalformedRecord, "node-type": UnknownType,
          "node-duplicate": DuplicateNodeId, "edge-fields": MalformedRecord,
          "edge-relation": UnknownRelation, "edge-src": UnknownNode,
          "edge-dst": UnknownNode, "edge-endpoints": EndpointTypeMismatch,
          # two faults in one line: the per-line order of checks decides
          "node-type-and-duplicate": UnknownType,
          "edge-relation-and-node": UnknownRelation,
          "edge-src-and-dst": UnknownNode,
          # bytes that are not UTF-8: a bad start byte, a truncated
          # character at the line end, a bad continuation byte
          "node-utf8": MalformedRecord, "edge-utf8": MalformedRecord}


def case_with_edges(rng, prefix=""):
    while True:
        hin, node_ids, _ = random_typed_case(rng)
        nodes, edges = typed_lines(hin, node_ids, rng, prefix)
        if edges:
            return hin, node_ids, nodes, edges


def fault_line(kind, nodes, edges, rng):
    """(file, line) holding one fault of `kind`, made from valid lines."""
    node_id, node_type = nodes[int(rng.integers(len(nodes)))].split("\t")
    src, dst, rel = edges[int(rng.integers(len(edges)))].split("\t")
    choice = int(rng.integers(3))
    return {
        "node-fields": ("nodes", [node_id, f"{node_id}\t{node_type}\t",
                                  f"{node_id}\t{node_type}\tx"][choice]),
        "node-type": ("nodes", f"{node_id}-new\tnowhere"),
        "node-duplicate": ("nodes", f"{node_id}\t{node_type}"),
        "edge-fields": ("edges", [f"{src}\t{dst}", f"{src}\t{dst}\t{rel}\t",
                                  src][choice]),
        "edge-relation": ("edges", f"{src}\t{dst}\tnowhere"),
        "edge-src": ("edges", f"ghost\t{dst}\t{rel}"),
        "edge-dst": ("edges", f"{src}\tghost\t{rel}"),
        "edge-endpoints": ("edges", f"{dst}\t{src}\t{rel}"),
        "node-type-and-duplicate": ("nodes", f"{node_id}\tnowhere"),
        "edge-relation-and-node": ("edges", f"{src}\tghost\tnowhere"),
        "edge-src-and-dst": ("edges", f"ghost\tspectre\t{rel}"),
        "node-utf8": ("nodes", f"{node_id}\udcff\t{node_type}"),
        "edge-utf8": ("edges", [f"{src}\t{dst}\t{rel}\udce2\udc82",
                                f"\udcc3{src}\t{dst}\t{rel}",
                                f"{src}\t{dst}\udcff"][choice]),
    }[kind]


def parse_case(tmp_path, trial):
    """(paths, schema, metapath) of the random typed case `trial`, written
    with its own mix of id prefix, line ends and blank lines."""
    rng = substream(trial, "parsecase")
    hin, node_ids, spec = random_typed_case(rng)
    prefix = "ñ節-" if trial % 3 == 0 else ""
    nodes, edges = typed_lines(hin, node_ids, rng, prefix)
    dirpath = tmp_path / str(trial)
    dirpath.mkdir()
    paths = write_typed_case(dirpath, hin, node_ids, nodes, edges, rng, prefix,
                             crlf=trial % 2 == 1,
                             final_newline=trial % 4 != 3,
                             blanks=trial % 5)
    return paths, hin.schema, spec


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_block_parse_matches_per_line_oracle(tmp_path, monkeypatch, block):
    monkeypatch.setattr(hin_module, "BLOCK_CHARS", block)
    for trial in range(24):
        paths, schema, _ = parse_case(tmp_path, trial)
        assert not isinstance(assert_same_outcome(paths, schema), HinError)


# -- the graph cache ------------------------------------------------------------

TOY_METAPATHS = (APA, APCPA)  # views of 2 and 4 edges over the 4 authors


def key_of(paths, schema, metapaths=TOY_METAPATHS):
    return graph_key(paths["nodes"], paths["edges"], paths["features"],
                     paths["labels"], schema, metapaths)


def views_of(hin, metapaths):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [extract_metapath_view(hin, spec) for spec in metapaths]


def assert_cached_graph(cached, parsed, views):
    """`cached` is `parsed` with `views` in place of its relations: the
    same features and labels, no relation, and each view's edges as int64,
    which view extraction then returns without running the product."""
    assert cached is not None
    assert cached.schema == parsed.schema and cached.biadjacency == {}
    assert_same_value(cached.features, parsed.features, "features")
    assert_same_value(cached.labels, parsed.labels, "labels")
    assert list(cached.views) == [view.metapath.name for view in views]
    for view in views:
        got = extract_metapath_view(cached, view.metapath)
        assert got is cached.views[view.metapath.name]
        assert got.metapath == view.metapath and got.features is cached.features
        assert got.edges.dtype == np.int64
        assert np.array_equal(got.edges, view.edges), view.metapath.name


def test_cached_graph_equals_parsed_graph(tmp_path):
    for trial in range(24):
        paths, schema, spec = parse_case(tmp_path, trial)
        if trial % 2:
            paths["labels"] = None
        parsed = load_hin(paths["nodes"], paths["edges"], paths["features"],
                          paths["labels"], schema)
        views = views_of(parsed, [spec])
        cache = tmp_path / str(trial) / "graph.bin"
        write_graph(cache, parsed, views, key_of(paths, schema, [spec]))
        cached = read_graph(cache, key_of(paths, schema, [spec]), schema, [spec])
        assert_cached_graph(cached, parsed, views)


def test_graph_cache_keeps_every_int64_label(tmp_path):
    """Class ids at and past 2**53, where float64 stops being exact, and
    both ends of int64 come back from the cache as they went in."""
    toy_paths = write_toy_files(str(tmp_path), labels=[0, 1, 0, 1])
    parsed = load_hin(toy_paths["nodes"], toy_paths["edges"],
                      toy_paths["features"], toy_paths["labels"], TOY_SCHEMA)
    views = views_of(parsed, TOY_METAPATHS)
    key = key_of(toy_paths, TOY_SCHEMA)
    cache = tmp_path / "graph.bin"
    for labels in ([-1, 0, 2 ** 53, 2 ** 53 + 1],
                   [2 ** 63 - 1, -2 ** 63, 2 ** 32 - 1, 2 ** 32]):
        labelled = dataclasses.replace(parsed, labels=np.array(labels, np.int64))
        write_graph(cache, labelled, views, key)
        cached = read_graph(cache, key, TOY_SCHEMA, TOY_METAPATHS)
        assert_cached_graph(cached, labelled, views)
        assert cached.labels.tolist() == labels


def test_graph_key_covers_schema_and_every_input(tmp_path):
    toy_paths = write_toy_files(str(tmp_path), labels=[0, 1, 0, 1])
    base = key_of(toy_paths, TOY_SCHEMA)
    assert len(base) == 32 and key_of(toy_paths, TOY_SCHEMA) == base
    keys = {base}
    for name in ("nodes", "edges", "features", "labels"):
        path = toy_paths[name]
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:  # one byte changed
            fh.write(blob[:-1] + bytes([blob[-1] ^ 1]))
        keys.add(key_of(toy_paths, TOY_SCHEMA))
        with open(path, "wb") as fh:
            fh.write(blob)
    keys.add(key_of(dict(toy_paths, labels=None), TOY_SCHEMA))
    empty = tmp_path / "no_labels.tsv"
    empty.write_bytes(b"")
    keys.add(key_of(dict(toy_paths, labels=str(empty)), TOY_SCHEMA))
    # the same bytes under a .tsv name are parsed as text
    renamed = tmp_path / "features.tsv"
    renamed.write_bytes(open(toy_paths["features"], "rb").read())
    keys.add(key_of(dict(toy_paths, features=str(renamed)), TOY_SCHEMA))
    spare = SchemaConfig(types=TOY_SCHEMA.types + ("spare",),
                         relations=TOY_SCHEMA.relations,
                         target_type=TOY_SCHEMA.target_type)
    keys.add(key_of(toy_paths, spare))
    # the views a cache holds: another chain under a metapath's name,
    # another name, one metapath fewer, the metapaths in another order
    for metapaths in ((APA, MetapathSpec("APCPA", APSPA.relations)),
                      (APA, dataclasses.replace(APCPA, name="other")),
                      (APA,), (APCPA, APA)):
        keys.add(key_of(toy_paths, TOY_SCHEMA, metapaths))
    assert len(keys) == 13
    assert key_of(toy_paths, TOY_SCHEMA) == base


def test_graph_key_raises_for_an_unreadable_file(toy_paths):
    with pytest.raises(FileNotFoundError):
        key_of(dict(toy_paths, edges=toy_paths["edges"] + ".gone"), TOY_SCHEMA)


@pytest.mark.parametrize("fault", ["missing", "truncated", "truncated-header",
                                   "repeated-name", "garbage",
                                   "wrong-key", "no-key", "extra-tensor",
                                   "missing-view", "shape-of-three",
                                   "i-not-below-j", "index-out-of-range",
                                   "negative-index", "repeated-pair",
                                   "unsorted-pair", "non-integer", "nan",
                                   "labels-short", "labels-non-integer",
                                   "labels-nan", "labels-one-row",
                                   "labels-low-word-negative",
                                   "labels-low-word-past-32-bits",
                                   "labels-high-word-past-32-bits"])
def test_graph_cache_not_trusted(tmp_path, fault):
    """Every fault makes the cache unreadable: the stage parses instead."""
    toy_paths = write_toy_files(str(tmp_path), labels=[0, 1, 0, 1])
    parsed = load_hin(toy_paths["nodes"], toy_paths["edges"],
                      toy_paths["features"], toy_paths["labels"], TOY_SCHEMA)
    views = views_of(parsed, TOY_METAPATHS)
    key = key_of(toy_paths, TOY_SCHEMA)
    cache = tmp_path / "graph.bin"
    write_graph(cache, parsed, views, key)
    assert_cached_graph(read_graph(cache, key, TOY_SCHEMA, TOY_METAPATHS),
                        parsed, views)
    blob = cache.read_bytes()
    tensors = read_checkpoint(cache)
    # APCPA's edges, one pair per column: (0, 1), (0, 2), (1, 2), (2, 3)
    edges = tensors["view.APCPA"]
    assert edges.tolist() == [[0, 0, 1, 2], [1, 2, 2, 3]]
    if fault == "missing":
        cache.unlink()
    elif fault == "truncated":
        cache.write_bytes(blob[:len(blob) // 2])
    elif fault == "truncated-header":  # the magic and one byte of the count
        cache.write_bytes(blob[:5])
    elif fault == "repeated-name":  # a second, valid APCPA edge list
        cache.write_bytes(append_tensor(blob, "view.APCPA", edges[:, :3]))
    elif fault == "garbage":
        cache.write_bytes(b"not a graph cache\n")
    else:
        if fault == "wrong-key":
            tensors["key"][0, 0] = (tensors["key"][0, 0] + 1) % 256
        elif fault == "no-key":
            del tensors["key"]
        elif fault == "extra-tensor":
            tensors["view.APSPA"] = np.zeros((2, 0))
        elif fault == "missing-view":
            del tensors["view.APA"]
        elif fault == "shape-of-three":  # a view tensor of three rows
            tensors["view.APCPA"] = np.vstack((edges, edges[:1]))
        elif fault == "i-not-below-j":
            edges[:, 0] = 1, 0
        elif fault == "index-out-of-range":  # j = n
            edges[1, 3] = 4
        elif fault == "negative-index":
            edges[0, 0] = -1
        elif fault == "repeated-pair":
            edges[:, 1] = edges[:, 0]
        elif fault == "unsorted-pair":
            edges[:, :2] = edges[:, 1::-1]
        elif fault == "non-integer":  # a cast to int64 would give a valid 2
            edges[1, 1] = 2.5
        elif fault == "nan":
            edges[1, 1] = np.nan
        elif fault == "labels-short":  # 3 labels for the 4 authors
            tensors["labels"] = np.zeros((2, 3))
        elif fault == "labels-non-integer":
            tensors["labels"][0, 2] = 0.5
        elif fault == "labels-nan":
            tensors["labels"][0, 2] = np.nan
        elif fault == "labels-one-row":  # the low words alone
            tensors["labels"] = tensors["labels"][1:]
        elif fault == "labels-low-word-negative":
            tensors["labels"][1, 2] = -1
        elif fault == "labels-low-word-past-32-bits":
            tensors["labels"][1, 2] = 2 ** 32
        else:  # its label would wrap round past int64
            tensors["labels"][0, 2] = 2 ** 31
        write_checkpoint(cache, tensors)
    assert read_graph(cache, key, TOY_SCHEMA, TOY_METAPATHS) is None


@pytest.mark.parametrize("kind", sorted(FAULTS))
def test_each_fault_reported_like_per_line_oracle(tmp_path, monkeypatch, kind):
    for block, trial in itertools.product(BLOCK_SIZES, range(6)):
        monkeypatch.setattr(hin_module, "BLOCK_CHARS", block)
        rng = substream(trial, "faultcase", kind)
        prefix = "ñ節-" if trial % 3 == 0 else ""
        hin, node_ids, nodes, edges = case_with_edges(rng, prefix)
        lines = {"nodes": nodes, "edges": edges}
        where, line = fault_line(kind, nodes, edges, rng)
        lines[where].insert(int(rng.integers(len(lines[where]) + 1)), line)
        dirpath = tmp_path / f"{block}-{trial}"
        dirpath.mkdir()
        paths = write_typed_case(dirpath, hin, node_ids, lines["nodes"],
                                 lines["edges"], rng, prefix,
                                 crlf=trial % 2 == 1,
                                 final_newline=trial % 4 != 3, blanks=trial % 3)
        assert isinstance(assert_same_outcome(paths, hin.schema), FAULTS[kind])


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_earliest_of_two_faults_is_reported(tmp_path, monkeypatch, block):
    """Every ordered pair of fault kinds, at random lines of one file or of
    both; the oracle reports the fault of the earlier line."""
    monkeypatch.setattr(hin_module, "BLOCK_CHARS", block)
    for first, second in itertools.product(sorted(FAULTS), repeat=2):
        rng = substream(block, "twofaults", first, second)
        hin, node_ids, nodes, edges = case_with_edges(rng)
        faults = [fault_line(kind, nodes, edges, rng) for kind in (first, second)]
        lines = {"nodes": nodes, "edges": edges}
        for where, line in faults:
            lines[where].insert(int(rng.integers(len(lines[where]) + 1)), line)
        dirpath = tmp_path / f"{first}-{second}"
        dirpath.mkdir()
        paths = write_typed_case(dirpath, hin, node_ids, lines["nodes"],
                                 lines["edges"], rng,
                                 blanks=int(rng.integers(3)))
        assert isinstance(assert_same_outcome(paths, hin.schema), HinError)


def test_missing_node_or_edge_file_reported_like_per_line_oracle(toy_paths):
    for name in ("edges", "nodes"):
        os.remove(toy_paths[name])
        assert isinstance(assert_same_outcome(toy_paths, TOY_SCHEMA),
                          MalformedRecord)


# -- labels, features.tsv and positives.tsv against the per-line oracle ------

def row_lines(hin, node_ids, rng, prefix=""):
    """Shuffled lines of labels.tsv, features.tsv and positives.tsv for
    every target node of an in-memory HIN with the string ids `node_ids`."""
    targets = node_ids[hin.schema.target_type]
    n = len(targets)
    lines = {
        "labels": [f"{prefix}{node_id}\t{k % 3}"
                   for k, node_id in enumerate(targets)],
        "features": [f"{prefix}{node_id}\t" + ",".join(map(repr, row))
                     for node_id, row in zip(targets, hin.features.tolist())],
        "positives": [f"{u}\t" + ",".join(map(str, np.union1d(
            rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False), [u])))
            for u in range(n)],
    }
    return {name: [rows[k] for k in rng.permutation(n)]
            for name, rows in lines.items()}


def write_row_case(dirpath, rng, prefix="", fault=None, **fmt):
    """A random typed case whose labels and features are TSV row files,
    plus its positives.tsv, with one fault of the kind `fault` in them;
    returns the HIN, its string ids and the file paths."""
    hin, node_ids, nodes, edges = case_with_edges(rng, prefix)
    paths = write_typed_case(dirpath, hin, node_ids, nodes, edges, rng, prefix)
    rows = row_lines(hin, node_ids, rng, prefix)
    if fault is not None:
        where, line = row_fault_line(fault, hin, node_ids, rng, prefix)
        at = int(rng.integers(len(rows[where]) + (line is not None)))
        if line is None:
            del rows[where][at]
        else:
            rows[where].insert(at, line)
    for name, lines in rows.items():
        paths[name] = os.path.join(dirpath, f"{name}.tsv")
        write_lines(paths[name], lines, rng, **fmt)
    return hin, node_ids, paths


def assert_same_positives(path, n):
    """load_positives and its per-line oracle agree: the same sets, or the
    same exception class and message. Returns the oracle's outcome."""
    outcomes = []
    for loader in (reference_load_positives, load_positives):
        try:
            outcomes.append(loader(path, n))
        except HinError as exc:
            outcomes.append(exc)
    want, got = outcomes
    if isinstance(want, HinError):
        assert (type(got), str(got)) == (type(want), str(want))
        return want
    assert not isinstance(got, HinError), got
    assert len(got.sets) == len(want.sets)
    for mine, theirs in zip(got.sets, want.sets):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
    return want


ROW_FAULTS = {"labels-fields": MalformedRecord, "labels-node": UnknownNode,
              "labels-class": MalformedRecord,
              "labels-int64": MalformedRecord,
              "labels-repeated": MalformedRecord,
              # ids int() takes and the ASCII digit grammar does not
              "labels-underscore": MalformedRecord,
              "labels-arabic": MalformedRecord,
              "labels-plus": MalformedRecord,
              "labels-negative": MalformedRecord,
              "positives-underscore": MalformedRecord,
              "positives-arabic": MalformedRecord,
              "positives-plus": MalformedRecord,
              "positives-negative": MalformedRecord,
              "features-fields": MalformedRecord, "features-node": UnknownNode,
              "features-value": MalformedRecord,
              "features-length": MalformedRecord,
              "features-missing": FeatureRowMissing,
              "features-repeated": MalformedRecord,
              "positives-fields": MalformedRecord,
              "positives-anchor": MalformedRecord,
              "positives-range": MalformedRecord,
              "positives-set": MalformedRecord,
              "positives-repeated": MalformedRecord,
              "positives-int64": MalformedRecord,
              "positives-missing": MalformedRecord,
              "labels-utf8": MalformedRecord, "features-utf8": MalformedRecord,
              "positives-utf8": MalformedRecord}


INT64_PAST = 2 ** 63  # the smallest integer an int64 cannot hold


def row_fault_line(kind, hin, node_ids, rng, prefix=""):
    """(file, line) holding one fault of `kind`; line None deletes one."""
    targets = node_ids[hin.schema.target_type]
    n = len(targets)
    u = int(rng.integers(n))
    node = f"{prefix}{targets[u]}"
    values = ",".join(["0.5"] * hin.features.shape[1])
    return {
        "labels-fields": ("labels", f"{node}\t1\t"),
        "labels-node": ("labels", f"{prefix}{node_ids['u'][0]}\t1"),
        "labels-class": ("labels", f"{node}\tone"),
        "labels-int64": ("labels", f"{node}\t{INT64_PAST}"),
        "labels-repeated": ("labels", f"{node}\t{(u + 1) % 3}"),
        "labels-underscore": ("labels", f"{node}\t1_0"),
        "labels-arabic": ("labels", f"{node}\t \u0663 "),
        "labels-plus": ("labels", f"{node}\t+1"),
        "labels-negative": ("labels", f"{node}\t-7"),
        "features-fields": ("features", node),
        "features-node": ("features", f"ghost\t{values}"),
        "features-value": ("features", f"{node}\t{values[:-3]}x"),
        "features-length": ("features", f"{node}\t{values},1.0"),
        "features-missing": ("features", None),
        "features-repeated": ("features", f"{node}\t{values}"),
        "positives-fields": ("positives", f"{u}\t{u}\t"),
        "positives-anchor": ("positives", f"u{u}\t{u}"),
        "positives-range": ("positives", f"{n}\t{n}"),
        "positives-set": ("positives", f"{u}\t{(u + 1) % n}"),
        "positives-repeated": ("positives", f"{u}\t{u}"),
        "positives-int64": ("positives", f"{u}\t{u},{INT64_PAST}"),
        "positives-underscore": ("positives", f"{u}\t{u},1_0"),
        "positives-arabic": ("positives", f" \u0663 \t{u}"),
        "positives-plus": ("positives", f"+{u}\t{u}"),
        "positives-negative": ("positives", f"{u}\t-1,{u}"),
        "positives-missing": ("positives", None),
        "labels-utf8": ("labels", f"{node}\udcff\t1"),
        "features-utf8": ("features", f"{node}\t{values}\udce2\udc82"),
        "positives-utf8": ("positives", f"{u}\t\udcc3{u}"),
    }[kind]


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_row_files_match_per_line_oracle(tmp_path, monkeypatch, block):
    monkeypatch.setattr(hin_module, "BLOCK_CHARS", block)
    for trial in range(12):
        rng = substream(trial, "rowcase")
        prefix = "ñ節-" if trial % 3 == 0 else ""
        dirpath = tmp_path / str(trial)
        dirpath.mkdir()
        hin, node_ids, paths = write_row_case(
            dirpath, rng, prefix, crlf=trial % 2 == 1,
            final_newline=trial % 4 != 3, blanks=trial % 5)
        parsed, parsed_ids = assert_same_outcome(paths, hin.schema)
        target = hin.schema.target_type
        row_of = {f"{prefix}{node_id}": k
                  for k, node_id in enumerate(node_ids[target])}
        order = [row_of[node_id] for node_id in parsed_ids[target]]
        assert np.array_equal(parsed.features, hin.features[order])
        assert not isinstance(assert_same_positives(paths["positives"],
                                                    hin.n_target), HinError)


@pytest.mark.parametrize("kind", sorted(ROW_FAULTS))
def test_each_row_file_fault_reported_like_per_line_oracle(tmp_path,
                                                           monkeypatch, kind):
    for block, trial in itertools.product(BLOCK_SIZES, range(4)):
        monkeypatch.setattr(hin_module, "BLOCK_CHARS", block)
        rng = substream(trial, "rowfault", kind)
        prefix = "ñ節-" if trial % 3 == 0 else ""
        dirpath = tmp_path / f"{block}-{trial}"
        dirpath.mkdir()
        hin, _, paths = write_row_case(dirpath, rng, prefix, fault=kind,
                                       crlf=trial % 2 == 1,
                                       final_newline=trial % 4 != 3,
                                       blanks=trial % 3)
        if kind.startswith("positives"):
            outcome = assert_same_positives(paths["positives"], hin.n_target)
        else:
            outcome = assert_same_outcome(paths, hin.schema)
        assert isinstance(outcome, ROW_FAULTS[kind])


@pytest.mark.parametrize("name", ["nodes", "edges", "labels", "features",
                                  "positives"])
def test_invalid_utf8_in_a_text_input_names_the_file(tmp_path, name):
    hin, _, paths = write_row_case(tmp_path, substream(0, "utf8", name))
    with open(paths[name], "rb") as fh:
        line = len(fh.read().splitlines()) + 1
    with open(paths[name], "ab") as fh:
        fh.write(b"ok\t\xff\n")
    message = f"^{re.escape(paths[name])}:{line}: not UTF-8 text"
    if name == "positives":
        with pytest.raises(MalformedRecord, match=message):
            load_positives(paths["positives"], hin.n_target)
    else:
        with pytest.raises(MalformedRecord, match=message):
            load_hin(paths["nodes"], paths["edges"], paths["features"],
                     paths["labels"], hin.schema)
