"""Shared fixtures: toy bibliographic HIN, random typed graphs, oracles."""

import importlib.util
import os
import struct
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

import hgcml.evaluate as evaluate_module
import hgcml.hin as hin_module
import hgcml.numerics as nm
import hgcml.objective as objective_module
import hgcml.positives as positives_module
from hgcml.hin import (HIN, DuplicateNodeId, EndpointTypeMismatch,
                       MalformedRecord, MetapathSpec, MetapathView,
                       RelationDecl, SchemaConfig, UnknownNode,
                       UnknownRelation, UnknownType, _load_features,
                       _load_labels, load_hin)
from hgcml.io import write_matrix
from hgcml.numerics import LOG_EPS, NonFiniteResult
from hgcml.positives import DiffusionMatrix, PositiveSets, load_positives
from hgcml.rng import substream

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Small bibliographic network: 4 authors, 5 papers, 3 subjects,
# 2 conferences. a1 co-authors p1 with a2; a3 and a4 share p5.
TOY_SCHEMA = SchemaConfig(
    types=("author", "paper", "subject", "conference"),
    relations=(RelationDecl("AP", "author", "paper"),
               RelationDecl("PS", "paper", "subject"),
               RelationDecl("PC", "paper", "conference")),
    target_type="author")

TOY_NODES = [("a1", "author"), ("a2", "author"), ("a3", "author"),
             ("a4", "author"),
             ("p1", "paper"), ("p2", "paper"), ("p3", "paper"),
             ("p4", "paper"), ("p5", "paper"),
             ("s1", "subject"), ("s2", "subject"), ("s3", "subject"),
             ("c1", "conference"), ("c2", "conference")]

TOY_EDGES = [("a1", "p1", "AP"), ("a2", "p1", "AP"), ("a2", "p2", "AP"),
             ("a3", "p3", "AP"), ("a3", "p5", "AP"), ("a4", "p5", "AP"),
             ("p1", "s1", "PS"), ("p2", "s1", "PS"), ("p3", "s3", "PS"),
             ("p4", "s3", "PS"), ("p5", "s2", "PS"),
             ("p1", "c1", "PC"), ("p2", "c1", "PC"), ("p3", "c1", "PC"),
             ("p4", "c2", "PC"), ("p5", "c2", "PC")]

APA = MetapathSpec("APA", ("AP", "AP"))
APSPA = MetapathSpec("APSPA", ("AP", "PS", "PS", "AP"))
APCPA = MetapathSpec("APCPA", ("AP", "PC", "PC", "AP"))


def write_toy_files(dirpath, features=None, labels=None):
    """Materialize the toy network in the on-disk input formats."""
    paths = {name: os.path.join(dirpath, f"{name}.tsv")
             for name in ("nodes", "edges", "labels")}
    paths["features"] = os.path.join(dirpath, "features.bin")
    with open(paths["nodes"], "w", encoding="utf-8") as fh:
        for node_id, type_name in TOY_NODES:
            fh.write(f"{node_id}\t{type_name}\n")
    with open(paths["edges"], "w", encoding="utf-8") as fh:
        for src, dst, rel in TOY_EDGES:
            fh.write(f"{src}\t{dst}\t{rel}\n")
    if features is None:
        features = np.arange(8, dtype=np.float64).reshape(4, 2) + 1.0
    write_matrix(paths["features"], features)
    if labels is not None:
        with open(paths["labels"], "w", encoding="utf-8") as fh:
            for i, label in enumerate(labels):
                fh.write(f"a{i + 1}\t{label}\n")
    else:
        paths["labels"] = None
    return paths


@pytest.fixture
def toy_paths(tmp_path):
    return write_toy_files(str(tmp_path))


@pytest.fixture
def toy_hin(toy_paths):
    return load_hin(toy_paths["nodes"], toy_paths["edges"],
                    toy_paths["features"], toy_paths["labels"], TOY_SCHEMA)


def build_hin(schema, counts, edges, features, labels=None):
    """Assemble a HIN in memory: edges are (relation, src_idx, dst_idx).
    Returns the HIN and the string ids of each type, in index order, that
    its input files would use."""
    node_ids = {t: [f"{t}{i}" for i in range(counts.get(t, 0))]
                for t in schema.types}
    biadjacency = {}
    for rel in schema.relations:
        rows = [e[1] for e in edges if e[0] == rel.name]
        cols = [e[2] for e in edges if e[0] == rel.name]
        mat = sp.csr_matrix(
            (np.ones(len(rows)), (rows, cols)),
            shape=(counts[rel.src], counts[rel.dst]), dtype=np.float64)
        biadjacency[rel.name] = mat.indptr, mat.indices, mat.shape
    return HIN(schema=schema, biadjacency=biadjacency, views={},
               features=np.asarray(features, dtype=np.float64),
               labels=labels), node_ids


def relation_matrix(hin, name):
    """Relation `name` of `hin` as the binary float64 CSR its arrays
    describe, built as view extraction builds it."""
    indptr, indices, shape = hin.biadjacency[name]
    return sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=shape)


def brute_force_view(hin, spec):
    """Path-enumeration oracle: walk every typed path, connect endpoints."""
    schema = hin.schema
    steps = []
    current = schema.target_type
    for rel_name in spec.relations:
        rel = schema.relation(rel_name)
        coo = relation_matrix(hin, rel_name).tocoo()
        neighbors = {}
        if current == rel.src:
            for i, j in zip(coo.row, coo.col):
                neighbors.setdefault(int(i), set()).add(int(j))
            current = rel.dst
        elif current == rel.dst:
            for i, j in zip(coo.row, coo.col):
                neighbors.setdefault(int(j), set()).add(int(i))
            current = rel.src
        else:
            raise AssertionError(f"oracle chain broken at {rel_name}")
        steps.append(neighbors)
    assert current == schema.target_type
    n = hin.n_target
    adj = np.zeros((n, n))
    for start in range(n):
        frontier = {start}
        for neighbors in steps:
            frontier = set().union(
                *(neighbors.get(u, set()) for u in frontier)) if frontier else set()
        for end in frontier:
            if end != start:
                adj[start, end] = 1.0
    return np.maximum(adj, adj.T)


def append_tensor(blob, name, array):
    """HGM1 bytes `blob` with one more tensor written after its last, under
    `name` whether or not the file already holds one of that name."""
    (count,) = struct.unpack_from("<I", blob, 4)
    arr = np.asarray(array, dtype="<f8")
    encoded = name.encode("utf-8")
    return (blob[:4] + struct.pack("<I", count + 1) + blob[8:]
            + struct.pack("<H", len(encoded)) + encoded
            + struct.pack("<II", *arr.shape) + arr.tobytes())


def view_from_adjacency(adjacency, features, name="m"):
    """A view over `adjacency`, a dense or sparse symmetric 0/1 matrix with
    a zero diagonal: its upper triangle, row by row, is the edge list, in
    the CSR's index dtype as `extract_metapath_view` gives it."""
    adjacency = sp.csr_matrix(adjacency, dtype=np.float64)
    assert (adjacency != adjacency.T).nnz == 0, "adjacency must be symmetric"
    assert not adjacency.diagonal().any(), "adjacency must have a zero diagonal"
    upper = sp.triu(adjacency, k=1, format="csr")
    upper.sort_indices()
    rows = np.repeat(np.arange(upper.shape[0], dtype=upper.indices.dtype),
                     np.diff(upper.indptr))
    return MetapathView(edges=np.stack((rows, upper.indices)),
                        features=np.asarray(features, dtype=np.float64),
                        metapath=MetapathSpec(name, ("R", "R")))


def adjacency_of(view):
    """The view's symmetric binary adjacency as a float64 CSR matrix."""
    n = view.n_nodes
    i, j = view.edges
    return sp.csr_matrix((np.ones(2 * view.n_edges),
                          (np.concatenate((i, j)), np.concatenate((j, i)))),
                         shape=(n, n))


def metapath_neighbors(view, node):
    """Sorted neighbor ids of `node` in the view."""
    row = adjacency_of(view).getrow(node)
    return sorted(int(j) for j in row.indices)


def random_typed_case(rng):
    """A random small typed graph, its string ids as `build_hin` returns
    them, and a type-correct metapath."""
    variant = rng.integers(4)
    n_t = int(rng.integers(2, 21))
    n_u = int(rng.integers(1, 16))
    density = float(rng.uniform(0.05, 0.4))

    def bernoulli_edges(rel, n_src, n_dst):
        mask = rng.random((n_src, n_dst)) < density
        return [(rel, int(i), int(j)) for i, j in zip(*np.nonzero(mask))]

    if variant == 0:
        schema = SchemaConfig(types=("t", "u"),
                              relations=(RelationDecl("R0", "t", "u"),),
                              target_type="t")
        counts = {"t": n_t, "u": n_u}
        edges = bernoulli_edges("R0", n_t, n_u)
        spec = MetapathSpec("m", ("R0", "R0"))
    elif variant == 1:
        n_v = int(rng.integers(1, 11))
        schema = SchemaConfig(types=("t", "u", "v"),
                              relations=(RelationDecl("R0", "t", "u"),
                                         RelationDecl("R1", "u", "v")),
                              target_type="t")
        counts = {"t": n_t, "u": n_u, "v": n_v}
        edges = bernoulli_edges("R0", n_t, n_u) + bernoulli_edges("R1", n_u, n_v)
        spec = MetapathSpec("m", ("R0", "R1", "R1", "R0"))
    elif variant == 2:
        # non-palindromic chain; may produce an asymmetric product
        schema = SchemaConfig(types=("t", "u"),
                              relations=(RelationDecl("R0", "t", "u"),
                                         RelationDecl("R1", "u", "t")),
                              target_type="t")
        counts = {"t": n_t, "u": n_u}
        edges = bernoulli_edges("R0", n_t, n_u) + bernoulli_edges("R1", n_u, n_t)
        spec = MetapathSpec("m", ("R0", "R1"))
    else:
        schema = SchemaConfig(types=("t", "u"),
                              relations=(RelationDecl("R0", "t", "u"),),
                              target_type="t")
        counts = {"t": n_t, "u": n_u}
        edges = bernoulli_edges("R0", n_t, n_u)
        spec = MetapathSpec("m", ("R0", "R0", "R0", "R0"))
    features = rng.standard_normal((n_t, 3))
    return (*build_hin(schema, counts, edges, features), spec)


def reference_rows(path, n_fields):
    """The per-line text reader: the oracle of `hin._read_rows`. Yields
    (line number, fields) per non-blank line as the file is iterated; a
    line that is not UTF-8 is a fault of that line."""
    try:
        fh = open(path, "r", encoding="utf-8", errors="surrogateescape")
    except FileNotFoundError as exc:
        raise MalformedRecord(f"file not found: {path}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedRecord(
                    f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != n_fields:
                raise MalformedRecord(
                    f"{path}:{lineno}: expected {n_fields} tab-separated fields, "
                    f"got {len(fields)}")
            yield lineno, fields


def reference_load_hin(node_file, edge_file, feature_file, label_file,
                       schema):
    """The per-line parser: the oracle of `load_hin`. Checks each line as
    it is read, so its first error is the earliest faulty line's. Labels
    and `features.tsv` go through hin's own checks, fed by the per-line
    reader. Returns the HIN and the string ids of each type in index
    order."""
    node_ids = {t: [] for t in schema.types}
    index = {}
    for lineno, (node_id, type_name) in reference_rows(node_file, 2):
        if type_name not in node_ids:
            raise UnknownType(f"{node_file}:{lineno}: unknown type {type_name!r}")
        if node_id in index:
            raise DuplicateNodeId(f"{node_file}:{lineno}: duplicate id {node_id!r}")
        index[node_id] = (type_name, len(node_ids[type_name]))
        node_ids[type_name].append(node_id)

    edges = {r.name: ([], []) for r in schema.relations}
    for lineno, (src, dst, rel_name) in reference_rows(edge_file, 3):
        if rel_name not in edges:
            raise UnknownRelation(f"{edge_file}:{lineno}: unknown relation {rel_name!r}")
        decl = schema.relation(rel_name)
        for node in (src, dst):
            if node not in index:
                raise UnknownNode(f"{edge_file}:{lineno}: unknown node {node!r}")
        (src_type, src_idx), (dst_type, dst_idx) = index[src], index[dst]
        if (src_type, dst_type) != (decl.src, decl.dst):
            raise EndpointTypeMismatch(
                f"{edge_file}:{lineno}: relation {rel_name!r} declared "
                f"({decl.src}, {decl.dst}), edge has ({src_type}, {dst_type})")
        edges[rel_name][0].append(src_idx)
        edges[rel_name][1].append(dst_idx)

    biadjacency = {}
    for decl in schema.relations:
        rows, cols = edges[decl.name]
        shape = (len(node_ids[decl.src]), len(node_ids[decl.dst]))
        mat = sp.csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=shape, dtype=np.float64)
        biadjacency[decl.name] = mat.indptr, mat.indices, mat.shape

    row_of = {node_id: k for k, node_id
              in enumerate(node_ids[schema.target_type])}
    with mock.patch.object(hin_module, "_read_rows", reference_rows):
        features = _load_features(feature_file, row_of)
        labels = None
        if label_file is not None:
            labels = _load_labels(label_file, row_of)
    return HIN(schema=schema, biadjacency=biadjacency, views={},
               features=features, labels=labels), node_ids


def reference_load_positives(path, n):
    """`load_positives` fed by the per-line reader: its oracle."""
    with mock.patch.object(positives_module, "_read_rows", reference_rows):
        return load_positives(path, n)


def reference_plant_pairs(rng, block_of, p_intra, p_inter):
    """One scalar draw per pair in row-major order: the oracle of
    `synth.plant_pairs`."""
    n = block_of.size
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            p = p_intra if block_of[i] == block_of[j] else p_inter
            if rng.random() < p:
                pairs.append((i, j))
    return pairs


def dense_ppr_series(view, alpha, tol=1e-6, max_iter=100):
    """The PPR series on a densified transition, dense n x n matmul per
    term: the oracle of `ppr_matrix`. Keeps five n x n arrays alive."""
    dense = adjacency_of(view).toarray()
    n = dense.shape[0]
    degrees = dense.sum(axis=0)
    transition = np.divide(dense, np.where(degrees > 0, degrees, 1.0))
    for j in np.flatnonzero(degrees == 0):
        transition[j, j] = 1.0
    term = alpha * np.eye(n)
    total = term.copy()
    k = 0
    while np.abs(term).max() >= tol and k < max_iter:
        k += 1
        term = (1.0 - alpha) * (transition @ term)
        total += term
    return DiffusionMatrix(values=total, iterations=k,
                           error_bound=(1.0 - alpha) ** (k + 1),
                           converged=bool(np.abs(term).max() < tol))


# -- the view operators on a symmetric CSR adjacency: oracles that the
# -- edge-list operators must match bit for bit ------------------------------

def csr_drop_edges(adjacency, p_e, rng):
    """Edge dropping on a symmetric CSR: one uniform per upper-triangle
    entry, in the order `triu` lists them."""
    n = adjacency.shape[0]
    upper = sp.triu(adjacency, k=1).tocoo()
    keep = rng.random(upper.nnz) >= p_e
    rows = upper.row[keep]
    cols = upper.col[keep]
    return sp.csr_matrix(
        (np.ones(2 * rows.size),
         (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(n, n), dtype=np.float64)


def csr_gcn_normalize(adjacency):
    """D^-1/2 (A+I) D^-1/2 by sparse products, indices sorted."""
    n = adjacency.shape[0]
    a_hat = (adjacency + sp.eye(n, format="csr")).tocsr()
    degrees = np.asarray(a_hat.sum(axis=1)).ravel()
    scaling = sp.diags(1.0 / np.sqrt(degrees))
    normalized = (scaling @ a_hat @ scaling).tocsr()
    normalized.sort_indices()
    return normalized


def csr_transition(adjacency):
    """A D^-1 by scaling the CSR's data, plus a sparse diagonal of 1 for
    the isolated nodes."""
    adjacency = sp.csr_matrix(adjacency, dtype=np.float64)
    degrees = np.asarray(adjacency.sum(axis=0)).ravel()
    isolated = degrees == 0
    safe = np.where(isolated, 1.0, degrees)
    scaled = sp.csr_matrix(
        (adjacency.data / safe[adjacency.indices], adjacency.indices,
         adjacency.indptr), shape=adjacency.shape)
    return (scaled + sp.diags(isolated.astype(np.float64), format="csr")
            if isolated.any() else scaled)


def csr_ppr_values(adjacency, alpha, tol=1e-6, max_iter=100):
    """The blocked PPR series of `positives.ppr_matrix` on `csr_transition`."""
    transition = csr_transition(adjacency)
    n = transition.shape[0]
    width = positives_module.BLOCK_COLUMNS
    if transition.nnz * positives_module.DENSE_ABOVE > n * n:
        transition = transition.toarray()
        width = n
    total = alpha * np.eye(n)
    starts = range(0, n, width)
    blocks = [total[:, start:start + width].copy() for start in starts]
    largest = alpha
    k = 0
    while largest >= tol and k < max_iter:
        k += 1
        largest = 0.0
        for i, start in enumerate(starts):
            term = transition @ blocks[i]
            term *= 1.0 - alpha
            total[:, start:start + term.shape[1]] += term
            largest = max(largest, term.max())
            blocks[i] = term
    return total


def oracle_graphs():
    """(label, dense symmetric 0/1 adjacency) per case: random graphs of
    several densities, some with isolated nodes, the empty view, n = 1
    and sparse graphs large enough for the PPR's sparse branch."""
    rng = substream(0, "oracle graphs")
    cases = [("n=1", np.zeros((1, 1))), ("empty", np.zeros((9, 9))),
             ("pair", np.array([[0.0, 1.0], [1.0, 0.0]]))]
    for trial in range(40):
        n = int(rng.integers(2, 40)) if trial < 30 else int(rng.integers(150, 260))
        density = float(rng.uniform(0.02, 0.6)) if trial < 30 else 0.01
        upper = np.triu(rng.random((n, n)) < density, k=1)
        dense = (upper | upper.T).astype(np.float64)
        isolated = int(rng.integers(0, n // 3 + 1))
        if isolated:
            dense[-isolated:, :] = dense[:, -isolated:] = 0.0
        cases.append((f"trial {trial}", dense))
    return cases


def assert_same_csr(got, want, what):
    """Equal format, shape, index arrays and data bytes."""
    assert (got.format, got.shape) == (want.format, want.shape), what
    for part in ("indptr", "indices", "data"):
        mine, theirs = getattr(got, part), getattr(want, part)
        assert mine.dtype == theirs.dtype, f"{what}: {part} dtype"
        assert mine.tobytes() == theirs.tobytes(), f"{what}: {part}"


def assert_same_transition(got, adjacency, what):
    """`positives._transition` against `csr_transition(adjacency)`: above
    the density cutoff a C-ordered float64 array with the oracle's dense
    bits, below it the oracle's CSR. Returns whether the side was dense."""
    want = csr_transition(adjacency)
    n = want.shape[0]
    dense = want.nnz * positives_module.DENSE_ABOVE > n * n
    if dense:
        assert isinstance(got, np.ndarray), f"{what}: not a dense array"
        assert (got.dtype, got.shape) == (want.dtype, want.shape), what
        assert got.flags.c_contiguous, f"{what}: not C-ordered"
        assert got.tobytes() == want.toarray().tobytes(), f"{what}: values"
    else:
        assert_same_csr(got, want, what)
    return dense


def per_anchor_top_k(row, anchor, k):
    """The k best ids of one similarity row, anchor excluded: score
    descending, then id ascending."""
    if k == 0:
        return np.empty(0, dtype=np.int64)
    candidates = np.delete(np.arange(row.size, dtype=np.int64), anchor)
    order = np.lexsort((candidates, -row[candidates]))
    return candidates[order[:k]]


def per_anchor_positives(sim_t, sim_s, k_t, k_s):
    """One top-k per anchor and channel, then a set union: the oracle of
    `select_positives`."""
    sets = []
    for u in range(sim_t.shape[0]):
        merged = np.union1d(np.union1d(per_anchor_top_k(sim_t[u], u, k_t),
                                       per_anchor_top_k(sim_s[u], u, k_s)),
                            np.array([u], dtype=np.int64))
        sets.append(merged.astype(np.int64))
    return positive_sets(sets)


def positive_sets(sets):
    """PositiveSets from per-anchor ids built in code, each set sorted and
    its repeats dropped, as the library's producers give them."""
    sets = [np.unique(np.asarray(ids, dtype=np.int64)) for ids in sets]
    indptr = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum([ids.size for ids in sets], out=indptr[1:])
    return PositiveSets(indptr=indptr,
                        indices=np.concatenate([np.empty(0, np.int64), *sets]))


def anchor_only(n):
    """Each anchor alone in its set: what `select_positives` gives with
    k_t = k_s = 0."""
    return positive_sets([[u] for u in range(n)])


def oracle_mask(sets):
    """Boolean (n,n) csr_array, mask[u,v] = v in sets[u], made from the
    (anchor, id) pairs with `sum_duplicates`: the oracle of the CSR arrays
    `PositiveSets` holds."""
    sizes = [len(ids) for ids in sets]
    rows = np.repeat(np.arange(len(sets)), sizes)
    cols = np.concatenate(sets) if sets else np.empty(0, dtype=np.int64)
    out = sp.csr_array((np.ones(rows.size, dtype=bool), (rows, cols)),
                       shape=(len(sets), len(sets)))
    out.sum_duplicates()  # sorted, unique ids per row
    return out


def dense_mask(positives):
    """(n,n) boolean, mask[u,v] = v in P_u."""
    mask = np.zeros((positives.n, positives.n), dtype=bool)
    mask[np.repeat(np.arange(positives.n), np.diff(positives.indptr)),
         positives.indices] = True
    return mask


# -- tape ops the library does not need: with the library's own ops they
# -- compose the reference tape below and the per-op gradient cases ---------

def sub(a, b):
    if a.shape != b.shape:
        raise nm.ShapeMismatch(f"sub {a.shape} vs {b.shape}")

    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g)

    return nm._make(a.data - b.data, (a, b), grad_fn)


def mul(a, b):
    if a.shape != b.shape:
        raise nm.ShapeMismatch(f"mul {a.shape} vs {b.shape}")

    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return nm._make(a.data * b.data, (a, b), grad_fn)


def add_const(a, k):
    """Add a non-differentiated constant (broadcastable array)."""
    k = np.asarray(k, dtype=np.float64)

    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(g)

    return nm._make(a.data + k, (a,), grad_fn)


def mul_const(a, k):
    """Multiply by a non-differentiated constant (e.g. a 0/1 mask)."""
    k = np.asarray(k, dtype=np.float64)

    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(g * k)

    return nm._make(a.data * k, (a,), grad_fn)


def sigmoid(a):
    out = nm._stable_sigmoid(a.data)

    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(g * out * (1.0 - out))

    return nm._make(out, (a,), grad_fn)


def exp(a):
    out = np.exp(a.data)
    if not np.all(np.isfinite(out)):
        raise NonFiniteResult("exp overflow")

    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(g * out)

    return nm._make(out, (a,), grad_fn)


def log(a):
    # epsilon-clamped; gradient is 0 where the clamp is active
    clamped = np.maximum(a.data, LOG_EPS)
    mask = a.data > LOG_EPS

    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(g * mask / clamped)

    return nm._make(np.log(clamped), (a,), grad_fn)


def row_sum(a):
    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(g, a.shape))

    return nm._make(a.data.sum(axis=1, keepdims=True), (a,), grad_fn)


def row_l2_normalize(a):
    norms = np.linalg.norm(a.data, axis=1, keepdims=True)
    norms = np.maximum(norms, LOG_EPS)
    out = a.data / norms

    def grad_fn(g):
        if a.requires_grad:
            inner = (g * out).sum(axis=1, keepdims=True)
            a._accumulate((g - inner * out) / norms)

    return nm._make(out, (a,), grad_fn)


def grad_check(f, params, eps=1e-5):
    """Max relative error |g_ad - g_fd| / max(1, |g_fd|) over all entries.

    `f` must be a pure scalar-valued closure over `params`; it is re-run
    with central perturbations of every parameter entry.
    """
    params = list(params)
    for p in params:
        p.grad = None
    f().backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]
    worst = 0.0
    for p, g_ad in zip(params, analytic):
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            f_plus = f().item()
            flat[i] = original - eps
            f_minus = f().item()
            flat[i] = original
            g_fd = (f_plus - f_minus) / (2.0 * eps)
            err = abs(g_ad.reshape(-1)[i] - g_fd) / max(1.0, abs(g_fd))
            worst = max(worst, err)
    return worst


def tape_node_node_loss(z_m, z_n, positives, tau):
    """Node-node loss composed from dense tape ops: the fused op's oracle.

    Keeps ~24 n x n float64 arrays alive until backward, so use it on
    small n only.
    """
    n = z_m.shape[0]
    pos_mask = dense_mask(positives).astype(np.float64)
    neg_mask = 1.0 - pos_mask

    norm_m = row_l2_normalize(z_m)
    norm_n = row_l2_normalize(z_n)
    logits_mn = nm.scale(nm.matmul(norm_m, nm.transpose(norm_n)), 1.0 / tau)
    logits_mm = nm.scale(nm.matmul(norm_m, nm.transpose(norm_m)), 1.0 / tau)

    # log-sum-exp shift, detached: the true gradient is unchanged by it
    shift = np.maximum(logits_mn.data.max(axis=1), logits_mm.data.max(axis=1))
    shift = shift.reshape(n, 1)
    exp_mn = exp(add_const(logits_mn, -shift))
    exp_mm = exp(add_const(logits_mm, -shift))

    positive_mass = row_sum(mul_const(exp_mn, pos_mask))
    negative_mass = nm.add(row_sum(mul_const(exp_mm, neg_mask)),
                           row_sum(mul_const(exp_mn, neg_mask)))
    denominator = nm.add(positive_mass, negative_mass)
    per_anchor = sub(log(denominator), log(positive_mass))
    return nm.mean_all(per_anchor)


def two_pass_node_node_loss(z_m, z_n, positives, tau):
    """The chunked node-node op with a dense positive mask, whose backward
    recomputes every block's logits and exponentials: the one-pass
    kernel's oracle. Holds an n x n boolean mask, so use it on small n.
    """
    n = z_m.shape[0]
    mask = dense_mask(positives)
    inv_tau = 1.0 / tau
    unit_m, norms_m = objective_module._unit_rows(z_m.data)
    unit_n, norms_n = objective_module._unit_rows(z_n.data)
    keys = np.concatenate([unit_n, unit_m])
    chunk = objective_module.CHUNK
    blocks = [slice(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]

    shift = np.empty((n, 1))
    pos_mass = np.empty((n, 1))
    denominator = np.empty((n, 1))
    for rows in blocks:
        exps = objective_module._logits(unit_m[rows], keys, inv_tau)
        shift[rows] = exps.max(axis=1, keepdims=True)
        exps -= shift[rows]
        np.exp(exps, out=exps)
        if not np.all(np.isfinite(exps)):
            raise NonFiniteResult("exp overflow")
        pos, neg = mask[rows], ~mask[rows]
        exp_mn, exp_mm = exps[:, :n], exps[:, n:]
        pos_mass[rows, 0] = (exp_mn * pos).sum(axis=1)
        denominator[rows, 0] = pos_mass[rows, 0] + (
            (exp_mm * neg).sum(axis=1) + (exp_mn * neg).sum(axis=1))
    per_anchor = (np.log(np.maximum(denominator, LOG_EPS))
                  - np.log(np.maximum(pos_mass, LOG_EPS)))

    def grad_fn(g):
        g0 = g[0, 0] / n
        g_den = np.where(denominator > LOG_EPS,
                         g0 / np.maximum(denominator, LOG_EPS), 0.0)
        g_pos = g_den - np.where(pos_mass > LOG_EPS,
                                 g0 / np.maximum(pos_mass, LOG_EPS), 0.0)
        grad_unit_m = np.zeros_like(unit_m)
        grad_keys = np.zeros_like(keys)
        for rows in blocks:
            exps = objective_module._logits(unit_m[rows], keys, inv_tau)
            exps -= shift[rows]
            np.exp(exps, out=exps)
            pos = mask[rows]
            exps[:, :n] *= np.where(pos, g_pos[rows], g_den[rows])
            exps[:, n:] *= np.where(pos, 0.0, g_den[rows])
            exps *= inv_tau
            grad_unit_m[rows] += exps @ keys
            grad_keys += exps.T @ unit_m[rows]
        grad_unit_m += grad_keys[n:]
        for z, unit, norms, grad_unit in ((z_m, unit_m, norms_m, grad_unit_m),
                                          (z_n, unit_n, norms_n, grad_keys[:n])):
            if z.requires_grad:
                inner = (grad_unit * unit).sum(axis=1, keepdims=True)
                z._accumulate((grad_unit - inner * unit) / norms)

    return nm._make(np.array([[per_anchor.mean()]]), (z_m, z_n), grad_fn)


def code_objects(module):
    """(owner, code) per code object of the functions and classes that
    `module` defines, nested functions and methods included; `owner` is
    the name of the module-level function or class that holds it."""
    owners = [(name, value) for name, value in vars(module).items()
              if getattr(value, "__module__", None) == module.__name__]
    stack = [(name, value.__code__) for name, value in owners
             if hasattr(value, "__code__")]
    stack += [(name, member.__code__) for name, value in owners
              if isinstance(value, type) for member in vars(value).values()
              if hasattr(member, "__code__")]
    while stack:
        owner, code = stack.pop()
        yield owner, code
        stack += [(owner, const) for const in code.co_consts
                  if hasattr(const, "co_names")]


def load_pipebench(name):
    """The benchmark harness module pipebench/<name>.py, loaded by path."""
    module_name = f"pipebench_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            module_name, os.path.join(REPO, "pipebench", f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module  # dataclasses look the module up
        spec.loader.exec_module(module)
    return sys.modules[module_name]


def per_run_softmax_regression(x, y, classes, epochs=300, lr=1e-2):
    """One probe fitted on its own: the oracle of
    `evaluate._fit_softmax_regressions`, per run."""
    weight = nm.Tensor(np.zeros((x.shape[1], classes)), requires_grad=True)
    bias = nm.Tensor(np.zeros((1, classes)), requires_grad=True)
    optimizer = nm.AdamState([weight, bias], lr=lr)
    onehot = np.zeros((y.size, classes))
    onehot[np.arange(y.size), y] = 1.0
    for _ in range(epochs):
        logits = x @ weight.data + bias.data
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = exp / exp.sum(axis=1, keepdims=True)
        residual = (probs - onehot) / y.size
        weight.grad = x.T @ residual
        bias.grad = residual.sum(axis=0, keepdims=True)
        optimizer.step()
    return weight.data, bias.data


def per_run_linear_probe(embeddings, labels, train_frac, seeds):
    """Draw a seed's split, fit its probe, score it, then the next seed:
    the oracle of `evaluate.linear_probe`."""
    x = np.asarray(embeddings, dtype=np.float64)
    _, y = np.unique(np.asarray(labels), return_inverse=True)
    classes = int(y.max()) + 1
    n_train = min(max(1, int(round(train_frac * y.size))), y.size - 1)
    scores = []
    for seed in seeds:
        for attempt in range(10):
            perm = substream(seed, "split", attempt).permutation(y.size)
            train_idx, test_idx = perm[:n_train], perm[n_train:]
            if np.unique(y[train_idx]).size == classes:
                break
        else:
            raise evaluate_module.DegenerateSplit(
                f"seed {seed}: some class missing from every candidate split")
        weight, bias = per_run_softmax_regression(x[train_idx], y[train_idx],
                                                  classes)
        pred = np.argmax(x[test_idx] @ weight + bias, axis=1)
        scores.append(evaluate_module.micro_f1(pred, y[test_idx]))
    return scores


def numerics_grad_cases():
    """One scalar-valued closure per differentiable op, inputs in [-2, 2]."""

    def param(shape, label, lo=-2.0, hi=2.0, away_from=None):
        rng = substream(7, "gradcase", label)
        data = rng.uniform(lo, hi, size=shape)
        if away_from is not None:
            # keep inputs clear of the kink for finite differences
            data = np.where(np.abs(data - away_from) < 1e-2,
                            data + 2e-2, data)
        return nm.Tensor(data, requires_grad=True)

    cases = []

    def case(name, build):
        cases.append((name, build))

    def c_matmul():
        a, b = param((3, 4), "mm_a"), param((4, 2), "mm_b")
        return lambda: nm.mean_all(nm.matmul(a, b)), [a, b]
    case("matmul", c_matmul)

    def c_spmm():
        dense = (substream(7, "gradcase", "sp").random((4, 4)) < 0.5) * 1.0
        s = sp.csr_matrix(dense)
        x = param((4, 3), "sp_x")
        return lambda: nm.mean_all(nm.spmm(s, x)), [x]
    case("spmm", c_spmm)

    def c_add():
        a, b = param((3, 3), "add_a"), param((3, 3), "add_b")
        return lambda: nm.mean_all(nm.add(a, b)), [a, b]
    case("add", c_add)

    def c_sub():
        a, b = param((3, 3), "sub_a"), param((3, 3), "sub_b")
        return lambda: nm.mean_all(sub(a, b)), [a, b]
    case("sub", c_sub)

    def c_mul():
        a, b = param((3, 3), "mul_a"), param((3, 3), "mul_b")
        return lambda: nm.mean_all(mul(a, b)), [a, b]
    case("mul", c_mul)

    def c_scale():
        a = param((3, 3), "scale_a")
        return lambda: nm.mean_all(nm.scale(a, -1.7)), [a]
    case("scale", c_scale)

    def c_add_bias():
        a, b = param((4, 3), "ab_a"), param((1, 3), "ab_b")
        return lambda: nm.mean_all(nm.add_bias(a, b)), [a, b]
    case("add_bias", c_add_bias)

    def c_add_const():
        a = param((3, 3), "ac_a")
        return lambda: nm.mean_all(add_const(a, 0.9)), [a]
    case("add_const", c_add_const)

    def c_mul_const():
        a = param((3, 3), "mc_a")
        k = substream(7, "gradcase", "mc_k").uniform(-2, 2, size=(3, 3))
        return lambda: nm.mean_all(mul_const(a, k)), [a]
    case("mul_const", c_mul_const)

    def c_relu():
        a = param((4, 4), "relu_a", away_from=0.0)
        return lambda: nm.mean_all(nm.relu(a)), [a]
    case("relu", c_relu)

    def c_sigmoid():
        a = param((4, 4), "sig_a")
        return lambda: nm.mean_all(sigmoid(a)), [a]
    case("sigmoid", c_sigmoid)

    def c_exp():
        a = param((4, 4), "exp_a")
        return lambda: nm.mean_all(exp(a)), [a]
    case("exp", c_exp)

    def c_log():
        a = param((4, 4), "log_a", lo=0.1, hi=2.0)
        return lambda: nm.mean_all(log(a)), [a]
    case("log", c_log)

    def c_softplus():
        a = param((4, 4), "sp_a")
        return lambda: nm.mean_all(nm.softplus(a)), [a]
    case("softplus", c_softplus)

    def c_transpose():
        a = param((3, 5), "tr_a")
        w = substream(7, "gradcase", "tr_w").uniform(-1, 1, size=(5, 3))
        return lambda: nm.mean_all(mul_const(nm.transpose(a), w)), [a]
    case("transpose", c_transpose)

    def c_row_sum():
        a = param((4, 3), "rs_a")
        return lambda: nm.mean_all(exp(row_sum(a))), [a]
    case("row_sum", c_row_sum)

    def c_mean_rows():
        a = param((4, 3), "mr_a")
        return lambda: nm.mean_all(exp(nm.mean_rows(a))), [a]
    case("mean_rows", c_mean_rows)

    def c_mean_all():
        a = param((4, 3), "ma_a")
        return lambda: exp(nm.mean_all(a)), [a]
    case("mean_all", c_mean_all)

    def c_row_l2_normalize():
        a = param((4, 3), "l2_a", lo=0.2, hi=1.5)
        w = substream(7, "gradcase", "l2_w").uniform(-1, 1, size=(4, 3))
        return lambda: nm.mean_all(mul_const(row_l2_normalize(a), w)), [a]
    case("row_l2_normalize", c_row_l2_normalize)

    def c_permute_rows():
        a = param((5, 3), "pr_a")
        perm = substream(7, "gradcase", "pr_p").permutation(5)
        w = substream(7, "gradcase", "pr_w").uniform(-1, 1, size=(5, 3))
        return lambda: nm.mean_all(
            mul_const(nm.permute_rows(a, perm), w)), [a]
    case("permute_rows", c_permute_rows)

    def c_bilinear():
        h = param((3, 4), "bl_h")
        b = param((4, 4), "bl_b")
        s = param((1, 4), "bl_s")
        return lambda: nm.mean_all(sigmoid(nm.bilinear(h, b, s))), [h, b, s]
    case("bilinear", c_bilinear)

    return cases
