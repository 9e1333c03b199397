"""Heterogeneous graph loading, validation, and metapath view extraction.

A heterogeneous information network (HIN) carries typed nodes and typed
relations (|types| + |relations| > 2). Node ids in the input files are
opaque strings; after loading, each type gets its own dense 0-based index
space that preserves input order, and the target type's indices are the
row indices used by features, labels, positives, and embeddings.

A metapath view is the homogeneous graph over target nodes whose edges
connect endpoints of at least one path instance of the metapath. It is
computed as the binarized product of per-relation biadjacency matrices;
each step traverses its relation forward or backward, whichever continues
the chain from the current node type.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import io


class HinError(Exception):
    """Base class for graph loading/validation failures."""


class MalformedRecord(HinError):
    pass


class UnknownType(HinError):
    pass


class UnknownRelation(HinError):
    pass


class UnknownNode(HinError):
    pass


class EndpointTypeMismatch(HinError):
    pass


class DuplicateNodeId(HinError):
    pass


class FeatureRowMissing(HinError):
    pass


class TypeChainBroken(HinError):
    pass


class EmptyViewWarning(UserWarning):
    """A metapath view came out with zero edges."""


class AsymmetricViewWarning(UserWarning):
    """A metapath product was asymmetric and has been symmetrized."""


@dataclass(frozen=True)
class RelationDecl:
    name: str
    src: str
    dst: str


@dataclass(frozen=True)
class SchemaConfig:
    """Declared node types, relations with endpoints, and the target type."""

    types: tuple[str, ...]
    relations: tuple[RelationDecl, ...]
    target_type: str

    def __post_init__(self):
        if len(set(self.types)) != len(self.types):
            raise UnknownType("duplicate type names in schema")
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise UnknownRelation("duplicate relation names in schema")
        if self.target_type not in self.types:
            raise UnknownType(f"target type {self.target_type!r} not declared")
        for rel in self.relations:
            for endpoint in (rel.src, rel.dst):
                if endpoint not in self.types:
                    raise UnknownType(
                        f"relation {rel.name!r} endpoint {endpoint!r} not declared")
        if len(self.types) + len(self.relations) <= 2:
            raise UnknownType("schema is homogeneous: |types| + |relations| must exceed 2")

    def relation(self, name: str) -> RelationDecl:
        for rel in self.relations:
            if rel.name == name:
                return rel
        raise UnknownRelation(f"relation {name!r} not declared")


@dataclass(frozen=True)
class MetapathSpec:
    """Named ordered relation chain starting and ending at the target type."""

    name: str
    relations: tuple[str, ...]


@dataclass
class MetapathView:
    """Homogeneous view over target nodes: symmetric binary A, shared X."""

    adjacency: sp.csr_matrix
    features: np.ndarray
    metapath: MetapathSpec

    def __post_init__(self):
        n = self.adjacency.shape[0]
        if self.adjacency.shape != (n, n):
            raise HinError("view adjacency must be square")
        if self.features.shape[0] != n:
            raise HinError(
                f"feature rows {self.features.shape[0]} != view nodes {n}")
        if self.adjacency.diagonal().any():
            raise HinError("view adjacency must have a zero diagonal")
        if (self.adjacency != self.adjacency.T).nnz:
            raise HinError("view adjacency must be symmetric")

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        return self.adjacency.nnz // 2


@dataclass
class HIN:
    schema: SchemaConfig
    node_ids: dict[str, list[str]]            # type -> original ids, input order
    biadjacency: dict[str, sp.csr_matrix]     # relation -> (N_src, N_dst) binary
    features: np.ndarray                      # (N_target, d_in) float64
    labels: np.ndarray | None = None          # (N_target,) int64, -1 = unlabeled
    index: dict[str, tuple[str, int]] = field(default_factory=dict)

    @property
    def target_type(self) -> str:
        return self.schema.target_type

    @property
    def n_target(self) -> int:
        return len(self.node_ids[self.schema.target_type])

    def count(self, type_name: str) -> int:
        return len(self.node_ids.get(type_name, ()))


def _read_rows(path, n_fields: int):
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError as exc:
        raise MalformedRecord(f"file not found: {path}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != n_fields:
                raise MalformedRecord(
                    f"{path}:{lineno}: expected {n_fields} tab-separated fields, "
                    f"got {len(fields)}")
            yield lineno, fields


def load_hin(node_file, edge_file, feature_file, label_file,
             schema: SchemaConfig) -> HIN:
    """Load and validate a HIN from the TSV/binary files."""
    node_ids: dict[str, list[str]] = {t: [] for t in schema.types}
    index: dict[str, tuple[str, int]] = {}
    for lineno, (node_id, type_name) in _read_rows(node_file, 2):
        if type_name not in node_ids:
            raise UnknownType(f"{node_file}:{lineno}: unknown type {type_name!r}")
        if node_id in index:
            raise DuplicateNodeId(f"{node_file}:{lineno}: duplicate id {node_id!r}")
        index[node_id] = (type_name, len(node_ids[type_name]))
        node_ids[type_name].append(node_id)

    edges: dict[str, tuple[list[int], list[int]]] = {
        r.name: ([], []) for r in schema.relations}
    for lineno, (src, dst, rel_name) in _read_rows(edge_file, 3):
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
        mat.data[:] = 1.0  # collapse duplicate edge records
        biadjacency[decl.name] = mat

    features = _load_features(feature_file, schema, node_ids, index)
    labels = None
    if label_file is not None:
        labels = _load_labels(label_file, schema, index,
                              len(node_ids[schema.target_type]))
    return HIN(schema=schema, node_ids=node_ids, biadjacency=biadjacency,
               features=features, labels=labels, index=index)


def _load_features(path, schema, node_ids, index) -> np.ndarray:
    targets = node_ids[schema.target_type]
    path = str(path)
    if not os.path.exists(path):
        raise FeatureRowMissing(f"features file not found: {path}")
    if path.endswith(".tsv"):
        rows: dict[int, np.ndarray] = {}
        dim = None
        for lineno, (node_id, values) in _read_rows(path, 2):
            entry = index.get(node_id)
            if entry is None or entry[0] != schema.target_type:
                raise UnknownNode(
                    f"{path}:{lineno}: {node_id!r} is not a target-type node")
            try:
                vec = np.array([float(v) for v in values.split(",")], dtype=np.float64)
            except ValueError as exc:
                raise MalformedRecord(f"{path}:{lineno}: non-numeric feature") from exc
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise MalformedRecord(
                    f"{path}:{lineno}: feature length {vec.size} != {dim}")
            rows[entry[1]] = vec
        missing = [targets[i] for i in range(len(targets)) if i not in rows]
        if missing:
            raise FeatureRowMissing(f"{path}: no feature row for {missing[0]!r}")
        matrix = np.vstack([rows[i] for i in range(len(targets))])
    else:
        try:
            matrix = io.read_matrix(path).astype(np.float64)
        except io.FormatError as exc:
            raise MalformedRecord(str(exc)) from exc
        if matrix.shape[0] != len(targets):
            raise FeatureRowMissing(
                f"{path}: {matrix.shape[0]} rows for {len(targets)} target nodes")
    if not np.all(np.isfinite(matrix)):
        raise MalformedRecord(f"{path}: non-finite feature values")
    return matrix


def _load_labels(path, schema, index, n_target) -> np.ndarray:
    labels = np.full(n_target, -1, dtype=np.int64)
    for lineno, (node_id, class_id) in _read_rows(path, 2):
        entry = index.get(node_id)
        if entry is None or entry[0] != schema.target_type:
            raise UnknownNode(f"{path}:{lineno}: {node_id!r} is not a target-type node")
        try:
            labels[entry[1]] = int(class_id)
        except ValueError as exc:
            raise MalformedRecord(f"{path}:{lineno}: non-integer class id") from exc
    return labels


def resolve_chain(schema: SchemaConfig, spec: MetapathSpec) -> list[tuple[str, bool]]:
    """Type-check a metapath; returns (relation, reversed) per step.

    Each step continues from the current node type, traversing the
    relation forward if its source matches or backward if its destination
    matches (so palindromic chains like APA reuse the one declared AP).
    """
    if not spec.relations:
        raise TypeChainBroken(f"metapath {spec.name!r} has no relations")
    current = schema.target_type
    steps: list[tuple[str, bool]] = []
    for rel_name in spec.relations:
        decl = schema.relation(rel_name)
        if current == decl.src:
            steps.append((rel_name, False))
            current = decl.dst
        elif current == decl.dst:
            steps.append((rel_name, True))
            current = decl.src
        else:
            raise TypeChainBroken(
                f"metapath {spec.name!r}: relation {rel_name!r} "
                f"({decl.src}, {decl.dst}) does not continue from {current!r}")
    if current != schema.target_type:
        raise TypeChainBroken(
            f"metapath {spec.name!r} ends at {current!r}, "
            f"not the target type {schema.target_type!r}")
    return steps


def extract_metapath_view(hin: HIN, spec: MetapathSpec) -> MetapathView:
    """Binarized metapath product over target nodes; zero diagonal, symmetric."""
    steps = resolve_chain(hin.schema, spec)
    product = None
    for rel_name, reverse in steps:
        mat = hin.biadjacency[rel_name]
        mat = mat.T.tocsr() if reverse else mat
        product = mat if product is None else product @ mat
    # binarize (neighbor sets, not path counts) and drop self-loops
    coo = product.tocoo()
    off_diag = (coo.row != coo.col) & (coo.data > 0)
    n = product.shape[0]
    adj = sp.csr_matrix(
        (np.ones(int(off_diag.sum())), (coo.row[off_diag], coo.col[off_diag])),
        shape=(n, n), dtype=np.float64)
    adj.data[:] = 1.0
    if (adj != adj.T).nnz:
        warnings.warn(
            f"metapath {spec.name!r} product is asymmetric; symmetrizing",
            AsymmetricViewWarning, stacklevel=2)
        adj = ((adj + adj.T) > 0).astype(np.float64).tocsr()
    if adj.nnz == 0:
        warnings.warn(f"metapath {spec.name!r} view has no edges",
                      EmptyViewWarning, stacklevel=2)
    return MetapathView(adjacency=adj, features=hin.features, metapath=spec)
