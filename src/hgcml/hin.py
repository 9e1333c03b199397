"""Heterogeneous graph loading, validation, and metapath view extraction.

A heterogeneous information network (HIN) carries typed nodes and typed
relations (|types| + |relations| > 2). Node ids in the input files are
opaque strings; after loading, each type gets its own dense 0-based index
space that preserves input order, and the target type's indices are the
row indices used by features, labels, positives, and embeddings.

A relation is held as the arrays of its binary CSR biadjacency,
`(indptr, indices, shape)`. A metapath view is the homogeneous graph over
target nodes whose edges connect endpoints of at least one path instance
of the metapath. It is computed as the binarized product of the relations'
sparse matrices; each step traverses its relation forward or backward,
whichever continues the chain from the current node type. A view holds
only its edge list, which every consumer reads: `prepare`, edge dropping,
the GCN and PPR.

`prepare` writes the features, labels and each metapath's view to a cache
(`write_graph`) keyed by `graph_key`, the SHA-256 of everything `load_hin`
reads and of the metapaths; later stages take the graph, views included,
from `read_graph` only when the key matches and parse otherwise.

`scipy.sparse` is imported only by `load_hin` and the metapath product, so
reading the cache imports no scipy module.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import io

BLOCK_CHARS = 1 << 16  # characters read per block of a text input's lines
ID = re.compile(r"[0-9]+")  # class ids and node indices: ASCII digits only
IDS = re.compile(r"[0-9]+(?:,[0-9]+)*")  # comma-separated IDs
CACHE_TAG = b"hgcml graph cache 3\n"  # first bytes hashed into every key


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
    target_type: str
    relations: tuple[RelationDecl, ...] = ()

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
    """Homogeneous view over the n = len(features) target nodes: `edges`
    is (2, m), each undirected edge once as (i, j), i < j, in row-major
    order, as `view_<name>.tsv` lists them; X is shared."""

    edges: np.ndarray
    features: np.ndarray
    metapath: MetapathSpec

    def __post_init__(self):
        edges, n = self.edges, self.n_nodes
        if (edges.ndim != 2 or edges.shape[0] != 2
                or not np.issubdtype(edges.dtype, np.integer)):
            raise HinError("view edges must be a (2, m) integer array")
        if edges.size:
            i, j = edges
            if i.min() < 0 or j.max() >= n or (i >= j).any():
                raise HinError(f"view edges must be pairs 0 <= i < j < {n}")
            if (np.diff(i.astype(np.int64) * n + j) <= 0).any():
                raise HinError("view edges must be unique, in row-major order")

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[1]

    def coo(self, loops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of each edge both ways and of a self-loop at each node
        in `loops`, in the edges' dtype (a COO takes them without a copy) and
        so ordered that every row's columns ascend (its CSR comes out sorted)."""
        i, j = self.edges
        loops = loops.astype(i.dtype, copy=False)
        return np.concatenate((j, loops, i)), np.concatenate((i, loops, j))


@dataclass
class HIN:
    """A typed graph; the input's string ids exist only while parsing."""

    schema: SchemaConfig
    # relation -> (indptr, indices, (N_src, N_dst)) of its binary CSR; parsed only
    biadjacency: dict[str, tuple[np.ndarray, np.ndarray, tuple[int, int]]]
    views: dict[str, MetapathView]  # metapath name -> view; read from the cache only
    features: np.ndarray                      # (N_target, d_in) float64
    labels: np.ndarray | None = None          # (N_target,) int64, -1 = unlabeled

    @property
    def n_target(self) -> int:
        return self.features.shape[0]


def _read_rows(path, n_fields: int):
    """Yield (line number, fields) per non-blank line, up to the first
    line with another field count, whose MalformedRecord is then raised."""
    for linenos, columns, fault in _read_columns(path, n_fields):
        yield from zip(linenos.tolist(), zip(*columns))
        if fault is not None:
            raise fault


def _blocks(path):
    """Yield (number of its first line, text) per block of whole lines.

    `text` joins the block's lines with "\n". Reads BLOCK_CHARS characters
    at a time in text mode, so lines split exactly as iterating the file
    splits them.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError as exc:
        raise MalformedRecord(f"file not found: {path}") from exc
    with fh:
        lineno, parts = 1, []
        try:
            while chunk := fh.read(BLOCK_CHARS):
                cut = chunk.rfind("\n")
                if cut < 0:
                    parts.append(chunk)
                    continue
                parts.append(chunk[:cut])
                text = "".join(parts)
                parts = [chunk[cut + 1:]]
                yield lineno, text
                lineno += text.count("\n") + 1
        except UnicodeDecodeError:
            text, fault = _undecodable(path, lineno)
            yield lineno, text
            raise fault from None
        tail = "".join(parts)
        if tail:
            yield lineno, tail


def _undecodable(path, lineno: int):
    """The lines from `lineno` up to the first one that is not UTF-8, as
    `_blocks` text, and that line's MalformedRecord. Newline bytes never
    sit inside a multi-byte character, so a file is UTF-8 iff its lines are.
    """
    with open(path, "rb") as fh:
        lines = re.split(rb"\r\n|\r|\n", fh.read())[lineno - 1:]
    for k, line in enumerate(lines):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            return b"\n".join(lines[:k]).decode("utf-8"), MalformedRecord(
                f"{path}:{lineno + k}: not UTF-8 text ({exc.reason})")


def _read_columns(path, n_fields: int):
    """Yield (line numbers, columns, fault) per block of `_blocks(path)`.

    Blank lines are skipped. `fault` is the MalformedRecord of the block's
    first line with another field count, or None; the block's columns then
    stop before that line and no block follows. The caller runs its own
    checks on the columns first, since an earlier line's fault wins.
    """
    for first, text in _blocks(path):
        # tabs and line lengths from the UTF-8 bytes, where no multi-byte
        # character holds a tab or newline byte
        raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        ends = np.append(np.flatnonzero(raw == 10), raw.size)
        tabs = np.diff(np.searchsorted(np.flatnonzero(raw == 9), ends), prepend=0)
        blank = np.diff(ends, prepend=-1) == 1
        fault = None
        count = ends.size
        wrong = _first((tabs != n_fields - 1) & ~blank)
        if wrong is not None:
            fault = MalformedRecord(
                f"{path}:{first + wrong}: expected {n_fields} tab-separated "
                f"fields, got {tabs[wrong] + 1}")
            count = wrong
        keep = np.flatnonzero(~blank[:count])
        if keep.size < ends.size:
            lines = text.split("\n")
            text = "\n".join(lines[k] for k in keep.tolist())
        fields = text.replace("\n", "\t").split("\t") if keep.size else []
        yield first + keep, [fields[j::n_fields] for j in range(n_fields)], fault
        if fault is not None:
            return


def _codes(keys, table: dict) -> np.ndarray:
    """table[key] per key, -1 where the key is missing."""
    return np.fromiter(map(table.get, keys, repeat(-1)), np.intp, len(keys))


def _first(mask) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _read_nodes(path, schema: SchemaConfig):
    """Node ids in input order, their type codes, and id -> position."""
    type_code = {t: k for k, t in enumerate(schema.types)}
    position: dict[str, int] = {}
    ids: list[str] = []
    types = []
    for linenos, (block_ids, names), fault in _read_columns(path, 2):
        codes = _codes(names, type_code)
        size = len(position)
        position.update(zip(block_ids, range(size, size + len(block_ids))))
        unknown = _first(codes < 0)
        duplicate = None
        if len(position) < size + len(block_ids):
            seen = set(ids)
            for j, node_id in enumerate(block_ids):
                if node_id in seen:
                    duplicate = j
                    break
                seen.add(node_id)
        if unknown is not None and (duplicate is None or unknown <= duplicate):
            raise UnknownType(f"{path}:{linenos[unknown]}: "
                              f"unknown type {names[unknown]!r}")
        if duplicate is not None:
            raise DuplicateNodeId(f"{path}:{linenos[duplicate]}: "
                                  f"duplicate id {block_ids[duplicate]!r}")
        if fault is not None:
            raise fault
        ids += block_ids
        types.append(codes)
    return ids, np.concatenate(types + [np.empty(0, np.intp)]), position


def _read_edges(path, schema: SchemaConfig, node_type, position):
    """Relation code, source and target position of every edge line."""
    rel_code = {r.name: k for k, r in enumerate(schema.relations)}
    # endpoint types per relation code and node position; the extra last
    # entry serves code -1
    rel_src = np.array([schema.types.index(r.src) for r in schema.relations]
                       + [-1])
    rel_dst = np.array([schema.types.index(r.dst) for r in schema.relations]
                       + [-1])
    node_type = np.append(node_type, -1)
    edges = [np.empty((3, 0), dtype=np.intp)]
    for linenos, (srcs, dsts, rels), fault in _read_columns(path, 3):
        rel, src, dst = (_codes(rels, rel_code), _codes(srcs, position),
                         _codes(dsts, position))
        bad = _first((rel < 0) | (src < 0) | (dst < 0)
                     | (node_type[src] != rel_src[rel])
                     | (node_type[dst] != rel_dst[rel]))
        if bad is not None:
            where = f"{path}:{linenos[bad]}"
            if rel[bad] < 0:
                raise UnknownRelation(f"{where}: unknown relation {rels[bad]!r}")
            for node, code in ((srcs[bad], src[bad]), (dsts[bad], dst[bad])):
                if code < 0:
                    raise UnknownNode(f"{where}: unknown node {node!r}")
            decl = schema.relations[rel[bad]]
            raise EndpointTypeMismatch(
                f"{where}: relation {rels[bad]!r} declared ({decl.src}, "
                f"{decl.dst}), edge has ({schema.types[node_type[src[bad]]]}, "
                f"{schema.types[node_type[dst[bad]]]})")
        if fault is not None:
            raise fault
        edges.append(np.stack((rel, src, dst)))
    return np.concatenate(edges, axis=1)


def load_hin(node_file, edge_file, feature_file, label_file,
             schema: SchemaConfig) -> HIN:
    """Load and validate a HIN from the TSV/binary files.

    Node and edge lines are parsed a block at a time and checked as arrays.
    A fault is reported for the earliest faulty line, and within one line
    in the order a per-line reader would check it: field count, then node
    type and duplicate id, or relation, endpoints known, endpoint types.
    """
    import scipy.sparse as sp

    ids, node_type, position = _read_nodes(node_file, schema)
    within = np.empty(len(ids), dtype=np.intp)   # index within its type
    size = {}
    for k, t in enumerate(schema.types):
        members = np.flatnonzero(node_type == k)
        within[members] = np.arange(members.size)
        size[t] = members.size
        if t == schema.target_type:  # the ids features and labels name
            row_of = dict(zip(map(ids.__getitem__, members.tolist()),
                              range(members.size)))
    rel, src, dst = _read_edges(edge_file, schema, node_type, position)

    biadjacency = {}
    for k, decl in enumerate(schema.relations):
        mine = rel == k
        mat = sp.csr_matrix(  # duplicate edge records sum into one entry
            (np.ones(int(mine.sum())), (within[src[mine]], within[dst[mine]])),
            shape=(size[decl.src], size[decl.dst]), dtype=np.float64)
        biadjacency[decl.name] = mat.indptr, mat.indices, mat.shape

    features = _load_features(feature_file, row_of)
    labels = None if label_file is None else _load_labels(label_file, row_of)
    return HIN(schema=schema, biadjacency=biadjacency, views={},
               features=features, labels=labels)


def _load_features(path, row_of: dict[str, int]) -> np.ndarray:
    path = str(path)
    if not os.path.exists(path):
        raise FeatureRowMissing(f"features file not found: {path}")
    if path.endswith(".tsv"):
        rows: dict[int, np.ndarray] = {}
        dim = None
        for lineno, (node_id, values) in _read_rows(path, 2):
            row = row_of.get(node_id)
            if row is None:
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
            if row in rows:
                raise MalformedRecord(f"{path}:{lineno}: node {node_id!r} repeated")
            rows[row] = vec
        missing = [node_id for node_id, k in row_of.items() if k not in rows]
        if missing:
            raise FeatureRowMissing(f"{path}: no feature row for {missing[0]!r}")
        matrix = np.vstack([rows[i] for i in range(len(row_of))])
    else:
        try:
            matrix = io.read_matrix(path).astype(np.float64)
        except io.FormatError as exc:
            raise MalformedRecord(str(exc)) from exc
        if matrix.shape[0] != len(row_of):
            raise FeatureRowMissing(
                f"{path}: {matrix.shape[0]} rows for {len(row_of)} target nodes")
    if not np.all(np.isfinite(matrix)):
        raise MalformedRecord(f"{path}: non-finite feature values")
    return matrix


def _load_labels(path, row_of: dict[str, int]) -> np.ndarray:
    labels = np.full(len(row_of), -1, dtype=np.int64)
    seen = set()
    for lineno, (node_id, class_id) in _read_rows(path, 2):
        row = row_of.get(node_id)
        if row is None:
            raise UnknownNode(f"{path}:{lineno}: {node_id!r} is not a target-type node")
        if not ID.fullmatch(class_id):
            raise MalformedRecord(
                f"{path}:{lineno}: class id {class_id!r} is not ASCII digits")
        try:
            labels[row] = int(class_id)
        except (ValueError, OverflowError) as exc:  # int() takes <= 4300 digits
            raise MalformedRecord(f"{path}:{lineno}: class id outside int64") from exc
        if row in seen:
            raise MalformedRecord(f"{path}:{lineno}: node {node_id!r} repeated")
        seen.add(row)
    return labels


def graph_key(node_file, edge_file, feature_file, label_file,
              schema: SchemaConfig, metapaths: tuple[MetapathSpec, ...]) -> bytes:
    """SHA-256 of what the graph cache is made from: a format tag, the
    schema and the metapaths as canonical JSON, each data file's content
    digest with how it is parsed (the features file by its suffix), and a
    marker for absent labels. Raises OSError when a file cannot be read."""
    key = hashlib.sha256(CACHE_TAG)
    key.update(json.dumps([dataclasses.asdict(x) for x in (schema, *metapaths)],
                          sort_keys=True).encode())
    features_as = "tsv" if str(feature_file).endswith(".tsv") else "binary"
    for role, path in (("nodes", node_file), ("edges", edge_file),
                       (f"features {features_as}", feature_file),
                       ("labels", label_file)):
        key.update(f"\n{role}\n".encode())
        key.update(b"absent" if path is None else _file_digest(path))
    return key.digest()


def _file_digest(path) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.digest()


def write_graph(path, hin: HIN, views: list[MetapathView], key: bytes) -> None:
    """The graph cache: HGM1 tensors `key` (1x32 bytes), `features`,
    `labels` (2xN, when present) and per view `view.<metapath name>`
    (2xm). Integers are stored as float64, which is exact below 2**53, so
    each class id is stored as its high and low 32-bit words."""
    tensors = {"key": np.frombuffer(key, np.uint8)[None], "features": hin.features}
    if hin.labels is not None:
        tensors["labels"] = _label_words(hin.labels)
    for view in views:
        tensors[f"view.{view.metapath.name}"] = view.edges
    io.write_checkpoint(path, tensors)


def read_graph(path, key: bytes, schema: SchemaConfig,
               metapaths: tuple[MetapathSpec, ...]) -> HIN | None:
    """The graph `write_graph` stored at `path`, with the views of `metapaths`
    and no relation; None if the file is missing or unreadable, its key is not
    `key`, or its other tensors are not just valid views and label words."""
    try:
        tensors = io.read_checkpoint(path)
    except (OSError, io.FormatError):
        return None
    if not np.array_equal(tensors.pop("key", None), np.frombuffer(key, np.uint8)[None]):
        return None
    try:
        features = tensors.pop("features")
        labels = tensors.pop("labels", None)
        if labels is not None:
            words = _integers(labels)
            high, low = words
            labels = (high << 32) | low
            # a word out of its range does not come back from its label
            if (labels.size != features.shape[0]
                    or not np.array_equal(_label_words(labels), words)):
                return None
        views = {spec.name: MetapathView(_integers(tensors.pop(f"view.{spec.name}")),
                                         features, spec) for spec in metapaths}
        if tensors:  # a tensor no metapath claims
            return None
    except (KeyError, ValueError, HinError):
        return None
    return HIN(schema=schema, biadjacency={}, views=views, features=features,
               labels=labels)


def _label_words(labels: np.ndarray) -> np.ndarray:
    """(2,N) high and low 32-bit words of int64 labels, each exact in f64."""
    return np.stack((labels >> 32, labels & 0xFFFFFFFF))


def _integers(values: np.ndarray) -> np.ndarray:
    """`values` as int64; ValueError if one is not an integer (1.5, NaN)."""
    with np.errstate(invalid="ignore"):
        ints = values.astype(np.int64)
    if not np.array_equal(ints, values):
        raise ValueError("a cached value is not an integer")
    return ints


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
    """The view `hin` holds for `spec` if read from the cache, else the
    binarized metapath product over target nodes; zero diagonal, symmetric."""
    if spec.name in hin.views:
        return hin.views[spec.name]
    import scipy.sparse as sp

    steps = resolve_chain(hin.schema, spec)
    product = None
    for rel_name, reverse in steps:
        indptr, indices, shape = hin.biadjacency[rel_name]
        mat = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=shape)
        mat = mat.T.tocsr() if reverse else mat
        product = mat if product is None else product @ mat
    # binarize (neighbor sets, not path counts) and drop self-loops
    coo = product.tocoo()
    off_diag = (coo.row != coo.col) & (coo.data > 0)
    n = product.shape[0]
    adj = sp.csr_matrix(
        (np.ones(int(off_diag.sum())), (coo.row[off_diag], coo.col[off_diag])),
        shape=(n, n), dtype=np.float64)
    if (adj != adj.T).nnz:
        warnings.warn(
            f"metapath {spec.name!r} product is asymmetric; symmetrizing",
            AsymmetricViewWarning, stacklevel=2)
        adj = adj + adj.T
    if adj.nnz == 0:
        warnings.warn(f"metapath {spec.name!r} view has no edges",
                      EmptyViewWarning, stacklevel=2)
    # the upper triangle of the canonical CSR, row by row, in its index dtype
    rows = np.repeat(np.arange(n, dtype=adj.indices.dtype), np.diff(adj.indptr))
    upper = adj.indices > rows
    edges = np.stack((rows[upper], adj.indices[upper]))
    return MetapathView(edges=edges, features=hin.features, metapath=spec)
