"""Binary file formats shared across the pipeline.

HGF1 (feature/embedding matrices): magic "HGF1", rows u32-LE, cols u32-LE,
then rows*cols f32-LE values row-major.

HGM1 (checkpoints): magic "HGM1", count u32-LE, then per tensor:
name length u16-LE, name bytes (UTF-8), rows u32-LE, cols u32-LE,
rows*cols f64-LE values row-major. No two tensors share a name.

The pipeline stages and `synth` write every file through `atomic_open`,
so a killed command leaves the previous file or none, never a truncated one.
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

MAGIC_MATRIX = b"HGF1"
MAGIC_CHECKPOINT = b"HGM1"


class FormatError(ValueError):
    """A binary file does not match its declared layout."""


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file next to `path` for writing and move it onto
    `path` with `os.replace` once the block ends. If the block raises, the
    temporary file is removed and `path` is left as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_matrix(path, array) -> None:
    arr = np.ascontiguousarray(np.asarray(array, dtype=np.float32))
    if arr.ndim != 2:
        raise FormatError(f"matrix file needs a 2-D array, got shape {arr.shape}")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC_MATRIX)
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes(order="C"))


def read_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC_MATRIX:
        raise FormatError(f"{path}: bad magic, expected HGF1")
    if len(blob) < 12:
        raise FormatError(f"{path}: truncated header")
    rows, cols = struct.unpack("<II", blob[4:12])
    expected = 12 + 4 * rows * cols
    if len(blob) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(blob)}")
    data = np.frombuffer(blob, dtype="<f4", offset=12, count=rows * cols)
    return data.reshape(rows, cols).copy()


def write_checkpoint(path, named_arrays) -> None:
    """Write an ordered mapping of name -> 2-D float64 array."""
    items = list(named_arrays.items())
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC_CHECKPOINT)
        fh.write(struct.pack("<I", len(items)))
        for name, array in items:
            arr = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
            if arr.ndim != 2:
                raise FormatError(f"checkpoint tensor {name!r} must be 2-D")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
            fh.write(arr.tobytes(order="C"))


def read_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC_CHECKPOINT:
        raise FormatError(f"{path}: bad magic, expected HGM1")
    if len(blob) < 8:
        raise FormatError(f"{path}: truncated header")
    (count,) = struct.unpack("<I", blob[4:8])
    out: dict[str, np.ndarray] = {}
    offset = 8
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset : offset + name_len]
            offset += name_len
            rows, cols = struct.unpack_from("<II", blob, offset)
            offset += 8
            data = np.frombuffer(blob, dtype="<f8", offset=offset, count=rows * cols)
            offset += 8 * rows * cols
            name = name.decode("utf-8")  # last: a name cut short is truncation
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: tensor name is not UTF-8") from exc
        except (struct.error, ValueError) as exc:
            raise FormatError(f"{path}: truncated checkpoint") from exc
        if name in out:
            raise FormatError(f"{path}: tensor {name!r} repeated")
        out[name] = data.reshape(rows, cols).copy()
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes")
    return out
