"""Atomic artifact writes: a writer that fails leaves the old file."""

import os
import struct

import numpy as np
import pytest

from conftest import append_tensor
from hgcml.io import (FormatError, atomic_open, read_checkpoint, read_matrix,
                      write_checkpoint, write_matrix)


def test_atomic_open_replaces_the_file_on_success(tmp_path):
    path = tmp_path / "out.tsv"
    path.write_text("old\n", encoding="utf-8")
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("new\n")
        assert path.read_text(encoding="utf-8") == "old\n"  # not yet moved
    assert path.read_text(encoding="utf-8") == "new\n"
    assert os.listdir(tmp_path) == ["out.tsv"]


@pytest.mark.parametrize("previous", [b"old bytes\n", None])
def test_writer_raising_mid_write_leaves_the_previous_file(tmp_path, previous):
    path = tmp_path / "out.bin"
    if previous is not None:
        path.write_bytes(previous)
    with pytest.raises(RuntimeError, match="killed"):
        with atomic_open(path, "wb") as fh:
            fh.write(b"half of the new")
            fh.flush()
            raise RuntimeError("killed")
    assert (path.read_bytes() if path.exists() else None) == previous
    assert os.listdir(tmp_path) == ([] if previous is None else ["out.bin"])


def test_checkpoint_writer_failing_on_a_later_tensor_keeps_the_old_file(tmp_path):
    path = tmp_path / "model.bin"
    write_checkpoint(path, {"w": np.ones((2, 3))})
    before = path.read_bytes()
    with pytest.raises(FormatError, match="must be 2-D"):
        write_checkpoint(path, {"w": np.zeros((2, 3)), "bad": np.zeros((2, 2, 2))})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.bin"]
    assert np.array_equal(read_checkpoint(path)["w"], np.ones((2, 3)))



@pytest.mark.parametrize("fmt", ["HGM1", "HGF1"])
def test_every_strict_prefix_of_a_valid_file_raises_format_error(tmp_path, fmt):
    """A file cut anywhere, inside the header included, is a FormatError,
    which the stages map to exit 2 and the graph cache to a parse."""
    path = tmp_path / "file.bin"
    if fmt == "HGM1":
        write_checkpoint(path, {"w": np.ones((2, 3)), "empty": np.zeros((0, 3)),
                                "b": np.full((1, 2), 0.5)})
        read = read_checkpoint
    else:
        write_matrix(path, np.arange(6.0).reshape(2, 3))
        read = read_matrix
    blob = path.read_bytes()
    read(path)
    for size in range(len(blob)):
        path.write_bytes(blob[:size])
        with pytest.raises(FormatError):
            read(path)


def test_checkpoint_with_a_repeated_tensor_name_raises_format_error(tmp_path):
    path = tmp_path / "model.bin"
    write_checkpoint(path, {"w": np.ones((2, 3)), "b": np.zeros((1, 3))})
    blob = path.read_bytes()
    path.write_bytes(append_tensor(blob, "v", np.zeros((2, 3))))
    assert list(read_checkpoint(path)) == ["w", "b", "v"]
    path.write_bytes(append_tensor(blob, "w", np.zeros((2, 3))))
    with pytest.raises(FormatError, match="tensor 'w' repeated"):
        read_checkpoint(path)


def test_checkpoint_tensor_name_that_is_not_utf8_raises_format_error(tmp_path):
    """A whole name whose bytes do not decode is its own fault, not a
    truncated file; it is still a FormatError, so the stages exit 2."""
    path = tmp_path / "m.bin"
    path.write_bytes(b"HGM1" + struct.pack("<IH", 1, 1) + b"\xff"
                     + struct.pack("<II", 1, 1) + struct.pack("<d", 1.0))
    with pytest.raises(FormatError) as raised:
        read_checkpoint(path)
    assert str(raised.value) == f"{path}: tensor name is not UTF-8"
