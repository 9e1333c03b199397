"""The planted-block generator against its one-draw-per-pair oracle."""

import dataclasses
import os

import numpy as np
import pytest

from hgcml import io, synth
from hgcml.rng import substream
from hgcml.synth import SynthConfig

from conftest import reference_plant_pairs

CONFIGS = {
    "default": SynthConfig(),
    "p0": SynthConfig(p_intra=0.0, p_inter=0.0, seed=3),
    "p1": SynthConfig(blocks=2, block_size=9, p_intra=1.0, p_inter=1.0, seed=4),
    "one-node": SynthConfig(blocks=1, block_size=1, feature_dim=1, seed=5),
    "int-probabilities": SynthConfig(blocks=2, block_size=25, p_intra=1,
                                     p_inter=0, seed=2),
    "four-blocks": SynthConfig(blocks=4, block_size=25, metapaths=3,
                               p_intra=0.2, p_inter=0.05, seed=11),
    "sparse": SynthConfig(blocks=3, block_size=60, p_intra=0.05,
                          p_inter=0.005, seed=1),
}


@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
def test_generate_matches_one_draw_per_pair(cfg, tmp_path, monkeypatch):
    fast = synth.generate(cfg, tmp_path / "rows")
    monkeypatch.setattr(synth, "plant_pairs", reference_plant_pairs)
    slow = synth.generate(cfg, tmp_path / "pairs")
    assert fast.keys() == slow.keys()
    for name in fast:
        with open(fast[name], "rb") as a, open(slow[name], "rb") as b:
            assert a.read() == b.read(), name


@pytest.mark.parametrize("seed", [0, 7, 19])
def test_plant_pairs_matches_oracle_and_leaves_the_stream_aligned(seed):
    cfg = dataclasses.replace(CONFIGS["four-blocks"], seed=seed)
    block_of = np.repeat(np.arange(cfg.blocks), cfg.block_size)
    rows = substream(seed, "synth", "edges", 0)
    pairs = substream(seed, "synth", "edges", 0)
    assert (synth.plant_pairs(rows, block_of, cfg.p_intra, cfg.p_inter)
            == reference_plant_pairs(pairs, block_of, cfg.p_intra, cfg.p_inter))
    assert rows.random() == pairs.random()


class FullDiskFile:
    """A text file whose first write stores half its text, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, text):
        self._fh.write(text[:len(text) // 2])
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    real_open = open

    def open_failing_labels(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return FullDiskFile(fh) if "labels.tsv" in os.fspath(path) else fh

    for module in (io, synth):  # whichever one opens the file
        monkeypatch.setattr(module, "open", open_failing_labels, raising=False)
    with pytest.raises(OSError, match="No space left"):
        synth.generate(SynthConfig(), tmp_path / "killed")
    monkeypatch.undo()
    written = sorted(os.listdir(tmp_path / "killed"))
    assert written == ["edges.tsv", "features.bin", "nodes.tsv"]
    synth.generate(SynthConfig(), tmp_path / "clean")
    for name in written:
        with open(tmp_path / "killed" / name, "rb") as a, \
                open(tmp_path / "clean" / name, "rb") as b:
            assert a.read() == b.read(), name
