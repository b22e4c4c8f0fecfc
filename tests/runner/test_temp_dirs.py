"""The runner removes the temp dirs it makes and keeps the dirs it is given."""

import os
import tempfile

import pytest

from repro.api import Experiment
from repro.runner.service import Coordinator, ServiceConfig


@pytest.fixture
def made(tmp_path, monkeypatch):
    """Run under a private TMPDIR; returns the list of dirs mkdtemp made."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setenv("TMPDIR", str(root))
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    paths = []
    mkdtemp = tempfile.mkdtemp

    def recording_mkdtemp(*args, **kwargs):
        paths.append(mkdtemp(*args, **kwargs))
        return paths[-1]

    monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
    return paths


def _left(paths):
    return [p for p in paths if os.path.exists(p)]


def test_coordinator_stop_removes_only_the_dirs_it_made(made, tmp_path):
    coordinator = Coordinator(ServiceConfig(cache_dir=str(tmp_path / "cache")))
    coordinator.start()
    assert sorted(made) == sorted(
        [coordinator.checkpoint_dir, coordinator.progress_dir]
    )
    assert all(os.path.isdir(p) for p in made)
    coordinator.stop()
    assert made and _left(made) == []

    given = tmp_path / "given"
    coordinator = Coordinator(
        ServiceConfig(
            cache_dir=str(tmp_path / "cache"),
            checkpoint_dir=str(given / "ckpt"),
            progress_dir=str(given / "progress"),
        )
    )
    coordinator.start()
    coordinator.stop()
    assert sorted(os.listdir(given)) == ["ckpt", "progress"]


def test_pool_sweep_removes_the_checkpoint_dir_it_made(made, tmp_path):
    experiment = Experiment(
        protocol="twobit", n_processors=2, refs_per_proc=300, warmup_refs=50
    )
    grid = {"q": [0.01, 0.05]}
    experiment.sweep(grid, workers=2, use_cache=False, checkpoint_every=100)
    assert [os.path.basename(p)[:12] for p in made] == ["repro-sweep-"]
    assert _left(made) == []

    given = tmp_path / "shards"
    experiment.sweep(
        grid, workers=2, use_cache=False, checkpoint_every=100,
        checkpoint_dir=str(given),
    )
    assert given.is_dir()
    assert len(made) == 1
