"""Sweep runner: execution, caching, invalidation, parallel workers."""

import importlib.util
import time

import pytest

from repro.runner import (
    DuplicatePointLabelError,
    ResultCache,
    SweepError,
    SweepPoint,
    WithMetrics,
    code_version,
    run_sweep,
)
from repro.api import Experiment
from repro.runner.scheduler import Scheduler
from repro.runner.sweep import _label_str
from repro.runner import cache as cache_mod


# Module-level so the process pool can pickle them by reference.
def square(x, seed=0):
    return x * x + seed


def boom(x):
    raise ValueError(f"bad point {x}")


def nap(x, duration):
    time.sleep(duration)
    return x


def _points(xs):
    return [SweepPoint(square, {"x": x, "seed": 0}, key=x) for x in xs]


def test_results_in_point_order(tmp_path):
    report = run_sweep(_points([3, 1, 2]), cache_dir=tmp_path, label="t")
    assert report.results == [9, 1, 4]
    assert report.by_key == {3: 9, 1: 1, 2: 4}
    assert report.cache_hits == 0
    assert report.executed == 3


def test_second_invocation_hits_cache(tmp_path):
    first = run_sweep(_points([1, 2, 3]), cache_dir=tmp_path, label="t")
    second = run_sweep(_points([1, 2, 3]), cache_dir=tmp_path, label="t")
    assert first.results == second.results
    assert second.cache_hits == 3
    assert second.executed == 0
    assert "3 cached, 0 executed" in second.summary()


def test_partial_cache_reuse(tmp_path):
    run_sweep(_points([1, 2]), cache_dir=tmp_path, label="t")
    report = run_sweep(_points([1, 2, 5]), cache_dir=tmp_path, label="t")
    assert report.results == [1, 4, 25]
    assert report.cache_hits == 2
    assert report.executed == 1


def test_kwarg_change_misses_cache(tmp_path):
    run_sweep([SweepPoint(square, {"x": 2, "seed": 0})], cache_dir=tmp_path)
    report = run_sweep(
        [SweepPoint(square, {"x": 2, "seed": 10})], cache_dir=tmp_path
    )
    assert report.cache_hits == 0
    assert report.results == [14]


def test_code_version_change_invalidates(tmp_path):
    cache = ResultCache(tmp_path, version="v1")
    key = cache.key_for(square, {"x": 2})
    cache.put(key, 4)
    assert cache.get(key) == (True, 4)
    stale = ResultCache(tmp_path, version="v2")
    hit, _ = stale.get(stale.key_for(square, {"x": 2}))
    assert not hit
    # The real version digest is tied to the repro source tree.
    assert ResultCache(tmp_path).version == code_version()


def _load_module(path, name="fakebench"):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_editing_point_module_invalidates(tmp_path):
    # code_version() only covers repro/ itself, but the benches that
    # define point functions live outside it: their source must be part
    # of the key, or editing a bench silently serves stale results.
    mod_path = tmp_path / "fakebench.py"
    mod_path.write_text("REF = 2\n\ndef run(x):\n    return x * REF\n")
    before = _load_module(mod_path)
    cache = ResultCache(tmp_path / "cache", version="v1")
    key_before = cache.key_for(before.run, {"x": 1})

    # Edit a module-level constant the function reads (not its kwargs).
    mod_path.write_text("REF = 3\n\ndef run(x):\n    return x * REF\n")
    cache_mod._fn_fingerprints.clear()  # a fresh process has no memo
    after = _load_module(mod_path)
    assert cache.key_for(after.run, {"x": 1}) != key_before


def test_cache_clear_and_wipe(tmp_path):
    cache = ResultCache(tmp_path, version="v1")
    cache.put(cache.key_for(square, {"x": 1}), 1)
    cache.put(cache.key_for(square, {"x": 2}), 4)
    assert len(cache) == 2
    assert cache.clear() == 2
    assert len(cache) == 0
    assert cache.get(cache.key_for(square, {"x": 1})) == (False, None)


@pytest.mark.parametrize(
    "garbage",
    [
        b"not a pickle",  # UnpicklingError
        b"garbage\n",  # 'g' is a GET opcode -> ValueError
        b"",  # EOFError
        pytest.param(__import__("pickle").dumps([1, 2]), id="not-a-dict"),
    ],
)
def test_corrupt_entry_is_a_miss(tmp_path, garbage):
    cache = ResultCache(tmp_path)  # real code version: run_sweep sees it
    key = cache.key_for(square, {"x": 1})
    cache.put(key, 1)
    (tmp_path / f"{key}.pkl").write_bytes(garbage)
    assert cache.get(key) == (False, None)
    # A sweep over the damaged entry recovers by re-executing.
    report = run_sweep(
        [SweepPoint(square, {"x": 1}, key=1)], cache_dir=tmp_path
    )
    assert report.results == [1]
    assert report.cache_hits == 0


def test_use_cache_false_skips_read_and_write(tmp_path):
    run_sweep(_points([7]), cache_dir=tmp_path, label="t")
    report = run_sweep(
        _points([7]), cache_dir=tmp_path, use_cache=False, label="t"
    )
    assert report.cache_hits == 0
    assert report.cache_dir is None


def test_parallel_workers_match_serial(tmp_path):
    xs = list(range(8))
    serial = run_sweep(_points(xs), workers=1, use_cache=False)
    parallel = run_sweep(_points(xs), workers=2, use_cache=False)
    assert serial.results == parallel.results == [x * x for x in xs]
    assert parallel.workers == 2


def test_parallel_results_land_in_cache(tmp_path):
    run_sweep(_points([4, 5, 6]), workers=2, cache_dir=tmp_path, label="t")
    again = run_sweep(_points([4, 5, 6]), workers=2, cache_dir=tmp_path,
                      label="t")
    assert again.cache_hits == 3


def test_parallel_elapsed_is_per_point(tmp_path):
    # Regression: elapsed used to be measured around future.result() in
    # submission order, so a point that finished while an earlier future
    # was being awaited reported ~0s.  Submit the slow point first: the
    # fast one completes during the slow one's await, yet must still
    # report at least its own sleep time.
    points = [
        SweepPoint(nap, {"x": "slow", "duration": 0.3}, key="slow"),
        SweepPoint(nap, {"x": "fast", "duration": 0.15}, key="fast"),
    ]
    report = run_sweep(points, workers=2, use_cache=False)
    by_key = {o.point.key: o for o in report.outcomes}
    assert by_key["slow"].elapsed >= 0.3
    assert by_key["fast"].elapsed >= 0.15


def test_failing_point_raises_sweep_error(tmp_path):
    points = [SweepPoint(boom, {"x": 1}, key="kaboom")]
    with pytest.raises(SweepError, match="kaboom"):
        run_sweep(points, cache_dir=tmp_path)
    with pytest.raises(SweepError, match="kaboom"):
        run_sweep(points, workers=2, cache_dir=tmp_path)


def test_default_point_label_is_kwargs():
    point = SweepPoint(square, {"x": 2, "seed": 3})
    assert point.label == (("seed", 3), ("x", 2))


# Module-level so the process pool can pickle it by reference.
def square_with_metrics(x):
    return WithMetrics(x * x, {"p50": x, "cycles": 10 * x})


def test_point_metrics_are_split_from_values(tmp_path):
    points = [
        SweepPoint(square_with_metrics, {"x": x}, key=x) for x in (2, 3)
    ]
    report = run_sweep(points, cache_dir=tmp_path, label="t")
    # .results carries bare values — existing consumers see no wrapper.
    assert report.results == [4, 9]
    assert report.by_key == {2: 4, 3: 9}
    assert report.metrics_by_key == {
        2: {"p50": 2, "cycles": 20},
        3: {"p50": 3, "cycles": 30},
    }

    # Metrics ride through the cache with the value.
    again = run_sweep(points, cache_dir=tmp_path, label="t")
    assert again.cache_hits == 2
    assert again.results == [4, 9]
    assert again.metrics_by_key == report.metrics_by_key


def test_metrics_absent_for_plain_points(tmp_path):
    report = run_sweep(_points([4]), cache_dir=tmp_path, label="t")
    (outcome,) = report.outcomes
    assert outcome.metrics is None
    assert report.metrics_by_key == {}


def test_duplicate_labels_raise_instead_of_dropping(tmp_path):
    # Two points with the same explicit key: a dict view would silently
    # keep only the last outcome, so by_key must refuse.
    points = [
        SweepPoint(square, {"x": 2}, key="same"),
        SweepPoint(square, {"x": 3}, key="same"),
    ]
    report = run_sweep(points, cache_dir=tmp_path, label="dup")
    assert report.results == [4, 9]  # .outcomes keeps every point
    with pytest.raises(DuplicatePointLabelError) as excinfo:
        report.by_key
    assert excinfo.value.label == "same"
    assert excinfo.value.indices == [0, 1]
    assert "distinct key=" in str(excinfo.value)


def test_duplicate_labels_raise_in_metrics_view(tmp_path):
    points = [
        SweepPoint(square_with_metrics, {"x": 2}, key="same"),
        SweepPoint(square_with_metrics, {"x": 3}, key="same"),
    ]
    report = run_sweep(points, cache_dir=tmp_path, label="dup")
    with pytest.raises(DuplicatePointLabelError):
        report.metrics_by_key


def test_label_str_never_renders_blank():
    # A no-kwargs point's default label is the empty tuple; all() over
    # it is vacuously true, which used to render the label as "".
    assert _label_str(SweepPoint(square, {})) == "()"
    assert _label_str(SweepPoint(square, {}, key="named")) == "'named'"
    assert _label_str(SweepPoint(square, {"x": 2})) == "x=2"


def test_pool_enforces_budgets_and_inline_rejects_them(tmp_path):
    # Regression: Experiment.sweep used to drop stall_timeout,
    # max_retries and the checkpoint budgets unless elastic=True.  Every
    # point holds its worker far longer than 1 ms, so the stall budget
    # must fire and, with no retries allowed, fail the sweep.
    experiment = Experiment(
        protocol="twobit", n_processors=2, refs_per_proc=5000, warmup_refs=100
    )
    with pytest.raises(SweepError, match="retries exhausted"):
        experiment.sweep(
            {"q": [0.01, 0.05]}, workers=2, use_cache=False,
            stall_timeout=0.001, max_retries=0,
        )
    for budget in (
        {"stall_timeout": 1.0},
        {"checkpoint_every": 100},
        {"checkpoint_dir": str(tmp_path)},
    ):
        with pytest.raises(ValueError, match="workers"):
            experiment.sweep({"q": [0.01]}, use_cache=False, **budget)


def test_scheduler_rejects_foreign_shard_index():
    scheduler = Scheduler(_points([1, 2, 3]))
    scheduler.start()
    task = scheduler.lease("w")
    for bad in (-1, 3, 7, "0", 1.0, None, True):
        with pytest.raises(ValueError, match="shard index"):
            scheduler.complete(bad, 999, 0.0, "w")
        with pytest.raises(ValueError, match="shard index"):
            scheduler.fail(bad, "boom", "w")
        with pytest.raises(ValueError, match="shard index"):
            scheduler.check_index(bad)
    assert scheduler.outcomes == [None, None, None]
    assert scheduler.status == "running" and scheduler.remaining == 3
    assert scheduler.complete(task.index, 1, 0.0, "w")
    assert scheduler.remaining == 2


def test_scheduler_requeues_a_lost_shard_at_the_front():
    scheduler = Scheduler(_points([1, 2, 3]), max_retries=1)
    scheduler.start()
    first = scheduler.lease("a")
    scheduler.lost(first.index, "a")
    assert scheduler.backlog[0] == first.index
    assert scheduler.lease("b").index == first.index
    assert scheduler.retries[first.index] == 1
