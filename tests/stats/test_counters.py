"""Counter sets and the registry."""

from repro.stats.counters import CounterRegistry, CounterSet


def test_counters_start_at_zero():
    counters = CounterSet("x")
    assert counters.get("anything") == 0.0
    assert "anything" not in counters


def test_add_and_get():
    counters = CounterSet("x")
    counters.add("hits")
    counters.add("hits", 2)
    assert counters["hits"] == 3.0
    assert "hits" in counters


def test_set_overwrites():
    counters = CounterSet("x")
    counters.add("v", 5)
    counters.set("v", 1)
    assert counters.get("v") == 1.0


def test_names_sorted_and_items():
    counters = CounterSet("x")
    counters.add("b")
    counters.add("a")
    assert counters.names() == ["a", "b"]
    assert list(counters.items()) == [("a", 1.0), ("b", 1.0)]


def test_snapshot_is_a_copy():
    counters = CounterSet("x")
    counters.add("v")
    snap = counters.snapshot()
    counters.add("v")
    assert snap == {"v": 1.0}


def test_reset_clears_everything():
    counters = CounterSet("x")
    counters.add("v", 7)
    counters.reset()
    assert counters.get("v") == 0.0
    assert counters.names() == []


def test_merge_adds_counterwise():
    a = CounterSet("a")
    b = CounterSet("b")
    a.add("v", 1)
    b.add("v", 2)
    b.add("w", 3)
    a.merge(b)
    assert a["v"] == 3.0 and a["w"] == 3.0


def test_registry_total_and_by_owner():
    registry = CounterRegistry()
    a, b = CounterSet("a"), CounterSet("b")
    registry.register(a)
    registry.register(b)
    a.add("refs", 2)
    b.add("refs", 3)
    assert registry.total("refs") == 5.0
    assert registry.by_owner("refs") == {"a": 2.0, "b": 3.0}


def test_registry_by_owner_skips_absent():
    registry = CounterRegistry()
    a, b = CounterSet("a"), CounterSet("b")
    registry.register(a)
    registry.register(b)
    a.add("only_a")
    assert registry.by_owner("only_a") == {"a": 1.0}


def test_registry_aggregate_and_reset_all():
    registry = CounterRegistry()
    a, b = CounterSet("a"), CounterSet("b")
    registry.register(a)
    registry.register(b)
    a.add("v", 1)
    b.add("v", 4)
    assert registry.merged()["v"] == 5.0
    registry.reset_all()
    assert registry.total("v") == 0.0


def test_registry_merged_is_canonical_aggregation():
    registry = CounterRegistry()
    a, b = CounterSet("a"), CounterSet("b")
    registry.register(a)
    registry.register(b)
    a.add("v", 2)
    b.add("v", 3)
    b.add("w", 1)
    merged = registry.merged()
    assert merged["v"] == 5.0 and merged["w"] == 1.0


def test_registry_report():
    registry = CounterRegistry()
    a, b = CounterSet("a"), CounterSet("b")
    registry.register(a)
    registry.register(b)
    a.add("refs", 10)
    b.add("refs", 20)
    a.add("hits", 7)
    text = registry.report()
    assert "counter totals" in text
    assert "refs" in text and "30" in text
    assert "hits" in text and "7" in text
    detailed = registry.report(per_owner=True)
    assert "a=10" in detailed and "b=20" in detailed


def test_registry_report_empty():
    assert "(no counters recorded)" in CounterRegistry().report()
