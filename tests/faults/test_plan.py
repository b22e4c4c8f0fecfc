"""FaultSpec validation and fault-plan string parsing."""

from dataclasses import fields

import pytest

from repro.faults import CANNED_PLANS, FaultSpec, parse_faults


class TestFaultSpec:
    def test_defaults_are_inactive(self):
        assert not FaultSpec().active

    def test_any_probability_activates(self):
        assert FaultSpec(delay_prob=0.1).active
        assert FaultSpec(dup_prob=0.1).active
        assert FaultSpec(reorder_prob=0.1).active
        assert FaultSpec(stall_prob=0.1).active

    @pytest.mark.parametrize(
        "field", ["delay_prob", "dup_prob", "reorder_prob", "stall_prob"]
    )
    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_probability_bounds(self, field, value):
        with pytest.raises(ValueError, match=field):
            FaultSpec(**{field: value})

    @pytest.mark.parametrize(
        "field",
        ["max_delay", "max_dups", "max_stall", "max_retries", "retry_backoff"],
    )
    def test_magnitude_bounds(self, field):
        with pytest.raises(ValueError, match=field):
            FaultSpec(**{field: 0})

    def test_with_returns_new_frozen_spec(self):
        base = FaultSpec()
        derived = base.with_(delay_prob=0.5)
        assert derived.delay_prob == 0.5
        assert base.delay_prob == 0.0
        with pytest.raises(AttributeError):
            derived.seed = 3  # type: ignore[misc]

    def test_repr_is_stable(self):
        # Required for the sweep result cache: equal specs, equal keys.
        a = FaultSpec(seed=3, delay_prob=0.25)
        b = FaultSpec(seed=3, delay_prob=0.25)
        assert repr(a) == repr(b)
        assert a == b


class TestParseFaults:
    def test_canned_names(self):
        for name, spec in CANNED_PLANS.items():
            assert parse_faults(name) == spec

    def test_key_value_pairs(self):
        spec = parse_faults("seed=9,delay_prob=0.25,max_delay=2")
        assert spec == FaultSpec(seed=9, delay_prob=0.25, max_delay=2)

    def test_canned_with_overrides(self):
        spec = parse_faults("check,seed=11")
        assert spec == CANNED_PLANS["check"].with_(seed=11)

    def test_probabilities_parse_as_float_rest_as_int(self):
        spec = parse_faults("stall_prob=0.5,max_stall=3")
        assert spec.stall_prob == 0.5
        assert spec.max_stall == 3

    def test_whitespace_tolerated(self):
        assert parse_faults(" light , seed = 3 ") == CANNED_PLANS[
            "light"
        ].with_(seed=3)

    def test_unknown_plan_rejected(self):
        with pytest.raises(ValueError, match="unknown fault plan"):
            parse_faults("catastrophic")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fault field"):
            parse_faults("seed=1,banana=2")

    def test_bare_value_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_faults("light,0.5")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_faults("  ,  ")

    def test_out_of_range_override_rejected(self):
        with pytest.raises(ValueError, match="delay_prob"):
            parse_faults("delay_prob=2.0")

    def test_every_field_parses_with_its_type(self):
        types = {
            "seed": int, "delay_prob": float, "max_delay": int,
            "dup_prob": float, "max_dups": int, "reorder_prob": float,
            "stall_prob": float, "max_stall": int, "max_retries": int,
            "retry_backoff": int,
        }
        assert [f.name for f in fields(FaultSpec)] == list(types)
        for field, kind in types.items():
            value = getattr(parse_faults(f"{field}=1"), field)
            assert type(value) is kind and value == 1, field

    def test_bad_value_names_field_and_type(self):
        with pytest.raises(ValueError, match=r"^seed: expected int, got 'abc'$"):
            parse_faults("seed=abc")
