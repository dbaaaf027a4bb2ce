"""A kernel's :class:`~repro.analytic.model._Plan` indexes its slot mixes
exactly.

The analytic kernel estimator sums one load per channel class instead of
one per channel, so a class must only ever hold channels that queue
alike.  These tests pin that two ways:

- a ``hypothesis`` property on every registered topology: for drawn slot
  mixes and counts, each channel's load read through its class equals,
  exactly, the per-channel sum over the slot mixes in slot order, and
  every channel of a class has the class's bandwidth and per-slot unit
  loads;
- overflowing the model's mix cache leaves no memoized plan that refers
  to a mix the cache dropped.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic.model import _MODEL_CACHE_MAX, _CapacityModel
from repro.analytic.profile import GPU_LINE_BYTES
from repro.mem import AccessType
from repro.system.configs import TABLE_III
from tests.analytic.test_channel_loads import CFG, KINDS, TOPOLOGIES, model_for

#: One slot: (requester cluster, 4 being the CPU, kind, access size).
SLOT = st.tuples(
    st.integers(0, 4),
    st.sampled_from(KINDS),
    st.sampled_from((16, 32, 64, GPU_LINE_BYTES)),
)
COUNT = st.floats(0.0, 1e6, allow_nan=False, allow_subnormal=False)


@pytest.mark.parametrize(
    "name,include_cpu", TOPOLOGIES, ids=[f"{n}-cpu{int(c)}" for n, c in TOPOLOGIES]
)
@settings(max_examples=25, deadline=None)
@given(slots=st.lists(st.tuples(SLOT, COUNT), min_size=1, max_size=12))
def test_class_loads_are_the_per_channel_sums(name, include_cpu, slots):
    model = model_for(name, include_cpu)
    mixes = tuple(model.mix(cluster, kind, size) for (cluster, kind, size), _ in slots)
    counts = [count for _, count in slots]
    plan = model.plan(mixes)
    assert model.plan(mixes) is plan

    # Every channel's per-slot unit loads and load, accumulated channel by
    # channel in slot order.
    units, loads = {}, {}
    for slot, (mix, count) in enumerate(zip(mixes, counts)):
        for ch, unit in zip(mix.channels, mix.loads):
            units.setdefault(ch, []).append((slot, unit))
            loads[ch] = loads.get(ch, 0.0) + count * unit
    assert plan.channels == tuple(units)
    assert len(plan.channel_class) == len(plan.channels)

    class_loads = []
    for _, terms in plan.classes:
        load = 0.0
        for slot, unit in terms:
            load += counts[slot] * unit
        class_loads.append(load)
    for ch, c in zip(plan.channels, plan.channel_class):
        assert class_loads[c] == loads[ch], ch.name
        assert plan.classes[c] == (ch.bytes_per_ps, tuple(units[ch])), ch.name


def test_overflowing_the_mix_cache_keeps_no_plan_of_a_dropped_mix():
    model = _CapacityModel(TABLE_III["UMN"], CFG, "random", None, None)
    first = model.mix(0, AccessType.READ, GPU_LINE_BYTES)
    for size in range(1, 2 * _MODEL_CACHE_MAX):
        # As a kernel does: its mixes first, then their plan, so a mix
        # fetched before a clearing miss is dropped by the time of the plan.
        mixes = (
            model.mix(0, AccessType.READ, GPU_LINE_BYTES),
            model.mix(1, AccessType.WRITE, size),
        )
        model.plan(mixes)
        live = set(model._mix_cache.values())
        for key, plan in model._plan_cache.items():
            assert plan.mixes is key
            assert live.issuperset(key), size
    assert first not in set(model._mix_cache.values())
