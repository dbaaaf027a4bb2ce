"""Tests for the canonical SystemSpec: deterministic serialization, JSON
round-trips, and the cache-key identity the exec layer relies on."""

import dataclasses
import enum
import json
import typing

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.config import NETWORK_MODELS, CacheConfig, SystemConfig
from repro.core.cta_scheduler import SCHEDULE_POLICIES
from repro.errors import ConfigError
from repro.exec.cache import job_fingerprint, job_key
from repro.exec.jobs import SweepJob
from repro.hmc.sched import SCHEDULERS
from repro.network.routing import ROUTING_POLICIES
from repro.network.topologies.builders import BUILDERS
from repro.system.configs import (
    EXTENSION_ARCHS,
    TABLE_III,
    ArchSpec,
    Organization,
    TransferMode,
    get_spec,
)
from repro.system.spec import SPEC_SCHEMA, SystemSpec, WorkloadRef, _decode_dataclass
from repro.workloads.suite import WORKLOAD_SPECS


def spec_for(arch="UMN", **run_kwargs) -> SystemSpec:
    return SystemSpec.make(
        arch, WorkloadRef("bprop", 0.25), SystemConfig(num_gpus=2), **run_kwargs
    )


class TestMake:
    def test_resolves_names(self):
        spec = SystemSpec.make("umn", "bprop")
        assert spec.arch is get_spec("UMN")
        assert spec.workload == WorkloadRef("bprop")

    def test_run_kwargs_sorted(self):
        spec = SystemSpec.make("UMN", "bprop", seed=7, collect_traffic=True)
        assert spec.run_kwargs == (("collect_traffic", True), ("seed", 7))

    def test_label(self):
        assert spec_for().label == "bprop@UMN"


class TestFrozenKwargs:
    def test_list_values_become_tuples_at_any_depth(self):
        spec = spec_for(placement_clusters=[0, [1, 2]])
        assert spec.run_kwargs == (("placement_clusters", (0, (1, 2))),)
        ref = WorkloadRef("v", factory="m:f", kwargs=(("sizes", [4, [8]]),))
        assert ref.kwargs == (("sizes", (4, (8,))),)

    def test_decoded_tuples_equal_the_original(self):
        spec = spec_for(placement_weights=(0.5, 0.5))
        again = SystemSpec.from_json(spec.to_json())
        assert again == spec and hash(again) == hash(spec)
        assert again.canonical_json() == spec_for(placement_weights=[0.5, 0.5]).canonical_json()


class TestRoundTrip:
    def test_dict_roundtrip_is_identity(self):
        spec = spec_for(seed=3)
        assert SystemSpec.from_dict(spec.to_dict()) == spec

    def test_json_roundtrip_is_identity(self):
        spec = spec_for()
        assert SystemSpec.from_json(spec.to_json()) == spec

    def test_file_roundtrip(self, tmp_path):
        spec = spec_for()
        path = str(tmp_path / "spec.json")
        spec.save(path)
        assert SystemSpec.load(path) == spec

    def test_roundtrip_preserves_cache_key(self):
        spec = spec_for(seed=3)
        again = SystemSpec.from_json(spec.to_json())
        assert again.cache_key() == spec.cache_key()

    def test_roundtrip_preserves_job_key(self):
        job = SweepJob(system=spec_for())
        again = SweepJob(system=SystemSpec.from_json(job.system.to_json()))
        assert job_key(again) == job_key(job)

    def test_derived_cfg_fields_recomputed(self):
        # DRAMTiming's init=False fields are omitted on encode and rebuilt
        # by __post_init__ on decode.
        spec = spec_for()
        assert "tRC_ps" not in json.dumps(spec.to_dict())
        assert SystemSpec.from_dict(spec.to_dict()).cfg == spec.cfg


class TestDeterminism:
    def test_canonical_json_is_stable(self):
        assert spec_for(seed=3).canonical_json() == spec_for(seed=3).canonical_json()

    def test_cache_key_sees_every_piece(self):
        base = spec_for()
        assert spec_for("GMN").cache_key() != base.cache_key()
        assert spec_for(seed=9).cache_key() != base.cache_key()
        other_cfg = SystemSpec.make(
            "UMN", WorkloadRef("bprop", 0.25), SystemConfig(num_gpus=4)
        )
        assert other_cfg.cache_key() != base.cache_key()

    def test_tag_does_not_change_job_identity(self):
        spec = spec_for()
        assert job_key(SweepJob(system=spec, tag="a")) == job_key(
            SweepJob(system=spec, tag="b")
        )

    def test_fingerprint_carries_canonical_spec(self):
        job = SweepJob(system=spec_for())
        fp = job_fingerprint(job)
        assert fp["system"] == job.system.to_dict()
        assert set(fp) == {"schema", "code", "system"}


class TestErrorPaths:
    def test_unknown_top_level_key_rejected(self):
        data = spec_for().to_dict()
        data["extra"] = 1
        with pytest.raises(ConfigError, match="unknown SystemSpec field"):
            SystemSpec.from_dict(data)

    def test_unknown_arch_key_rejected(self):
        data = spec_for().to_dict()
        data["arch"]["flux_capacitor"] = True
        with pytest.raises(ConfigError, match="unknown ArchSpec field"):
            SystemSpec.from_dict(data)

    def test_schema_mismatch_rejected(self):
        data = spec_for().to_dict()
        data["schema"] = SPEC_SCHEMA + 1
        with pytest.raises(ConfigError, match="unsupported SystemSpec schema"):
            SystemSpec.from_dict(data)

    def test_missing_arch_rejected(self):
        data = spec_for().to_dict()
        del data["arch"]
        with pytest.raises(ConfigError, match="missing"):
            SystemSpec.from_dict(data)

    def test_unserializable_run_kwarg_rejected(self):
        spec = SystemSpec.make("UMN", "bprop", callback=object())
        with pytest.raises(ConfigError, match="cannot serialize"):
            spec.to_dict()

    @pytest.mark.parametrize("value", [object(), b"raw", (1, b"raw")])
    def test_non_json_kwarg_rejected_in_either_place(self, value):
        with pytest.raises(ConfigError, match="cannot serialize"):
            spec_for(callback=value).to_dict()
        ref = WorkloadRef("v", factory="m:f", kwargs=(("payload", value),))
        with pytest.raises(ConfigError, match="cannot serialize"):
            SystemSpec.make("UMN", ref).to_dict()

    def test_enum_and_bool_values_encode_as_before(self):
        class Level(enum.IntEnum):
            HIGH = 2

        class Count(int):
            pass

        spec = spec_for(
            org=Organization.GMN, level=Level.HIGH, flag=True, n=Count(3),
            nested=(TransferMode.ZERO_COPY, False, None),
        )
        encoded = spec.to_dict()["run_kwargs"]
        assert encoded == {
            "flag": True,
            "level": 2,
            "n": 3,
            "nested": ["zero_copy", False, None],
            "org": "gmn",
        }
        assert encoded["flag"] is True and encoded["nested"][1] is False
        assert type(encoded["level"]) is int

    def test_bad_factory_string(self):
        with pytest.raises(ValueError, match="module:function"):
            WorkloadRef("x", factory="no_colon_here").build()

    def test_unknown_nested_key_names_class_and_valid_fields(self):
        data = spec_for().to_dict()
        data["cfg"]["hmc"]["bogus"] = 1
        with pytest.raises(ConfigError) as err:
            SystemSpec.from_dict(data)
        message = str(err.value)
        assert "unknown HMCConfig field(s) ['bogus']" in message
        assert "'vault_queue_entries'" in message and "'timing'" in message

    def test_removed_setting_rejected_with_valid_fields(self):
        # A spec written while CPUConfig still carried the unsimulated
        # hmcs_per_cpu (the CPU cluster has gpu.hmcs_per_gpu HMCs).
        data = spec_for().to_dict()
        data["cfg"]["cpu"]["hmcs_per_cpu"] = 2
        with pytest.raises(ConfigError) as err:
            SystemSpec.from_dict(data)
        assert str(err.value) == (
            "unknown CPUConfig field(s) ['hmcs_per_cpu']; valid: ['l2_hit_ps', "
            "'l2_size_bytes', 'line_bytes', 'max_outstanding', 'num_channels']"
        )

    def test_derived_field_rejected_as_unknown(self):
        # init=False fields are recomputed, never accepted from a dict.
        data = spec_for().to_dict()
        data["cfg"]["hmc"]["timing"]["hit_ps"] = 1
        match = r"unknown DRAMTiming field\(s\) \['hit_ps'\]"
        with pytest.raises(ConfigError, match=match):
            SystemSpec.from_dict(data)

    @pytest.mark.parametrize(
        "path, cls",
        [(("arch",), "ArchSpec"), (("cfg", "gpu"), "GPUConfig"),
         (("cfg", "gpu", "l2"), "CacheConfig")],
    )
    def test_non_dict_for_dataclass_rejected(self, path, cls):
        data = spec_for().to_dict()
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = 5
        with pytest.raises(ConfigError, match=f"expected a dict for {cls}, got 5"):
            SystemSpec.from_dict(data)


@dataclasses.dataclass(frozen=True)
class _Inner:
    transfer: TransferMode


@dataclasses.dataclass(frozen=True)
class _Outer:
    """One field per decoder kind; no config class carries them all."""

    inner: typing.Optional[_Inner] = None
    modes: typing.Tuple[TransferMode, ...] = ()
    pair: typing.Tuple[int, int] = (0, 0)
    inners: typing.Tuple[_Inner, ...] = ()
    either: typing.Union[int, str] = 0
    derived: int = dataclasses.field(init=False, default=0)


class TestDecoderKinds:
    def test_each_decoder_kind(self):
        got = _decode_dataclass(
            _Outer,
            {
                "inner": {"transfer": "memcpy"},
                "modes": ["zero_copy", TransferMode.NO_COPY, "teleport"],
                "pair": [1, 2],
                "inners": [{"transfer": "no_copy"}],
                "either": [3],
            },
        )
        assert got == _Outer(
            inner=_Inner(TransferMode.MEMCPY),
            modes=(TransferMode.ZERO_COPY, TransferMode.NO_COPY, "teleport"),
            pair=(1, 2),
            inners=(_Inner(TransferMode.NO_COPY),),
            either=[3],
        )

    def test_optional_passes_none_and_absent_keys_keep_defaults(self):
        assert _decode_dataclass(_Outer, {"inner": None}) == _Outer()


class TestCodecTax:
    def test_type_hints_resolved_once_per_dataclass(self, monkeypatch):
        # String annotations (``from __future__ import annotations``) are
        # compiled and evaluated by every get_type_hints call, so the codec
        # must resolve each dataclass's hints once, not once per decode.
        from repro.system import spec as spec_module

        calls = {}
        real = spec_module.typing.get_type_hints

        def counting(obj, *args, **kwargs):
            calls[obj] = calls.get(obj, 0) + 1
            return real(obj, *args, **kwargs)

        monkeypatch.setattr(spec_module.typing, "get_type_hints", counting)
        spec_module._codec.cache_clear()
        archs = ("PCIe", "CMN", "GMN", "UMN", "NVLink")
        dicts = [
            SystemSpec.make(
                archs[i % len(archs)],
                WorkloadRef("bprop", 0.25),
                SystemConfig(num_gpus=1 + i % 8, seed=i),
            ).to_dict()
            for i in range(100)
        ]
        for data in dicts:
            SystemSpec.from_dict(data)
        assert calls, "decoding resolved no type hints at all"
        assert max(calls.values()) == 1, calls


# ---------------------------------------------------------------------------
# Round-trip property over generated specs
# ---------------------------------------------------------------------------
_ARCHS = [
    *TABLE_III.values(),
    *EXTENSION_ARCHS.values(),
    ArchSpec("TSM", "tsm", TransferMode.ZERO_COPY),  # organization outside the enum
]

#: Every ``str`` config field takes one of a registry's names.
_STRINGS = {
    "intra_cluster_interleave": st.sampled_from(("line", "page")),
    "network_model": st.sampled_from(NETWORK_MODELS),
    "scheduler": st.sampled_from(sorted(SCHEDULERS)),
}

_SCALARS = {
    int: st.integers(1, 1 << 40),
    float: st.floats(0.01, 1e4, allow_nan=False, allow_infinity=False),
}

_caches = st.builds(
    lambda sets, ways, line, hit: CacheConfig(sets * ways * line, ways, line, hit),
    st.integers(1, 4096),
    st.sampled_from((1, 2, 4, 8, 16)),
    st.sampled_from((32, 64, 128)),
    st.integers(1, 100_000),
)

_json_scalars = st.one_of(
    st.integers(),
    st.booleans(),
    st.text(max_size=8),
    st.floats(allow_nan=False, allow_infinity=False),
)
#: Kwarg values: scalars and (nested) lists or tuples of them, which JSON
#: hands back as lists.
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner),
    max_leaves=6,
)


def _changed(draw, default):
    """``default`` with some scalar fields redrawn, in every nested config."""
    if isinstance(default, CacheConfig):
        return draw(_caches)
    hints = typing.get_type_hints(type(default))
    changes = {}
    for f in dataclasses.fields(default):
        hint = hints[f.name]
        if not f.init or not f.metadata.get("identity", True):
            continue
        if dataclasses.is_dataclass(hint):
            changes[f.name] = _changed(draw, getattr(default, f.name))
        elif draw(st.booleans()):
            if f.name == "page_bytes":  # a multiple of every generated line size
                value = draw(st.integers(1, 64)) * 128
            elif hint is str:
                value = draw(_STRINGS[f.name])
            else:
                value = draw(_SCALARS[hint])
            changes[f.name] = value
    return dataclasses.replace(default, **changes)


@st.composite
def _configs(draw):
    try:
        cfg = _changed(draw, SystemConfig())
    except ConfigError:  # the analytic tier with a non-FR-FCFS scheduler
        reject()
    return dataclasses.replace(
        cfg,
        watchdog_max_events=draw(st.none() | st.integers(0, 10**9)),
        watchdog_wall_s=draw(st.none() | st.floats(0.1, 1e4)),
    )


_arches = st.builds(
    lambda arch, topology, routing, cta_policy: arch.with_(
        topology=topology, routing=routing, cta_policy=cta_policy
    ),
    st.sampled_from(_ARCHS),
    st.sampled_from(sorted(BUILDERS)),
    st.sampled_from(sorted(ROUTING_POLICIES)),
    st.sampled_from(sorted(SCHEDULE_POLICIES)),
)

_workloads = st.one_of(
    st.builds(
        WorkloadRef,
        st.sampled_from(sorted(WORKLOAD_SPECS)),
        st.floats(0.01, 4.0),
    ),
    st.builds(
        lambda kwargs: WorkloadRef(
            "vectoradd",
            factory="repro.workloads.vectoradd:make_vectoradd",
            kwargs=tuple(sorted(kwargs.items())),
        ),
        st.dictionaries(st.text(max_size=12), _json_values, max_size=4),
    ),
)

_specs = st.builds(
    lambda arch, workload, cfg, run_kwargs: SystemSpec.make(
        arch, workload, cfg, **run_kwargs
    ),
    _arches,
    _workloads,
    _configs(),
    st.dictionaries(st.text(min_size=1, max_size=12), _json_values, max_size=4),
)


def _without_watchdog(spec: SystemSpec) -> SystemSpec:
    cfg = dataclasses.replace(
        spec.cfg, watchdog_max_events=None, watchdog_wall_s=None
    )
    return dataclasses.replace(spec, cfg=cfg)


class TestRoundTripProperty:
    @settings(max_examples=100, deadline=None)
    @given(spec=_specs)
    def test_json_roundtrip(self, spec):
        data = spec.to_dict()
        assert "watchdog_max_events" not in data["cfg"]
        assert "watchdog_wall_s" not in data["cfg"]
        again = SystemSpec.from_json(spec.to_json())
        assert again == _without_watchdog(spec)
        assert hash(again) == hash(_without_watchdog(spec))
        assert again.to_dict() == data

    @settings(max_examples=50, deadline=None)
    @given(
        spec=_specs,
        max_events=st.none() | st.integers(0, 10**9),
        wall_s=st.none() | st.floats(0.1, 1e4),
    )
    def test_watchdog_fields_decoded_but_not_encoded(self, spec, max_events, wall_s):
        data = spec.to_dict()
        data["cfg"]["watchdog_max_events"] = max_events
        data["cfg"]["watchdog_wall_s"] = wall_s
        again = SystemSpec.from_dict(data)
        assert again.cfg.watchdog_max_events == max_events
        assert again.cfg.watchdog_wall_s == wall_s
        assert again.to_dict() == spec.to_dict()
