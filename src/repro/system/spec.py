"""The canonical, serializable identity of one simulation run.

A :class:`SystemSpec` bundles everything that determines a run's output:
the architecture (:class:`~repro.system.configs.ArchSpec`), the full
:class:`~repro.config.SystemConfig`, a picklable workload recipe
(:class:`WorkloadRef`), and any extra ``run_workload`` keyword arguments.
It round-trips deterministically through ``to_dict``/``from_dict`` (and
JSON), so one artifact serves every layer that used to re-plumb these
pieces ad hoc:

- :mod:`repro.exec.cache` derives its content-addressed keys from
  ``SystemSpec.to_dict()``;
- :class:`repro.exec.jobs.SweepJob` *is* a tagged ``SystemSpec``;
- experiments build their sweep jobs from specs
  (:meth:`repro.exec.executor.SweepExecutor.job`);
- the CLI can export one (``repro run ... --dump-spec out.json``) and
  execute one (``repro run --spec out.json``).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import importlib
import json
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple, Union

from ..config import SystemConfig
from ..errors import ConfigError
from .configs import ArchSpec, Organization, TransferMode, get_spec

#: Bump when the canonical dict layout changes shape.
SPEC_SCHEMA = 1


@dataclass(frozen=True)
class WorkloadRef:
    """A picklable, hashable recipe for building a workload.

    With only ``name``/``scale`` the workload comes from
    :func:`repro.workloads.suite.get_workload`.  A ``factory`` of the form
    ``"package.module:function"`` overrides that (e.g. the Fig. 7
    vectorAdd microbenchmark) and receives ``kwargs``.
    """

    name: str
    scale: float = 1.0
    factory: Optional[str] = None
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "kwargs", _frozen_items(self.kwargs))

    def build(self):
        if self.factory is not None:
            module_name, _, func_name = self.factory.partition(":")
            if not func_name:
                raise ValueError(
                    f"factory must look like 'module:function', got {self.factory!r}"
                )
            func = getattr(importlib.import_module(module_name), func_name)
            return func(**dict(self.kwargs))
        from ..workloads.suite import get_workload

        return get_workload(self.name, self.scale)

    def describe(self) -> Dict[str, Any]:
        """Stable description used for cache keying and serialization."""
        return {
            "name": self.name,
            "scale": self.scale,
            "factory": self.factory,
            "kwargs": {k: _encode(v) for k, v in sorted(self.kwargs)},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkloadRef":
        _reject_unknown_keys(cls, data, {"name", "scale", "factory", "kwargs"})
        return cls(
            name=data["name"],
            scale=data.get("scale", 1.0),
            factory=data.get("factory"),
            kwargs=tuple(sorted(dict(data.get("kwargs") or {}).items())),
        )


def _frozen_items(items) -> Tuple[Tuple[str, Any], ...]:
    """``(key, value)`` pairs with every list value (at any depth) made a
    tuple: a JSON round trip then gives back an equal, hashable value, and
    ``_encode`` writes both the same way, so canonical keys do not move."""
    return tuple((key, _frozen(value)) for key, value in items)


def _frozen(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
    return value


# ---------------------------------------------------------------------------
# Generic dataclass <-> plain-dict codec
# ---------------------------------------------------------------------------
def _encode(value: Any) -> Any:
    """Reduce a value to JSON-serializable primitives, deterministically."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _encode_dataclass(value)
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {
            str(k): _encode(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigError(
        f"cannot serialize {type(value).__name__!r} value {value!r} into a "
        "SystemSpec dict"
    )


def _encode_dataclass(value: Any) -> Dict[str, Any]:
    """Init fields only: derived (``init=False``) fields are recomputed by
    ``__post_init__`` on the way back in.  Fields tagged
    ``metadata={"identity": False}`` (operational knobs such as the
    watchdog budgets, which can never change a run's results) are left out
    of the canonical form so they never perturb cache keys; ``from_dict``
    still accepts them when present."""
    return {
        name: _encode(getattr(value, name))
        for name in _codec(type(value)).identity
    }


def _reject_unknown_keys(cls, data: Dict[str, Any], known: set) -> None:
    extra = set(data) - known
    if extra:
        raise ConfigError(
            f"unknown {cls.__name__} field(s) {sorted(extra)}; "
            f"valid: {sorted(known)}"
        )


class _Codec:
    """One dataclass's static (de)serialization plan."""

    __slots__ = ("known", "identity", "decoders")

    def __init__(self, known, identity, decoders) -> None:
        #: Init field names: the keys a dict may carry.
        self.known: FrozenSet[str] = known
        #: Init fields in the canonical form, in declaration order.
        self.identity: Tuple[str, ...] = identity
        #: Decoder per init field whose value is not kept as is.
        self.decoders: Tuple[Tuple[str, Callable[[Any], Any]], ...] = decoders


@functools.cache
def _codec(cls) -> _Codec:
    """Built on a class's first (de)serialization, then reused: resolving
    type hints re-evaluates every string annotation, which costs far more
    than the decode itself."""
    hints = typing.get_type_hints(cls)
    init = [f for f in dataclasses.fields(cls) if f.init]
    decoders = ((f.name, _decoder(hints[f.name])) for f in init)
    return _Codec(
        known=frozenset(f.name for f in init),
        identity=tuple(f.name for f in init if f.metadata.get("identity", True)),
        decoders=tuple((name, dec) for name, dec in decoders if dec is not None),
    )


def _decode_dataclass(cls, data: Any):
    """Rebuild a (possibly nested) dataclass from its ``_encode`` dict."""
    if not isinstance(data, dict):
        raise ConfigError(f"expected a dict for {cls.__name__}, got {data!r}")
    codec = _codec(cls)
    if not codec.known.issuperset(data):
        _reject_unknown_keys(cls, data, codec.known)
    kwargs = dict(data)
    for name, decode in codec.decoders:
        if name in kwargs:
            kwargs[name] = decode(kwargs[name])
    return cls(**kwargs)


def _decoder(hint: Any) -> Optional[Callable[[Any], Any]]:
    """The decoder for values of type ``hint``; ``None`` keeps them as is."""
    origin = typing.get_origin(hint)
    if origin is Union:
        arms = [a for a in typing.get_args(hint) if a is not type(None)]
        inner = _decoder(arms[0]) if len(arms) == 1 else None
        if inner is None:
            return None
        return lambda value: None if value is None else inner(value)
    if dataclasses.is_dataclass(hint):
        return functools.partial(_decode_dataclass, hint)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return functools.partial(_decode_enum, hint)
    if origin is tuple:
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            item = _decoder(args[0])
            if item is not None:
                return lambda value: tuple(item(v) for v in value)
        return tuple
    return None


def _decode_enum(hint: type, value: Any) -> Any:
    if isinstance(value, hint):
        return value
    try:
        return hint(value)
    except ValueError:
        # Extension organizations may key the fabric registry with
        # values outside the built-in enum; keep them verbatim.
        return value


# ---------------------------------------------------------------------------
# SystemSpec
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SystemSpec:
    """One run's complete, canonical identity."""

    arch: ArchSpec
    workload: WorkloadRef
    cfg: SystemConfig = field(default_factory=SystemConfig)
    run_kwargs: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "run_kwargs", _frozen_items(self.run_kwargs))

    @classmethod
    def make(
        cls,
        arch: Union[str, ArchSpec],
        workload: Union[str, WorkloadRef],
        cfg: Optional[SystemConfig] = None,
        **run_kwargs: Any,
    ) -> "SystemSpec":
        """Ergonomic constructor: architecture and workload by name or
        object, keyword arguments become the (sorted) ``run_kwargs``."""
        if isinstance(arch, str):
            arch = get_spec(arch)
        if isinstance(workload, str):
            workload = WorkloadRef(workload)
        return cls(
            arch=arch,
            workload=workload,
            cfg=cfg or SystemConfig(),
            run_kwargs=tuple(sorted(run_kwargs.items())),
        )

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Deterministic plain-dict form (JSON-serializable)."""
        return {
            "schema": SPEC_SCHEMA,
            "arch": _encode_dataclass(self.arch),
            "workload": self.workload.describe(),
            "cfg": _encode_dataclass(self.cfg),
            "run_kwargs": {k: _encode(v) for k, v in sorted(self.run_kwargs)},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SystemSpec":
        schema = data.get("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise ConfigError(
                f"unsupported SystemSpec schema {schema!r} (expected {SPEC_SCHEMA})"
            )
        _reject_unknown_keys(
            cls, data, {"schema", "arch", "workload", "cfg", "run_kwargs"}
        )
        try:
            arch_data = data["arch"]
            workload_data = data["workload"]
        except KeyError as missing:
            raise ConfigError(f"SystemSpec dict is missing {missing}") from None
        return cls(
            arch=_decode_dataclass(ArchSpec, arch_data),
            workload=WorkloadRef.from_dict(workload_data),
            cfg=_decode_dataclass(SystemConfig, data.get("cfg") or {}),
            run_kwargs=tuple(sorted(dict(data.get("run_kwargs") or {}).items())),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SystemSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "SystemSpec":
        with open(path) as handle:
            return cls.from_json(handle.read())

    # -- identity --------------------------------------------------------
    def canonical_json(self) -> str:
        """Minified, key-sorted JSON — the hashing form."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def cache_key(self) -> str:
        """Stable content hash of this spec (code version *not* included;
        :mod:`repro.exec.cache` layers that on top)."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # -- execution -------------------------------------------------------
    def run(self, obs=None):
        """Run this spec to completion in-process (one ``run_workload``).

        The analytic tier gets the workload's memoized profile, so a
        recipe is built once per process however many points run it."""
        from .run import run_workload

        kwargs = dict(self.run_kwargs)
        if obs is not None:
            kwargs["obs"] = obs
        if self.cfg.network_model == "analytic":
            from ..analytic import profile_for

            workload = profile_for(self.workload)
        else:
            workload = self.workload.build()
        return run_workload(self.arch, workload, cfg=self.cfg, **kwargs)

    @property
    def label(self) -> str:
        return f"{self.workload.name}@{self.arch.name}"


__all__ = [
    "SPEC_SCHEMA",
    "SystemSpec",
    "WorkloadRef",
    "Organization",
    "TransferMode",
]
