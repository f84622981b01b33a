"""One serving configuration object: :class:`ServeConfig`.

The serving stack grew one keyword at a time — ``batch_size`` on the
:class:`~repro.serve.Predictor`, ``max_batch_size``/``max_wait_ms`` for
the coalescing loop that the :class:`~repro.serve.MicroBatcher` and the
replica-pool workers share, ``capacity`` on the
:class:`~repro.serve.PreprocessCache`, ``capture``/``max_captures`` for
graph capture, and pool sizing and deadlines for the replica pool.
:class:`ServeConfig` consolidates all of them into a single frozen
dataclass that every serving component accepts as its first
configuration argument, that round-trips through JSON, and that training
run directories persist as the ``serve`` block of ``config.json`` (so
``Predictor.load`` restores a run's serving preferences).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

__all__ = ["ServeConfig", "resolve_config"]


@dataclass(frozen=True)
class ServeConfig:
    """Every serving knob in one declarative, JSON-able object.

    Parameters
    ----------
    batch_size:
        Chunk size for bulk prediction (``Predictor.predict_proba``).
        Matching the training batch size reproduces the training
        engine's evaluation pass bit-for-bit.
    max_batch_size:
        Upper bound on coalesced requests per forward; micro-batched
        forwards are padded to exactly this many rows (the determinism
        guarantee) both in the :class:`~repro.serve.MicroBatcher` and in
        replica-pool workers.
    max_wait_ms:
        How long the coalescing loop holds an under-full batch open
        after its first request arrived, in the
        :class:`~repro.serve.MicroBatcher` and in every replica-pool
        worker alike; ``0`` serves only what is already queued.
    cache_capacity:
        LRU capacity shared by the preprocessing cache and the
        streaming session store (entries, per component).
    capture:
        Tri-state inference graph capture: ``None`` inherits the run
        directory's persisted preference (off when absent), ``True`` /
        ``False`` force it.
    max_captures:
        Shape budget for captured graphs per predictor.
    workers:
        Replica-pool size — number of worker processes, each holding a
        shared-nothing model replica.
    deadline_ms:
        Per-request deadline for pool requests; ``None`` disables
        deadlines (callers may still pass explicit timeouts).
    queue_depth:
        Bound on in-flight pool requests (backpressure): the asyncio
        front-end blocks and the raw ``submit`` surface raises
        :class:`~repro.serve.ServeOverloadError` beyond it.
    """

    batch_size: int = 64
    max_batch_size: int = 32
    max_wait_ms: float = 2.0
    cache_capacity: int = 4096
    capture: bool | None = None
    max_captures: int = 8
    workers: int = 2
    deadline_ms: float | None = None
    queue_depth: int = 128

    def __post_init__(self):
        for name in ("batch_size", "max_batch_size", "cache_capacity",
                     "max_captures", "workers", "queue_depth"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                object.__setattr__(self, name, int(value))
            if getattr(self, name) < 1:
                raise ValueError(f"ServeConfig.{name} must be >= 1, "
                                 f"got {value!r}")
        object.__setattr__(self, "max_wait_ms", float(self.max_wait_ms))
        if self.max_wait_ms < 0:
            raise ValueError("ServeConfig.max_wait_ms must be >= 0")
        if self.deadline_ms is not None:
            object.__setattr__(self, "deadline_ms", float(self.deadline_ms))
            if self.deadline_ms <= 0:
                raise ValueError("ServeConfig.deadline_ms must be > 0 "
                                 "(use None to disable deadlines)")
        if self.capture is not None and not isinstance(self.capture, bool):
            object.__setattr__(self, "capture", bool(self.capture))

    # ------------------------------------------------------------------
    # Derivation / serialization
    # ------------------------------------------------------------------
    def replace(self, **overrides):
        """A copy with the given fields changed (validation re-runs)."""
        return replace(self, **overrides)

    def to_dict(self):
        """JSON-able payload; inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def field_names(cls):
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_dict(cls, payload, strict=False):
        """Rebuild from :meth:`to_dict` output.

        Unknown keys are ignored unless ``strict`` — forward
        compatibility for run directories written by newer versions.
        """
        payload = dict(payload or {})
        known = set(cls.field_names())
        unknown = set(payload) - known
        if unknown and strict:
            raise ValueError(f"unknown ServeConfig fields: {sorted(unknown)}")
        return cls(**{k: v for k, v in payload.items() if k in known})

    @classmethod
    def from_run_config(cls, config_payload):
        """Serving configuration persisted in a run-dir ``config.json``.

        Reads the ``serve`` block; a run directory predating the block
        (or a partial block) fills the gaps with defaults, except
        ``batch_size`` which falls back to the *training* batch size
        recorded at the top level — matching it reproduces the training
        engine's evaluation pass bit-for-bit.
        """
        config_payload = config_payload or {}
        serve_block = dict(config_payload.get("serve") or {})
        if "batch_size" not in serve_block and "batch_size" in config_payload:
            serve_block["batch_size"] = int(config_payload["batch_size"])
        return cls.from_dict(serve_block)

    @classmethod
    def from_run_dir(cls, run_dir):
        """The serving configuration a run directory persisted.

        :meth:`from_run_config` over ``run_dir/config.json``; the
        defaults when the directory has no ``config.json``.
        """
        config_path = Path(run_dir) / "config.json"
        if not config_path.exists():
            return cls()
        return cls.from_run_config(json.loads(config_path.read_text()))


def resolve_config(config, owner, base=None):
    """The :class:`ServeConfig` a serving component runs with.

    ``config`` when given (anything but a ServeConfig raises
    ``TypeError``), else ``base`` — e.g. a MicroBatcher inheriting its
    predictor's config — else the defaults.
    """
    if config is None:
        return base if base is not None else ServeConfig()
    if not isinstance(config, ServeConfig):
        raise TypeError(f"{owner}() config must be a ServeConfig, "
                        f"got {type(config).__name__}")
    return config
