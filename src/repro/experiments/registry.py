"""The experiment registry: declarative scenario specs instead of if-chains.

Every paper scenario registers itself once, with its runner, its config
dataclass, the approaches it supports and its smoke scale (the config
overrides every tiny-scale run of it uses)::

    @register(
        "hybrid_a",
        config_cls=ConsolidationConfig,
        smoke=dict(num_tuples=1200, warmup=1.0, ...),
        description="cluster consolidation under hybrid workload A",
    )
    def _hybrid_a(approach, config):
        ...

Callers then resolve scenarios uniformly — the CLI, the seed sweep, the
tests and the benchmarks all go through here::

    from repro.experiments import registry

    result = registry.run("hybrid_a", approach="remus", seed=3)
    spec = registry.get("hybrid_a")
    config = registry.make_config("hybrid_a", seed=3, group_size=4)

``run`` accepts either a scenario name or an :class:`ExperimentSpec`, and
either a ready config object or keyword overrides applied on top of the
spec's defaults. Config construction is uniform because every scenario
config is a dataclass with a ``seed`` field.
"""

from dataclasses import dataclass, fields
from importlib import import_module
from typing import Callable

#: Modules whose import triggers their ``@register`` calls. Kept explicit so
#: ``names()`` works without the caller having to know the module layout.
_EXPERIMENT_MODULES = (
    "repro.experiments.consolidation",
    "repro.experiments.load_balancing",
    "repro.experiments.scale_out",
    "repro.experiments.high_contention",
    "repro.experiments.geo",
)

_REGISTRY: dict[str, "ExperimentSpec"] = {}
_loaded = False


@dataclass(frozen=True)
class ExperimentSpec:
    """One scenario: how to build its config and run it."""

    name: str
    runner: Callable  # (approach, config) -> ExperimentResult
    config_cls: type
    approaches: tuple  # approach names this scenario supports
    default_approach: str = "remus"
    config_defaults: tuple = ()  # ((field, value), ...) applied by make_config
    smoke: tuple = ()  # ((field, value), ...): the tiny-scale overrides
    description: str = ""

    def make_config(self, seed=0, **overrides):
        """Build the scenario config: spec defaults, then overrides."""
        kwargs = dict(self.config_defaults)
        kwargs.update(overrides)
        kwargs["seed"] = seed
        known = {f.name for f in fields(self.config_cls)}
        unknown = set(kwargs) - known
        if unknown:
            raise ValueError(
                "unknown {} fields for scenario {!r}: {}".format(
                    self.config_cls.__name__, self.name, sorted(unknown)
                )
            )
        return self.config_cls(**kwargs)

    def run(self, approach=None, config=None, seed=0, **overrides):
        """Run the scenario; returns its ``ExperimentResult``."""
        approach = approach or self.default_approach
        if approach not in self.approaches:
            raise ValueError(
                "scenario {!r} does not support approach {!r}; pick one of {}".format(
                    self.name, approach, list(self.approaches)
                )
            )
        if config is None:
            config = self.make_config(seed=seed, **overrides)
        elif overrides:
            raise ValueError("pass either a config object or overrides, not both")
        return self.runner(approach, config)


# The paper's full approach line-up; scale-out excludes Squall (§4.6: the
# port does not support multi-key range partitioning).
ALL_APPROACHES = ("remus", "lock_and_abort", "wait_and_remaster", "squall")
NO_SQUALL = ("remus", "lock_and_abort", "wait_and_remaster")


def register(
    name,
    *,
    config_cls,
    approaches=ALL_APPROACHES,
    default_approach="remus",
    config_defaults=(),
    smoke=None,
    description="",
):
    """Class-decorator-style registration of a scenario runner."""

    def decorate(runner):
        if name in _REGISTRY:
            raise ValueError("scenario {!r} registered twice".format(name))
        _REGISTRY[name] = ExperimentSpec(
            name=name,
            runner=runner,
            config_cls=config_cls,
            approaches=tuple(approaches),
            default_approach=default_approach,
            config_defaults=tuple(config_defaults),
            smoke=tuple((smoke or {}).items()),
            description=description,
        )
        return runner

    return decorate


def ensure_loaded():
    """Import every experiment module so registrations have run."""
    global _loaded
    if not _loaded:
        _loaded = True
        for module in _EXPERIMENT_MODULES:
            import_module(module)


def names():
    """Registered scenario names, in paper order.

    Insertion order in ``_REGISTRY`` depends on which module happened to be
    imported first (a test importing ``high_contention`` directly registers
    it before ``ensure_loaded`` walks the canonical list), so presentation
    order is pinned to ``_EXPERIMENT_MODULES`` instead. The sort is stable:
    scenarios from one module keep their top-to-bottom registration order.
    """
    ensure_loaded()
    rank = {module: index for index, module in enumerate(_EXPERIMENT_MODULES)}
    return tuple(
        sorted(
            _REGISTRY,
            key=lambda name: rank.get(_REGISTRY[name].runner.__module__, len(rank)),
        )
    )


def get(name):
    """Resolve a scenario name to its :class:`ExperimentSpec`."""
    ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            "unknown scenario {!r}; pick one of {}".format(name, list(_REGISTRY))
        ) from None


def make_config(name, seed=0, **overrides):
    return get(name).make_config(seed=seed, **overrides)


def run(spec, approach=None, config=None, seed=0, **overrides):
    """Run a scenario by name or :class:`ExperimentSpec`."""
    if not isinstance(spec, ExperimentSpec):
        spec = get(spec)
    return spec.run(approach=approach, config=config, seed=seed, **overrides)
