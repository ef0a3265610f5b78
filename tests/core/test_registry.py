"""The one registry contract, checked on every registered kind.

Backends, codegen targets, transports and schedulers are instances of
:class:`repro.core.registry.Registry`; each must behave identically on
registration, lookup, listing, capabilities and name resolution.
"""

import re

import pytest

from repro.backends import BACKENDS, Backend, BackendError
from repro.codegen.targets import TARGETS, CodegenTarget, EmitError
from repro.sched import SCHEDULERS, Scheduler
from repro.shm import TRANSPORTS, Transport, TransportError

#: registry, its error, its base class, the built-in names (sorted),
#: and what ``resolve()`` yields with the environment unset.
KINDS = {
    "backends": (BACKENDS, BackendError, Backend, [
        "asyncio", "emulate", "processes", "simulate", "standalone",
        "tcp", "threads",
    ], None),
    "targets": (TARGETS, EmitError, CodegenTarget,
                ["asyncio", "macro", "python", "standalone"], None),
    "transports": (TRANSPORTS, TransportError, Transport,
                   ["queue", "ring"], "queue"),
    "schedulers": (SCHEDULERS, ValueError, Scheduler,
                   ["aaa", "bicriteria", "round-robin"], "bicriteria"),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request, monkeypatch):
    registry = KINDS[request.param][0]
    # Registrations made by a test vanish with it.
    monkeypatch.setattr(registry, "_classes", dict(registry._classes))
    if registry.env:
        monkeypatch.delenv(registry.env, raising=False)
    return KINDS[request.param]


def test_builtins_are_registered(kind):
    registry, _, _, builtins, _ = kind
    assert registry.names() == builtins


def test_descriptions_are_non_empty(kind):
    registry, _, _, builtins, _ = kind
    described = registry.descriptions()
    assert list(described) == builtins
    assert all(described.values())


def test_capability_table_reads_class_attributes(kind):
    registry, _, _, builtins, _ = kind
    caps = registry.capabilities()
    assert list(caps) == builtins
    for name, row in caps.items():
        cls = type(registry.get(name))
        assert row == {
            header: getattr(cls, attr) for header, attr in registry.columns
        }


def test_unknown_name_lists_the_sorted_names(kind):
    registry, error, _, builtins, _ = kind
    with pytest.raises(error, match=re.escape(
        f"unknown {registry.kind} 'nonesuch'; available: "
        f"{', '.join(builtins)}"
    )):
        registry.get("nonesuch")


def test_duplicate_is_rejected(kind):
    registry, _, base, builtins, _ = kind

    class Clash(base):
        name = builtins[0]
        description = "clash"

    with pytest.raises(ValueError, match="already registered"):
        registry.register(Clash)


@pytest.mark.parametrize("name", [None, "", "?"],
                         ids=["unset", "empty", "placeholder"])
def test_nameless_is_rejected(kind, name):
    registry, _, base, _, _ = kind
    attrs = {"description": "no name"}
    if name is not None:
        attrs["name"] = name
    with pytest.raises(ValueError, match="has no name"):
        registry.register(type("Nameless", (base,), attrs))


def test_available_is_honoured(kind):
    registry, error, base, _, _ = kind

    @registry.register
    class Unavailable(base):
        name = "test-unavailable"
        description = "registered but cannot run here"

        @classmethod
        def available(cls):
            return False

    @registry.register
    class Custom(base):
        name = "test-custom"
        description = "registered and runnable"

    assert {"test-custom", "test-unavailable"} <= set(registry.names())
    assert isinstance(registry.get("test-custom"), Custom)
    with pytest.raises(error, match="not available"):
        registry.get("test-unavailable")


def test_resolve_precedence(kind, monkeypatch):
    registry, _, _, builtins, default = kind
    assert registry.resolve() == default
    if registry.env:
        monkeypatch.setenv(registry.env, builtins[-1])
        assert registry.resolve() == builtins[-1]
    # An explicit name wins over the environment and the default.
    assert registry.resolve(builtins[0]) == builtins[0]
