"""Backend-specific registry facts.

The contract every registry shares is in ``tests/core/test_registry.py``.
"""

import pytest

from repro.backends import (
    BACKENDS,
    AsyncioBackend,
    BackendError,
    EmulateBackend,
    ProcessBackend,
    SimulateBackend,
    StandaloneBackend,
    ThreadBackend,
    get_backend,
)


class TestRegistry:
    def test_get_backend_returns_instances(self):
        from repro.net import TcpBackend

        for name, cls in [
            ("emulate", EmulateBackend),
            ("simulate", SimulateBackend),
            ("threads", ThreadBackend),
            ("asyncio", AsyncioBackend),
            ("processes", ProcessBackend),
            ("standalone", StandaloneBackend),
            ("tcp", TcpBackend),
        ]:
            backend = get_backend(name)
            assert isinstance(backend, cls)
            assert backend.name == name

    def test_unknown_backend_lists_available(self):
        with pytest.raises(BackendError, match="emulate"):
            get_backend("transputer")

    def test_unknown_backend_message_lists_names_sorted(self):
        """The error text embeds the exact sorted, comma-joined names, so
        test assertions (and shell greps) are deterministic."""
        with pytest.raises(
            BackendError,
            match="unknown backend 'transputer'; available: "
                  "asyncio, emulate, processes, simulate, standalone, "
                  "tcp, threads",
        ):
            get_backend("transputer")

    def test_real_flags(self):
        assert not get_backend("emulate").real
        assert not get_backend("simulate").real
        assert get_backend("threads").real
        assert get_backend("asyncio").real
        assert get_backend("processes").real
        assert get_backend("standalone").real
        assert get_backend("tcp").real

    def test_capability_matrix(self):
        caps = BACKENDS.capabilities()
        assert caps["emulate"] == {
            "faults": False, "realtime": False, "distributed": False,
        }
        assert caps["processes"]["faults"]
        assert caps["processes"]["realtime"]
        assert caps["asyncio"]["realtime"]
        assert not caps["asyncio"]["faults"]
        assert not caps["standalone"]["faults"]
        assert [n for n, f in caps.items() if f["distributed"]] == ["tcp"]

    def test_emulate_needs_program(self):
        with pytest.raises(BackendError, match="program"):
            get_backend("emulate").run(None, None)
