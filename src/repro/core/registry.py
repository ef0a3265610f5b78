"""One registry class for every pluggable kind: name -> class.

Execution backends, codegen targets, intra-host transports and placement
policies are each one :class:`Registry` instance (``BACKENDS``,
``TARGETS``, ``TRANSPORTS``, ``SCHEDULERS``).  A class joins its kind
with the ``@KIND.register`` decorator — in the dace idiom, importing its
module is the whole registration — and callers resolve names at run
time, so adding a substrate never touches them.

Stdlib-only, and consulted once per run, never per packet.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple, Type

__all__ = ["Registry"]


class Registry:
    """Registered classes of one kind, keyed by their ``name`` attribute.

    Args:
        kind: the noun used in messages (``"backend"``,
            ``"codegen target"``, ...).
        error: exception raised for an unknown or unavailable name.
        columns: the capability table, as ``(header, class attribute)``
            pairs; :meth:`capabilities` reads them off each class.
        env: environment variable :meth:`resolve` consults when no name
            is given explicitly.
        default: the name :meth:`resolve` falls back to last.
    """

    def __init__(
        self,
        kind: str,
        error: Type[Exception] = ValueError,
        *,
        columns: Sequence[Tuple[str, str]] = (),
        env: Optional[str] = None,
        default: Optional[str] = None,
    ) -> None:
        self.kind = kind
        self.error = error
        self.columns = tuple(columns)
        self.env = env
        self.default = default
        self._classes: Dict[str, type] = {}

    def register(self, cls: type) -> type:
        """Class decorator adding ``cls`` under ``cls.name``."""
        name = getattr(cls, "name", None)
        if not name or name == "?":
            raise ValueError(f"{self.kind} class {cls.__name__} has no name")
        if name in self._classes:
            raise ValueError(f"{self.kind} {name!r} already registered")
        self._classes[name] = cls
        return cls

    def get(self, name: str):
        """A fresh instance of the class registered under ``name``."""
        try:
            cls = self._classes[name]
        except KeyError:
            raise self.error(
                f"unknown {self.kind} {name!r}; available: "
                f"{', '.join(self.names())}"
            ) from None
        available = getattr(cls, "available", None)
        if available is not None and not available():
            raise self.error(
                f"{self.kind} {name!r} is not available on this host"
            )
        return cls()

    def resolve(self, name: Optional[str] = None) -> Optional[str]:
        """The explicit ``name``, else ``$env``, else the default."""
        return (name or (self.env and os.environ.get(self.env))
                or self.default)

    def names(self) -> List[str]:
        """Registered names, sorted."""
        return sorted(self._classes)

    def descriptions(self) -> Dict[str, str]:
        """Name -> one-line description, in sorted-name order."""
        return {n: self._classes[n].description for n in self.names()}

    def capabilities(self) -> Dict[str, Dict[str, object]]:
        """Name -> {column header: class attribute}, in sorted-name order."""
        return {
            n: {header: getattr(self._classes[n], attr)
                for header, attr in self.columns}
            for n in self.names()
        }
