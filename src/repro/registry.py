"""One generic registry for every pluggable simulator component.

The simulator grows by *registration*, not by editing factories: arbitration
policies (:mod:`repro.sim.arbiter`), simulation engines
(:mod:`repro.sim.scheduler`) and shared-resource topologies
(:mod:`repro.sim.topology`) each keep a name -> entry mapping populated by a
decorator and read by every consumer — ``System`` construction, ``ArchConfig``
validation, the CLI's ``list`` subcommand and the campaign sweep axes.

Those three mappings are structurally identical, so the behaviour that must
never drift between them lives here exactly once:

* **duplicate rejection** — registering a taken name raises
  :class:`~repro.errors.ConfigurationError`; silently replacing an entry
  would let two runs with identical configurations simulate different
  platforms;
* **listing** — :meth:`Registry.names` returns registration order, which is
  what the CLI prints and the tier-1 tests pin against the built-in tuples
  declared in :mod:`repro.config`;
* **lookup errors** — :meth:`Registry.require` names the component kind and
  the registered alternatives, so a typo in a configuration fails with an
  actionable message;
* **the lazy configuration fallback** — :func:`registry_backed_names` gives
  ``repro.config`` (the bottom layer) a callable view of a registry that
  reads the registry only once its module is loaded and otherwise answers
  with the built-in tuple, so validating a configuration, or building the
  CLI parser, never imports the simulator.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Generic, Iterator, Optional, Tuple, TypeVar

from .errors import ConfigurationError

T = TypeVar("T")


class Registry(Generic[T]):
    """A name -> entry mapping with duplicate rejection and rich lookups.

    Args:
        kind: human-readable component kind (``"arbitration policy"``,
            ``"simulation engine"``, ``"topology"``) used in error messages.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, T] = {}

    def register(self, name: str, entry: T) -> T:
        """Add ``entry`` under ``name``; empty or taken names are errors."""
        if not name:
            raise ConfigurationError(f"a registered {self.kind} needs a non-empty name")
        if name in self._entries:
            raise ConfigurationError(f"{self.kind} {name!r} already registered")
        self._entries[name] = entry
        return entry

    def get(self, name: str, default: Optional[T] = None) -> Optional[T]:
        """The entry registered under ``name``, or ``default``."""
        return self._entries.get(name, default)

    def require(self, name: str) -> T:
        """The entry registered under ``name``; unknown names raise
        :class:`~repro.errors.ConfigurationError` listing the alternatives."""
        entry = self._entries.get(name)
        if entry is None:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; registered: {list(self._entries)}"
            )
        return entry

    def names(self) -> Tuple[str, ...]:
        """Every registered name, in registration order."""
        return tuple(self._entries)

    def values(self) -> Tuple[T, ...]:
        """Every registered entry, in registration order."""
        return tuple(self._entries.values())

    def items(self) -> Tuple[Tuple[str, T], ...]:
        """``(name, entry)`` pairs, in registration order."""
        return tuple(self._entries.items())

    def pop(self, name: str) -> T:
        """Remove and return the entry under ``name`` (tests deregister with
        this after exercising runtime registration)."""
        return self._entries.pop(name)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, names={list(self._entries)})"


def registry_backed_names(
    module_name: str, accessor: str, fallback: Tuple[str, ...]
) -> Callable[[], Tuple[str, ...]]:
    """A callable returning the names a registry currently holds.

    ``repro.config`` validates configuration fields against the registries so
    a policy registered at runtime is immediately constructible, but it must
    stay the bottom layer of the package and must not load the simulator to
    check a name.  So the registry is read only when its module is already in
    :data:`sys.modules`; otherwise ``fallback`` (the built-in tuple) is the
    answer.  That is exact: nothing can register into a registry whose module
    was never imported, so until then the registry holds the built-ins, and a
    tier-1 test pins each built-in tuple to its registry.  A module that is
    loaded but still initialising (its accessor not yet defined) also gets
    ``fallback``.

    Args:
        module_name: absolute module holding the registry accessor.
        accessor: name of the zero-argument callable returning the names.
        fallback: built-in names returned while the module is not loaded.
    """

    def names() -> Tuple[str, ...]:
        registered = getattr(sys.modules.get(module_name), accessor, None)
        if registered is None:
            return fallback
        return registered()

    return names
