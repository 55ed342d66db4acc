"""The policy registry: one resolution point for every policy name.

Every layer that needs a policy — the runner, the CLI's ``--policy``
choices, the campaign planner, the benchmark suite, the invariant
checker — resolves it through the shared :data:`repro.policies.REGISTRY`
instance, so registering a policy *once* makes it runnable, sweepable,
benchmarkable and contract-checked everywhere.

Unknown names raise :class:`UnknownPolicyError` (a ``ValueError``): a
typo'd ``--policy`` fails loudly with the list of known names instead of
silently running unchecked.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.policies.spec import ParamSpec, PolicyFactory, PolicySpec
from repro.schedulers.base import Scheduler
from repro.util.validation import require

__all__ = ["PolicyRegistry", "UnknownPolicyError"]


class UnknownPolicyError(ValueError):
    """Raised when a policy name resolves to nothing.

    Subclasses ``ValueError`` so existing call sites that catch bad
    user input (CLI exit-code mapping, campaign validation) keep working.
    """

    def __init__(self, name: str, known: tuple[str, ...]) -> None:
        self.name = name
        self.known = known
        super().__init__(
            f"unknown policy {name!r}; known policies: {', '.join(known)}"
        )


class PolicyRegistry:
    """Ordered mapping of policy name -> :class:`PolicySpec`."""

    def __init__(self) -> None:
        self._specs: dict[str, PolicySpec] = {}
        self._aliases: dict[str, str] = {}

    # ---------------------------------------------------------- registration

    def register(self, spec: PolicySpec) -> PolicySpec:
        """Add ``spec``; names and aliases must be globally unique."""
        for name in (spec.name, *spec.aliases):
            require(
                name not in self._specs and name not in self._aliases,
                f"policy name {name!r} already registered",
            )
        self._specs[spec.name] = spec
        for alias in spec.aliases:
            self._aliases[alias] = spec.name
        return spec

    # -------------------------------------------------------------- lookup

    def get(self, name: str) -> PolicySpec:
        """Resolve ``name`` (canonical or alias) or raise
        :class:`UnknownPolicyError`."""
        canonical = self._aliases.get(name, name)
        spec = self._specs.get(canonical)
        if spec is None:
            raise UnknownPolicyError(name, self.names())
        return spec

    def __contains__(self, name: str) -> bool:
        return name in self._specs or name in self._aliases

    def __iter__(self) -> Iterator[PolicySpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def names(self) -> tuple[str, ...]:
        """Canonical policy names, in registration order."""
        return tuple(self._specs)

    def specs(self) -> tuple[PolicySpec, ...]:
        return tuple(self._specs.values())

    def tagged(self, tag: str) -> tuple[PolicySpec, ...]:
        """Specs carrying ``tag``, in registration order."""
        return tuple(s for s in self._specs.values() if tag in s.tags)

    # ------------------------------------------------------------- building

    def build(
        self, name: str, params: Mapping[str, Any] | None = None
    ) -> Scheduler:
        """Resolve ``name`` and build a scheduler with ``params``."""
        return self.get(name).build(params)

    def factory(
        self, name: str, params: Mapping[str, Any] | None = None
    ) -> PolicyFactory:
        """Resolve ``name`` to a validated zero-arg factory."""
        return self.get(name).from_params(params)

    def standard_factories(self) -> dict[str, PolicyFactory]:
        """Default-parameter factories of the ``standard`` policies, in
        registration order (what `run_policies` runs by default)."""
        return {s.name: s.from_params({}) for s in self.tagged("standard")}

    def invariants(self, name: str) -> tuple[str, ...]:
        """The invariant contract of ``name`` (empty = uncontracted)."""
        return self.get(name).invariants
