"""Functional dependencies and their implication analysis.

Algorithm ``CovChk`` (Section 4) reduces the *fetchable* check to FD
implication over *induced FDs* (Lemma 4).  This module provides a small,
self-contained FD engine: the classical linear-time closure computation
(Beeri–Bernstein counting algorithm) and the implication test built on it.

Attributes here are plain hashable tokens (the library uses the unified
attribute names produced by :mod:`repro.core.spc`), so the module is usable
for ordinary FD reasoning as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence

Token = Hashable


@dataclass(frozen=True)
class FunctionalDependency:
    """A functional dependency ``lhs -> rhs`` over attribute tokens.

    An empty ``lhs`` is allowed and means the dependency fires unconditionally
    (it corresponds to access constraints of the form ``R(∅ -> X, N)``).
    """

    lhs: frozenset[Token]
    rhs: frozenset[Token]

    @classmethod
    def of(cls, lhs: Iterable[Token] | str, rhs: Iterable[Token] | str) -> "FunctionalDependency":
        """Build an FD; a bare string is treated as a single attribute token."""
        if isinstance(lhs, str):
            lhs = [lhs]
        if isinstance(rhs, str):
            rhs = [rhs]
        return cls(frozenset(lhs), frozenset(rhs))

    @property
    def size(self) -> int:
        return len(self.lhs) + len(self.rhs)

    def __str__(self) -> str:
        lhs = ",".join(sorted(map(str, self.lhs))) or "∅"
        rhs = ",".join(sorted(map(str, self.rhs)))
        return f"{lhs} -> {rhs}"


class FDSet:
    """A set of functional dependencies supporting linear-time closure queries."""

    def __init__(self, dependencies: Iterable[FunctionalDependency] = ()):
        self._dependencies: list[FunctionalDependency] = list(dependencies)

    def add(self, dependency: FunctionalDependency) -> None:
        """Append a dependency to the set (no implication check)."""
        self._dependencies.append(dependency)

    def __iter__(self) -> Iterator[FunctionalDependency]:
        return iter(self._dependencies)

    def __len__(self) -> int:
        return len(self._dependencies)

    def __contains__(self, dependency: FunctionalDependency) -> bool:
        return dependency in self._dependencies

    @property
    def size(self) -> int:
        """Total length of the dependencies (for complexity accounting)."""
        return sum(dependency.size for dependency in self._dependencies)

    def attributes(self) -> set[Token]:
        """All attribute tokens mentioned by some dependency."""
        tokens: set[Token] = set()
        for dependency in self._dependencies:
            tokens |= dependency.lhs
            tokens |= dependency.rhs
        return tokens

    # -- closure and implication ------------------------------------------------
    def closure(self, attributes: Iterable[Token]) -> frozenset[Token]:
        """The attribute closure of ``attributes`` under this FD set."""
        return closure(attributes, self._dependencies)

    def implies(self, lhs: Iterable[Token], rhs: Iterable[Token]) -> bool:
        """Whether ``lhs -> rhs`` is implied by this FD set (``Σ |= lhs → rhs``)."""
        return set(rhs) <= self.closure(lhs)


def closure(
    attributes: Iterable[Token], dependencies: Sequence[FunctionalDependency]
) -> frozenset[Token]:
    """The attribute closure of ``attributes`` under ``dependencies``.

    Implements the counting algorithm of Beeri and Bernstein: each
    dependency keeps a counter of left-hand-side attributes not yet in the
    closure; when the counter reaches zero its right-hand side is added.
    Runs in time linear in the total size of the dependencies.
    """
    closed: set[Token] = set(attributes)
    counters: list[int] = []
    by_attribute: dict[Token, list[int]] = {}
    queue: list[Token] = list(closed)

    for index, dependency in enumerate(dependencies):
        # Counters start at the full LHS size; every LHS attribute that
        # enters the closure is drained exactly once through the queue.
        counters.append(len(dependency.lhs))
        for token in dependency.lhs:
            by_attribute.setdefault(token, []).append(index)
        if not dependency.lhs:
            for token in dependency.rhs:
                if token not in closed:
                    closed.add(token)
                    queue.append(token)

    while queue:
        token = queue.pop()
        for index in by_attribute.get(token, ()):
            counters[index] -= 1
            if counters[index] == 0:
                for added in dependencies[index].rhs:
                    if added not in closed:
                        closed.add(added)
                        queue.append(added)
    return frozenset(closed)


def implies(
    dependencies: Sequence[FunctionalDependency],
    lhs: Iterable[Token],
    rhs: Iterable[Token],
) -> bool:
    """Module-level convenience wrapper around :meth:`FDSet.implies`."""
    return FDSet(dependencies).implies(lhs, rhs)
