"""Cut transition systems over explicit (finite) state spaces.

This is the paper's Section 7 object: a transition system
``T = (S, ξ, →, C)`` where ``C`` is a *cut* — the start state is in ``C``,
every terminating run ends in ``C``, and every infinite run visits ``C``
infinitely often.  The symbolic checker never materializes these; they
exist for the concrete Algorithm 1, for the theory property tests, and for
small pedagogical examples (Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable

State = Hashable


@dataclass
class CutTransitionSystem:
    """``(S, ξ, →, C)`` with finite ``S``."""

    states: frozenset
    initial: State
    transitions: dict
    cuts: frozenset

    def __post_init__(self):
        if self.initial not in self.states:
            raise ValueError("initial state not in state set")
        if not self.cuts <= self.states:
            raise ValueError("cut states must be states")
        for source, targets in self.transitions.items():
            if source not in self.states:
                raise ValueError(f"transition from unknown state {source!r}")
            for target in targets:
                if target not in self.states:
                    raise ValueError(f"transition to unknown state {target!r}")

    @staticmethod
    def build(
        initial: State,
        edges: Iterable[tuple[State, State]],
        cuts: Iterable[State],
        extra_states: Iterable[State] = (),
    ) -> "CutTransitionSystem":
        transitions: dict = {}
        states = {initial, *extra_states}
        for source, target in edges:
            states.add(source)
            states.add(target)
            transitions.setdefault(source, set()).add(target)
        return CutTransitionSystem(
            frozenset(states), initial, transitions, frozenset(cuts)
        )

    def next_states(self, state: State) -> frozenset:
        return frozenset(self.transitions.get(state, ()))

    def cut_successors(self, state: State) -> frozenset:
        """Definition 7.3 / Algorithm 1's ``next_i``: cut states reachable
        through non-cut intermediate states in at least one step.

        Raises :class:`CutViolation` if a final state is reachable through
        non-cut states (the cut condition is then violated for ``state``).
        Cycles through non-cut states are likewise violations when they
        can avoid the cut forever, but for a *candidate* cut we detect
        only what a finite exploration can: a non-cut cycle unreachable
        from any cut exit is reported by :func:`repro.keq.theory.is_cut`.
        """
        found: set = set()
        visited: set = set()
        frontier = [state]
        while frontier:
            current = frontier.pop()
            for successor in self.next_states(current):
                if successor in self.cuts:
                    found.add(successor)
                elif successor not in visited:
                    visited.add(successor)
                    frontier.append(successor)
        return frozenset(found)


@dataclass
class Trace:
    """A finite trace with helpers mirroring the paper's notation."""

    states: list = field(default_factory=list)

    def __getitem__(self, index: int) -> State:
        return self.states[index]

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def first(self) -> State:
        return self.states[0]

    @property
    def final(self) -> State:
        return self.states[-1]


def complete_traces(
    system: CutTransitionSystem, start: State, max_length: int
) -> list[Trace]:
    """All complete traces from ``start`` up to ``max_length`` states.

    Traces that hit the length bound are returned as-is (they approximate
    infinite traces); used by the property tests for Definition 7.1.
    """
    results: list[Trace] = []
    stack: list[list] = [[start]]
    while stack:
        prefix = stack.pop()
        successors = system.next_states(prefix[-1])
        if not successors or len(prefix) >= max_length:
            results.append(Trace(prefix))
            continue
        for successor in sorted(successors, key=repr):
            stack.append(prefix + [successor])
    return results
