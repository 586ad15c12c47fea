"""Degree-sequence arithmetic: the largest-term reduction, the
graphicality test it gives, and the residue.

A sequence here is any iterable of nonnegative ints; every observable
sequence (inputs echoed in traces, step results) is nonincreasing. A
sequence is graphical when the reduction ends at a list of zeros; the
tests check that against the Erdos-Gallai inequalities, an independent
route kept in tests/oracles.py.

:func:`hh_reduce` stores every step (O(n^2) memory) and is meant for
printing traces. :func:`residue` and :func:`is_graphical` run the same
reduction on a count of terms per value instead: nothing is re-sorted and
no step is kept, so they take O(n + steps * max term) time and linear
memory, and answer exactly as the trace does.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

ALL_ZERO = "all_zero"
NEGATIVE_TERM = "negative_term"
STEP_IMPOSSIBLE = "step_impossible"


def _validated(terms: tuple[int, ...]) -> tuple[int, ...]:
    for t in terms:
        if not isinstance(t, int) or isinstance(t, bool):
            raise ValueError(f"term {t!r} is not an integer")
        if t < 0:
            raise ValueError(f"term {t} is negative")
    return terms


def _normalized(seq: Iterable[int]) -> tuple[int, ...]:
    return _validated(tuple(sorted(seq, reverse=True)))


def hh_step(seq: Iterable[int]) -> tuple[int, ...]:
    """One reduction step: remove a largest term t, subtract 1 from the t
    largest remaining terms, re-sort.

    Ties are broken by subtracting from the earliest positions in sorted
    order; the result multiset does not depend on this choice. Raises if
    the sequence is empty or t exceeds the number of remaining terms; a
    step whose result contains a negative term is returned as-is (the
    caller decides what a negative term means).
    """
    d = _normalized(seq)
    if not d:
        raise ValueError("cannot reduce an empty sequence")
    t = d[0]
    rest = list(d[1:])
    if t > len(rest):
        raise ValueError(
            f"largest term {t} exceeds the {len(rest)} remaining terms"
        )
    for i in range(t):
        rest[i] -= 1
    rest.sort(reverse=True)
    return tuple(rest)


@dataclass(frozen=True)
class ReductionTrace:
    """Record of a full reduction run.

    steps holds the sequences d^0, d^1, ..., each one term shorter than the
    last; outcome is ALL_ZERO when the run ended at a list of zeros,
    NEGATIVE_TERM when a step produced a negative term (that step is the
    last entry), or STEP_IMPOSSIBLE when the largest term exceeded the
    remaining length (the stuck sequence is the last entry).
    """

    steps: tuple[tuple[int, ...], ...]
    outcome: str

    @property
    def is_graphical(self) -> bool:
        return self.outcome == ALL_ZERO

    @property
    def residue(self) -> int:
        """Number of zeros in the terminal sequence; graphical runs only."""
        if not self.is_graphical:
            raise ValueError("residue is defined for graphical sequences only")
        return len(self.steps[-1])


def hh_reduce(seq: Iterable[int]) -> ReductionTrace:
    """Iterate :func:`hh_step` until a list of zeros, a negative term, or a
    step that cannot be applied. Failures are encoded in the trace outcome,
    never raised."""
    d = _normalized(seq)
    steps = [d]
    while True:
        if not d or d[0] == 0:
            return ReductionTrace(tuple(steps), ALL_ZERO)
        if d[0] > len(d) - 1:
            return ReductionTrace(tuple(steps), STEP_IMPOSSIBLE)
        d = hh_step(d)
        steps.append(d)
        if d and d[-1] < 0:
            return ReductionTrace(tuple(steps), NEGATIVE_TERM)


def _histogram_residue(terms: tuple[int, ...]) -> int | None:
    """Residue of the reduction of validated terms, or None when it fails.

    count[v] is the number of remaining terms equal to v. A step removes
    one largest term top and moves the top largest remaining terms down one
    level, a whole run of equal terms at a time; the result multiset is
    that of :func:`hh_step`, whatever the tie-breaking.
    """
    top = max(terms, default=0)
    if top == 0:
        return len(terms)
    if top > len(terms) - 1:  # checked before count is sized by top
        return None
    count = [0] * (top + 1)
    for t in terms:
        count[t] += 1
    # Invariant: top <= n - 1 for the n terms left. A step leaves n - 1
    # terms: if top < n - 1 none exceeds top <= n - 2, and if top = n - 1
    # all of them were lowered, so none exceeds n - 2. No later step is
    # impossible, as in hh_reduce, where only d^0 can be stuck.
    while top:
        count[top] -= 1
        # Walk down from top, moving each whole level while it holds fewer
        # terms than are still needed. carry holds the terms moved from the
        # level above; they join a level only after its own count is read.
        # The other terms number at least top, so the walk stops at level 0
        # at the latest.
        need, level, carry = top, top, 0
        while count[level] < need:
            have = count[level]
            count[level] = carry
            carry = have
            need -= have
            level -= 1
            if not have:  # nothing to carry: skip the empty levels below
                while not count[level]:
                    level -= 1
        if level == 0:
            return None  # a zero term would turn negative
        count[level] += carry - need
        count[level - 1] += need
        while top and not count[top]:
            top -= 1
    return count[0]


def is_graphical(seq: Iterable[int]) -> bool:
    """True iff the reduction terminates at a list of zeros."""
    return _histogram_residue(_validated(tuple(seq))) is not None


def residue(seq: Iterable[int]) -> int:
    """Number of zeros remaining when the reduction terminates; raises
    ValueError on non-graphical input."""
    terms = _validated(tuple(seq))
    r = _histogram_residue(terms)
    if r is None:
        raise ValueError(f"sequence {_normalized(terms)} is not graphical")
    return r
