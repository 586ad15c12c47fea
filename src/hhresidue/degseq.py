"""Degree-sequence arithmetic: the largest-term reduction, the
graphicality test it gives, and the residue.

A sequence here is any iterable of nonnegative ints; every observable
sequence (inputs echoed in traces, step results) is nonincreasing. A
sequence is graphical when the reduction ends at a list of zeros; the
tests check that against the Erdos-Gallai inequalities, an independent
route kept in tests/oracles.py.

:func:`hh_reduce` returns every step (O(n^2) memory) and is meant for
printing traces. :func:`residue` and :func:`is_graphical` run the same
reduction on a count of terms per value instead: nothing is re-sorted and
no step is kept, so they take O(n + steps * max term) time and linear
memory, and answer exactly as the trace does.
"""

from __future__ import annotations

from collections.abc import Iterable


def _validated(terms: tuple[int, ...]) -> tuple[int, ...]:
    for t in terms:
        if not isinstance(t, int) or isinstance(t, bool):
            raise ValueError(f"term {t!r} is not an integer")
        if t < 0:
            raise ValueError(f"term {t} is negative")
    return terms


def _normalized(seq: Iterable[int]) -> tuple[int, ...]:
    return _validated(tuple(sorted(seq, reverse=True)))


def hh_reduce(seq: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """The sequences d^0, d^1, ..., d^k of the reduction, each sorted
    nonincreasing and one term shorter than the one before. A step removes
    a largest term t and subtracts 1 from the t largest remaining terms;
    the result multiset does not depend on how ties are broken.

    The last sequence tells how the run ended: all zeros (or empty) when
    seq is graphical, the residue being its length; a negative last term
    when that step went negative; anything else only when d^0 itself could
    not be reduced, its largest term exceeding its number of other terms.
    Raises ValueError on a negative or non-integer term of seq.
    """
    d = list(_normalized(seq))
    steps = [tuple(d)]
    while d and 0 < d[0] < len(d):
        t = d.pop(0)
        for i in range(t):
            d[i] -= 1
        d.sort(reverse=True)
        steps.append(tuple(d))
        if d[-1] < 0:
            break
    return tuple(steps)


def _histogram_residue(terms: tuple[int, ...]) -> int | None:
    """Residue of the reduction of validated terms, or None when it fails.

    count[v] is the number of remaining terms equal to v. A step removes
    one largest term top and moves the top largest remaining terms down one
    level, a whole run of equal terms at a time; the result multiset is
    that of a step of :func:`hh_reduce`, whatever the tie-breaking.
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
