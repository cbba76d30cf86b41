"""Minimal-jump generation over zigzag languages of permutations.

Permutations are tuples containing each of 1..n exactly once.  A right
jump of a value by d steps slides it over the d smaller entries to its
right (a cyclic left rotation of that substring); left jumps mirror this.
The greedy engine repeatedly jumps the largest value whose minimal jump
reaches an unvisited member of the language.
"""

from .errors import InputError


def _check_permutation(pi):
    pi = tuple(pi)
    if sorted(pi) != list(range(1, len(pi) + 1)):
        raise InputError("not a permutation of 1..%d: %r" % (len(pi), pi))
    return pi


def insert_value(pi, i):
    """c_i: insert the new largest value at position i (1-based)."""
    n = len(pi) + 1
    if not 1 <= i <= n:
        raise InputError("insertion position %r out of range" % (i,))
    return pi[:i - 1] + (n,) + pi[i - 1:]


def remove_largest(pi):
    """p: drop the largest entry."""
    if not pi:
        raise InputError("cannot remove from the empty permutation")
    n = len(pi)
    k = pi.index(n)
    return pi[:k] + pi[k + 1:]


def jump(pi, value, direction, steps):
    """Jump `value` by `steps` positions, rejecting invalid jumps.

    The entries jumped over must all be smaller than `value` and must
    exist; otherwise InputError is raised.
    """
    if direction not in ("left", "right"):
        raise InputError("direction must be 'left' or 'right'")
    if steps < 1:
        raise InputError("steps must be at least 1")
    try:
        pos = pi.index(value)
    except ValueError:
        raise InputError("value %r not in permutation" % (value,)) from None
    if direction == "right":
        end = pos + steps
        if end < len(pi) and all(pi[k] < value
                                 for k in range(pos + 1, end + 1)):
            return pi[:pos] + pi[pos + 1:end + 1] + (value,) + pi[end + 1:]
    else:
        start = pos - steps
        if start >= 0 and all(pi[k] < value for k in range(start, pos)):
            return pi[:start] + (value,) + pi[start:pos] + pi[pos + 1:]
    raise InputError(
        "invalid %s jump of %d by %d in %r" % (direction, value, steps, pi))


def _has_peak(pi):
    return any(pi[k - 1] < pi[k] > pi[k + 1] for k in range(1, len(pi) - 1))


class LanguageOracle:
    """A language of permutations of 1..n given by a membership predicate."""

    __slots__ = ("n", "member")

    def __init__(self, n, member):
        self.n = n
        self.member = member

    @classmethod
    def from_set(cls, perms):
        """Oracle for an explicit collection of equal-length permutations."""
        perms = {_check_permutation(p) for p in perms}
        if not perms:
            raise InputError("empty language")
        n = len(next(iter(perms)))
        if any(len(p) != n for p in perms):
            raise InputError("mixed permutation lengths")
        return cls(n, perms.__contains__)


def _minimal_jump(member, pi, value, direction):
    """Nearest in-language target of a jump of `value`, or None.

    Returns (target, steps); minimality means every shorter jump in the
    same direction leaves the language.
    """
    pos = pi.index(value)
    if direction == "right":
        k = pos + 1
        while k < len(pi) and pi[k] < value:
            target = pi[:pos] + pi[pos + 1:k + 1] + (value,) + pi[k + 1:]
            if member(target):
                return target, k - pos
            k += 1
        return None
    k = pos - 1
    while k >= 0 and pi[k] < value:
        target = pi[:k] + (value,) + pi[k:pos] + pi[pos + 1:]
        if member(target):
            return target, pos - k
        k -= 1
    return None


def algorithm_J(oracle, pi0=None):
    """Greedy minimal-jump traversal of the language accepted by `oracle`.

    Starting from pi0 (default: the identity), repeatedly performs the
    minimal jump of the largest value that reaches an unvisited member;
    stops when no value qualifies or the direction for the largest
    qualifying value is ambiguous.  On a zigzag language with a peak-free
    start this visits every member exactly once.

    Rejects a start that is outside the language or contains a peak.
    """
    n = oracle.n
    member = oracle.member
    if pi0 is None:
        pi0 = tuple(range(1, n + 1))
    else:
        pi0 = _check_permutation(pi0)
        if len(pi0) != n:
            raise InputError("starting permutation has wrong length")
    if not member(pi0):
        raise InputError("starting permutation is not in the language")
    if _has_peak(pi0):
        raise InputError("starting permutation has a peak")
    seq = [pi0]
    visited = {pi0}
    current = pi0
    while True:
        chosen = None
        ambiguous = False
        for v in range(n, 1, -1):
            found = []
            for direction in ("left", "right"):
                hit = _minimal_jump(member, current, v, direction)
                if hit is not None and hit[0] not in visited:
                    found.append(hit[0])
            if found:
                if len(found) > 1:
                    ambiguous = True
                else:
                    chosen = found[0]
                break
        if ambiguous or chosen is None:
            return seq
        visited.add(chosen)
        seq.append(chosen)
        current = chosen


def inductive_J(chain):
    """Expand the inductive description of the jump ordering.

    ``chain`` lists explicit languages L_0..L_n, where L_k contains
    permutations of 1..k; L_0 must be {()} and every level must project
    onto the previous one while satisfying one of the closure conditions:
    (z1) both boundary insertions of every member of L_{k-1} lie in L_k,
    or (z2) L_k consists exactly of the last-position insertions.

    The sequence is built by inserting the new value along each member's
    valid positions, alternating sweep direction, which reproduces the
    greedy engine's output on the same language.
    """
    levels = [{_check_permutation(p) for p in level} for level in chain]
    if not levels or levels[0] != {()}:
        raise InputError("chain must start at the singleton empty language")
    seq = [()]
    for k in range(1, len(levels)):
        prev, cur = levels[k - 1], levels[k]
        for p in cur:
            if len(p) != k:
                raise InputError("level %d contains a wrong-length entry" % k)
        if {remove_largest(p) for p in cur} != prev:
            raise InputError("level %d does not project onto level %d" % (k, k - 1))
        z1 = all(insert_value(p, 1) in cur and insert_value(p, k) in cur
                 for p in prev)
        z2 = cur == {insert_value(p, k) for p in prev}
        if not (z1 or z2):
            raise InputError("level %d violates the zigzag conditions" % k)
        out = []
        for idx, p in enumerate(seq):
            fiber = [i for i in range(1, k + 1) if insert_value(p, i) in cur]
            if idx % 2 == 0:
                fiber.reverse()
            out.extend(insert_value(p, i) for i in fiber)
        seq = out
    return seq


def is_zigzag_language(perms):
    """True iff the explicit set of permutations is a zigzag language.

    The projection chain is built by removing the largest value level by
    level; every level must satisfy (z1) or (z2) over its projection.
    """
    cur = {_check_permutation(p) for p in perms}
    if not cur:
        return False
    n = len(next(iter(cur)))
    if any(len(p) != n for p in cur):
        raise InputError("mixed permutation lengths")
    for k in range(n, 0, -1):
        prev = {remove_largest(p) for p in cur}
        z1 = all(insert_value(p, 1) in cur and insert_value(p, k) in cur
                 for p in prev)
        z2 = cur == {insert_value(p, k) for p in prev}
        if not (z1 or z2):
            return False
        cur = prev
    return True
