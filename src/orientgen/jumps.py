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


def algorithm_J(oracle):
    """Greedy minimal-jump traversal of the language accepted by `oracle`.

    Starting from the identity, repeatedly performs the minimal jump of
    the largest value that reaches an unvisited member; stops when no
    value qualifies or the direction for the largest qualifying value is
    ambiguous.  On a zigzag language this visits every member exactly
    once.

    Rejects a language that does not contain the identity.
    """
    n = oracle.n
    member = oracle.member
    pi0 = tuple(range(1, n + 1))
    if not member(pi0):
        raise InputError("starting permutation is not in the language")
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
