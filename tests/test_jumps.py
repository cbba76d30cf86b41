"""Jump operations and the greedy generation engine."""

import itertools
import random

import pytest

from orientgen.errors import InputError
from orientgen.jumps import LanguageOracle, _check_permutation, algorithm_J

# Permutation operations and the inductive description of the jump
# ordering: the library's engines need none of them, so they live here as
# the reference the greedy engine is tested against.


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


def all_perms(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def avoids_231(pi):
    n = len(pi)
    for i in range(n):
        for j in range(i + 1, n):
            if pi[i] >= pi[j]:
                continue
            if any(pi[k] < pi[i] for k in range(j + 1, n)):
                return False
    return True


def is_clean_jump(pi, value, direction, steps):
    """True iff the jump is valid and every value larger than `value`
    sits to the left or to the right of all entries smaller than it."""
    try:
        jump(pi, value, direction, steps)
    except InputError:
        return False
    n = len(pi)
    pos = [0] * (n + 1)
    for k, v in enumerate(pi):
        pos[v] = k
    lo = hi = pos[1]
    for k in range(2, n + 1):
        if k > value and lo <= pos[k] <= hi:
            return False
        if pos[k] < lo:
            lo = pos[k]
        if pos[k] > hi:
            hi = pos[k]
    return True


# Frozen plain-change listings for small complete languages.
SJT = {
    2: ["12", "21"],
    3: ["123", "132", "312", "321", "231", "213"],
    4: ["1234", "1243", "1423", "4123", "4132", "1432", "1342", "1324",
        "3124", "3142", "3412", "4312", "4321", "3421", "3241", "3214",
        "2314", "2341", "2431", "4231", "4213", "2413", "2143", "2134"],
}


def as_str(pi):
    return "".join(str(v) for v in pi)


def test_insert_and_remove():
    assert insert_value((1, 2), 1) == (3, 1, 2)
    assert insert_value((1, 2), 3) == (1, 2, 3)
    assert insert_value((2, 1), 2) == (2, 3, 1)
    assert insert_value((), 1) == (1,)
    assert remove_largest((2, 3, 1)) == (2, 1)
    assert remove_largest((1,)) == ()
    with pytest.raises(InputError):
        insert_value((1, 2), 4)
    with pytest.raises(InputError):
        insert_value((1, 2), 0)
    with pytest.raises(InputError):
        remove_largest(())


def test_jump_examples():
    assert jump((2, 6, 5, 1, 3, 4), 5, "right", 2) == (2, 6, 1, 3, 5, 4)
    assert jump((2, 6, 1, 3, 5, 4), 5, "left", 2) == (2, 6, 5, 1, 3, 4)
    # a one-step jump is an adjacent transposition
    assert jump((1, 2, 3), 3, "left", 1) == (1, 3, 2)
    assert jump((1, 2, 3), 2, "left", 1) == (2, 1, 3)


def test_jump_rejects_invalid():
    # would pass over the larger value 6
    with pytest.raises(InputError):
        jump((2, 6, 5, 1, 3, 4), 5, "left", 1)
    # runs off the end
    with pytest.raises(InputError):
        jump((1, 2, 3), 3, "right", 1)
    with pytest.raises(InputError):
        jump((1, 2, 3), 1, "left", 1)
    # smaller values may never jump over larger ones
    with pytest.raises(InputError):
        jump((1, 3, 2), 2, "left", 1)
    with pytest.raises(InputError):
        jump((1, 2, 3), 4, "left", 1)
    with pytest.raises(InputError):
        jump((1, 2, 3), 2, "down", 1)
    with pytest.raises(InputError):
        jump((1, 2, 3), 2, "left", 0)


def test_jump_roundtrip_random():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 8)
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        pi = tuple(pi)
        v = rng.randint(2, n)
        d = rng.randint(1, n - 1)
        for direction, back in (("right", "left"), ("left", "right")):
            try:
                out = jump(pi, v, direction, d)
            except InputError:
                continue
            assert jump(out, v, back, d) == pi


def test_clean_jump():
    # jumps of the largest value are always clean
    assert is_clean_jump((2, 6, 5, 1, 3, 4), 6, "right", 3)
    assert is_clean_jump((1, 2, 3), 3, "left", 2)
    # 3 flanks the smaller values here
    assert is_clean_jump((3, 1, 2), 2, "left", 1)
    # invalid jump: 2 cannot pass over 3
    assert not is_clean_jump((1, 3, 2), 2, "left", 1)
    # valid jump, but 6 sits between smaller values
    assert not is_clean_jump((2, 6, 5, 1, 3, 4), 5, "right", 2)


def test_algorithm_J_plain_changes():
    for n, expected in SJT.items():
        oracle = LanguageOracle(n, lambda p: True)
        seq = algorithm_J(oracle)
        assert [as_str(p) for p in seq] == expected


def test_algorithm_J_full_symmetric_group():
    for n in range(1, 6):
        oracle = LanguageOracle(n, lambda p: True)
        seq = algorithm_J(oracle)
        assert len(seq) == len(set(seq)) == len(all_perms(n))
        # every step is an adjacent transposition, cyclically
        pairs = list(zip(seq, seq[1:]))
        if n >= 2:
            pairs.append((seq[-1], seq[0]))
        for a, b in pairs:
            diff = [k for k in range(n) if a[k] != b[k]]
            assert len(diff) == 2 and diff[1] == diff[0] + 1


def test_algorithm_J_rejects_bad_start():
    # the walk starts at the identity, so a language without it is refused
    for oracle in (LanguageOracle(3, lambda p: p != (1, 2, 3)),
                   LanguageOracle.from_set([(2, 1, 3), (2, 3, 1)])):
        with pytest.raises(InputError, match="starting permutation is not "
                                             "in the language"):
            algorithm_J(oracle)


def test_algorithm_J_pattern_avoiders():
    oracle = LanguageOracle(4, avoids_231)
    seq = algorithm_J(oracle)
    expected = {p for p in all_perms(4) if avoids_231(p)}
    assert len(expected) == 14
    assert len(seq) == 14 and set(seq) == expected


def test_inductive_matches_greedy_on_symmetric_group():
    for n in range(0, 5):
        chain = [all_perms(k) for k in range(n + 1)]
        seq = inductive_J(chain)
        assert seq == algorithm_J(LanguageOracle(n, lambda p: True))


def test_inductive_matches_greedy_on_avoiders():
    chain = [[p for p in all_perms(k) if avoids_231(p)] for k in range(5)]
    assert inductive_J(chain) == algorithm_J(LanguageOracle(4, avoids_231))


def random_zigzag_chain(n, rng):
    chain = [{()}]
    for k in range(1, n + 1):
        prev = chain[-1]
        if k > 1 and rng.random() < 0.3:
            level = {insert_value(p, k) for p in prev}
        else:
            level = set()
            for p in prev:
                keep = [1, k] + [i for i in range(2, k) if rng.random() < 0.5]
                level.update(insert_value(p, i) for i in keep)
        chain.append(level)
    return [sorted(level) for level in chain]


def test_inductive_matches_greedy_on_random_languages():
    rng = random.Random(20)
    for _ in range(40):
        n = rng.randint(1, 6)
        chain = random_zigzag_chain(n, rng)
        lang = set(chain[-1])
        seq = inductive_J(chain)
        assert len(seq) == len(lang) and set(seq) == lang
        assert seq == algorithm_J(LanguageOracle(n, lang.__contains__))


def jump_between(a, b):
    """The (value, direction, steps) of the jump taking a to b."""
    diff = [k for k in range(len(a)) if a[k] != b[k]]
    lo, hi = diff[0], diff[-1]
    for value, direction in ((a[lo], "right"), (a[hi], "left")):
        try:
            if jump(a, value, direction, hi - lo) == b:
                return value, direction, hi - lo
        except InputError:
            pass
    raise AssertionError("%r -> %r is not a jump" % (a, b))


def test_every_greedy_step_is_a_clean_jump():
    rng = random.Random(20)
    languages = [(n, lambda p: True) for n in range(2, 6)]
    languages.append((4, avoids_231))
    for _ in range(40):
        n = rng.randint(1, 6)
        lang = set(random_zigzag_chain(n, rng)[-1])
        languages.append((n, lang.__contains__))
    steps = 0
    for n, member in languages:
        seq = algorithm_J(LanguageOracle(n, member))
        for a, b in zip(seq, seq[1:]):
            assert is_clean_jump(a, *jump_between(a, b))
            steps += 1
    assert steps > 500


def test_inductive_rejects_bad_chains():
    with pytest.raises(InputError):
        inductive_J([])
    with pytest.raises(InputError):
        inductive_J([{(1,)}])
    # projection mismatch
    with pytest.raises(InputError):
        inductive_J([{()}, {(1,)}, {(1, 2)}, {(1, 2, 3), (3, 2, 1)}])
    # neither closure condition holds
    with pytest.raises(InputError):
        inductive_J([{()}, {(1,)}, {(2, 1)}])


def test_is_zigzag_language():
    for n in range(1, 5):
        assert is_zigzag_language(all_perms(n))
    assert is_zigzag_language([p for p in all_perms(4) if avoids_231(p)])
    assert is_zigzag_language({(1, 2)})  # last-insertion chain
    assert is_zigzag_language({(1, 2, 3), (2, 1, 3)})
    assert not is_zigzag_language({(2, 1)})
    assert not is_zigzag_language([])
    with pytest.raises(InputError):
        is_zigzag_language({(1, 2), (1, 2, 3)})
    with pytest.raises(InputError):
        is_zigzag_language({(1, 3)})


def test_zigzag_closed_under_generation():
    rng = random.Random(99)
    for _ in range(20):
        chain = random_zigzag_chain(rng.randint(1, 6), rng)
        assert is_zigzag_language(chain[-1])
