"""Inversion-sequence avoiders: the carried state and its step, the brute
force, table and formula, against naive filters on tuples."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baxterlab import invseq, rules
from baxterlab.formulas import catalan

from conftest import SB


def _all_iseqs(n):
    return itertools.product(*(range(i) for i in range(1, n + 1)))


def _naive_contains(e, word, ending=False):
    """Triple-nested independent matcher for 3-letter digit words; with
    ending, only the occurrences whose last letter is the last entry of e."""
    k = len(word)
    assert k == 3
    rel = [(word[i], word[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    if ending:
        n = len(e)
        triples = (pos + (n - 1,) for pos in itertools.combinations(range(n - 1), k - 1))
    else:
        triples = itertools.combinations(range(len(e)), k)
    for pos in triples:
        vals = [e[i] for i in pos]
        ok = True
        for (wa, wb), (va, vb) in zip(rel, ((vals[0], vals[1]), (vals[0], vals[2]), (vals[1], vals[2]))):
            if wa == wb:
                ok = va == vb
            elif wa < wb:
                ok = va < vb
            else:
                ok = va > vb
            if not ok:
                break
        if ok:
            return True
    return False


def _naive_avoids_both(e):
    """One pass over position triples: 210 reads x > y > z and 100 reads
    x > y = z, so an occurrence of either is a triple with x > y >= z."""
    return not any(x > y >= z for x, y, z in itertools.combinations(e, 3))


def test_naive_filter_is_the_two_word_matcher():
    for n in range(1, 7):
        for e in _all_iseqs(n):
            either = _naive_contains(e, "210") or _naive_contains(e, "100")
            assert _naive_avoids_both(e) == (not either), e


def test_avoids_both_vs_naive_filter():
    # the filter alone, over all 46,233 inversion sequences of size <= 8
    counts = [sum(map(_naive_avoids_both, _all_iseqs(n))) for n in range(1, 9)]
    assert counts == SB[:8]


def _bottom_seq(e):
    """e^bottom: each entry smaller than some entry before it."""
    out, run_max = [], -1
    for v in e:
        if v < run_max:
            out.append(v)
        run_max = max(run_max, v)
    return out


def _state(e):
    """The (len, max, bottom) state of a tuple, read off the tuple alone."""
    return len(e), max(e), max(_bottom_seq(e), default=-1)


def _fold(e):
    """The state reached from the root by appending e[1:] through children, or
    None at the first appended p outside its child range bottom+1..n."""
    state = invseq.ROOT
    for p in e[1:]:
        n, _, bottom = state
        if not bottom < p <= n:
            return None
        state = invseq.children(state)[p - bottom - 1]
    return state


def _states(n):
    """The states of every avoider of size n, grown from the root by children."""
    stack = [invseq.ROOT]
    while stack:
        state = stack.pop()
        if state[0] == n:
            yield state
        else:
            stack += invseq.children(state)


def test_hand_example_reaches_its_state():
    e = (0, 0, 1, 3, 1, 3, 2, 7, 3)
    assert _bottom_seq(e) == [1, 2, 3]
    assert _fold(e) == _state(e) == (9, 7, 3)


def test_avoidance_is_a_strictly_rising_bottom():
    for n in range(1, 7):
        for e in _all_iseqs(n):
            bottom = _bottom_seq(e)
            strict = all(x < y for x, y in zip(bottom, bottom[1:]))
            assert _naive_avoids_both(e) == strict, e


def test_children_vs_filter():
    stack = [(0,)]
    while stack:
        e = stack.pop()
        n = len(e)
        want = [p for p in range(n + 1) if _naive_avoids_both(e + (p,))]
        assert invseq.children(_state(e)) == [_state(e + (p,)) for p in want], e
        if n < 5:
            stack.extend(e + (p,) for p in want)


def test_children_match_the_pattern_scan():
    """children against an occurrence scan.

    Every avoider of size <= 7 is walked as a tuple beside the state that
    children gave it, and its children are checked against the appends the
    test's two-word matcher admits, each read as a state off its tuple.  Each
    e was admitted by the same scan one level up, so a new 210 or 100 must
    use the appended entry: only triples ending there are scanned.
    """
    stack = [((0,), invseq.ROOT)]
    seen = 0
    while stack:
        e, state = stack.pop()
        free = [p for p in range(len(e) + 1)
                if not _naive_contains(e + (p,), "210", ending=True)
                and not _naive_contains(e + (p,), "100", ending=True)]
        kids = invseq.children(state)
        assert kids == [_state(e + (p,)) for p in free], e
        seen += 1
        if len(e) < 7:
            stack.extend((e + (p,), kid) for p, kid in zip(free, kids))
    assert seen == sum(SB[:7])


@st.composite
def _iseqs(draw):
    """Any inversion sequence of size 1..14; each entry is drawn either from
    its whole range or as its largest value, so long avoiders come up too."""
    return tuple(draw(st.one_of(st.integers(0, i), st.just(i)))
                 for i in range(draw(st.integers(1, 14))))


@settings(max_examples=300, deadline=None)
@given(e=_iseqs())
def test_children_fold_along_exactly_the_avoiders(e):
    state = _fold(e)
    assert _naive_avoids_both(e) == (state is not None)
    if state is not None:
        assert state == _state(e)


def _tuple_dfs_counts(n_max):
    """|I_n(210, 100)| for n = 1..n_max by a DFS over the avoiders as tuples,
    each one's appends bottom+1..n read off the tuple by _state; the last level
    is counted at its parent."""
    counts = [0] * (n_max + 1)
    counts[1] = 1
    stack = [(0,)]
    while stack and n_max >= 2:
        e = stack.pop()
        n, _, bottom = _state(e)
        extensions = range(bottom + 1, n + 1)
        if n + 1 == n_max:
            counts[n_max] += len(extensions)
            continue
        for p in extensions:
            counts[n + 1] += 1
            stack.append(e + (p,))
    return counts[1:]


def test_bruteforce_counts():
    assert invseq.count_avoiders_bruteforce(10) == SB[:10]


@pytest.mark.parametrize("n_max, want", [(1, [1]), (2, [1, 2]), (3, [1, 2, 6])])
def test_bruteforce_edges(n_max, want):
    assert invseq.count_avoiders_bruteforce(n_max) == want


def test_bruteforce_matches_the_tuple_dfs():
    # the carried (n, top, bottom) state against the tuples it stands for
    for n_max in range(1, 10):
        assert invseq.count_avoiders_bruteforce(n_max) == _tuple_dfs_counts(n_max), n_max


def test_bruteforce_is_independent_of_the_table_and_formula(monkeypatch):
    def refuse(*args):
        raise RuntimeError("the brute route reached the table or formula side")

    for name in ("q_levels", "totals_via_formula", "comb", "catalan", "_exact_div"):
        monkeypatch.setattr(invseq, name, refuse)
    assert invseq.count_avoiders_bruteforce(9) == SB[:9]


def test_q_table_vs_census():
    for n in range(1, 8):
        census = Counter((top, bottom) for _, top, bottom in _states(n))
        assert invseq.q_table(n) == census, n


def test_ballot_column_sums_to_catalan():
    # the empty-bottom column alone carries the Catalan count
    for n in range(1, 12):
        q = invseq.q_table(n)
        assert sum(cnt for (a, b), cnt in q.items() if b == -1) == catalan(n)


def test_total_via_formula():
    assert [invseq.total_via_formula(n) for n in range(1, 14)] == SB


def test_growth_labels_reproduce_rule_distribution():
    semi = rules.RULES["semi"]
    for n in range(1, 8):
        census = Counter(map(invseq.growth_label, _states(n)))
        assert census == rules.distribution(semi, n), n
