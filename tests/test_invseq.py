"""Inversion-sequence avoiders: decomposition, growth, table, formula,
against naive filters."""

import itertools

import pytest

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


def test_decompose_hand_example():
    top, bottom, e_top, e_bottom = invseq.decompose((0, 0, 1, 3, 1, 3, 2, 7, 3))
    assert e_bottom == (1, 2, 3)
    assert e_top == (0, 0, 1, 3, 3, 7)
    assert top == 7 and bottom == 3


def test_decompose_characterization():
    # avoidance is equivalent to the bottom subsequence being strictly rising
    for n in range(1, 7):
        for e in _all_iseqs(n):
            _, _, _, e_bottom = invseq.decompose(e)
            strict = all(x < y for x, y in zip(e_bottom, e_bottom[1:]))
            assert _naive_avoids_both(e) == strict, e


def test_valid_extensions_vs_filter():
    stack = [(0,)]
    while stack:
        e = stack.pop()
        n = len(e)
        want = [p for p in range(n + 1) if _naive_avoids_both(e + (p,))]
        assert list(invseq.valid_extensions(e)) == want, e
        if n < 5:
            stack.extend(e + (p,) for p in want)


def test_valid_extensions_match_the_pattern_scan():
    """The _max_blocked shortcut against an occurrence scan.

    The tuple DFS oracle below reads its appends off _max_blocked, which
    valid_extensions wraps, and count_avoiders_bruteforce carries that
    scan's state; here every avoider of size <= 7 gets them from the
    test's two-word matcher instead.  Each e was admitted by the same
    scan one level up, so a new 210 or 100 must use the appended entry:
    only triples ending there are scanned.
    """
    stack = [(0,)]
    seen = 0
    while stack:
        e = stack.pop()
        free = [p for p in range(len(e) + 1)
                if not _naive_contains(e + (p,), "210", ending=True)
                and not _naive_contains(e + (p,), "100", ending=True)]
        assert list(invseq.valid_extensions(e)) == free, e
        seen += 1
        if len(e) < 7:
            stack.extend(e + (p,) for p in free)
    assert seen == sum(SB[:7])


def _tuple_dfs_counts(n_max):
    """|I_n(210, 100)| for n = 1..n_max by a DFS over the avoiders as tuples,
    each one's appends rescanned by valid_extensions; the last level is
    counted at its parent."""
    counts = [0] * (n_max + 1)
    counts[1] = 1
    stack = [(0,)]
    while stack and n_max >= 2:
        e = stack.pop()
        n = len(e)
        extensions = invseq.valid_extensions(e)
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
    # the carried (n, run_max, blocked) state against the tuples it stands for
    for n_max in range(1, 10):
        assert invseq.count_avoiders_bruteforce(n_max) == _tuple_dfs_counts(n_max), n_max


def test_bruteforce_is_independent_of_the_table_and_formula(monkeypatch):
    def refuse(*args):
        raise RuntimeError("the brute route reached the table or formula side")

    for name in ("q_levels", "totals_via_formula", "binom", "catalan", "_exact_div"):
        monkeypatch.setattr(invseq, name, refuse)
    assert invseq.count_avoiders_bruteforce(9) == SB[:9]


def test_q_table_vs_census():
    for n in range(1, 8):
        census = {}
        stack = [(0,)]
        while stack:
            e = stack.pop()
            if len(e) == n:
                top, bottom, _, _ = invseq.decompose(e)
                census[(top, bottom)] = census.get((top, bottom), 0) + 1
                continue
            stack.extend(e + (p,) for p in invseq.valid_extensions(e))
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
        census = {}
        stack = [(0,)]
        while stack:
            e = stack.pop()
            if len(e) == n:
                lab = invseq.growth_label(e)
                census[lab] = census.get(lab, 0) + 1
                continue
            stack.extend(e + (p,) for p in invseq.valid_extensions(e))
        assert census == rules.distribution(semi, n), n
