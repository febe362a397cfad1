"""Succession rules: productions, level counts, DSL parser."""

from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from baxterlab import checks, perms, rules, series
from baxterlab.checks import compare_routes

from conftest import BAXTER, CATALAN, SB, STRONG


def test_production_spot_checks():
    semi = rules.RULES["semi"]
    assert semi.axiom == (1, 1)
    assert rules.productions(semi, (1, 1)) == [(1, 2), (2, 1)]
    cat = rules.RULES["cat"]
    assert rules.productions(cat, (2, 1)) == [(1, 1), (2, 1), (3, 1)]
    strong = rules.RULES["strong"]
    # first row loses one label relative to the second coordinate bump
    assert rules.productions(strong, (2, 2)) == [
        (1, 2), (2, 3), (3, 1), (3, 2),
    ]


@pytest.mark.parametrize(
    "name,label,want",
    [
        # bax (h,k) -> (1,k+1), ..., (h,k+1); (h+1,1), ..., (h+1,k)
        ("bax", (1, 1), [(1, 2), (2, 1)]),
        ("bax", (2, 2), [(1, 3), (2, 3), (3, 1), (3, 2)]),
        ("bax", (1, 3), [(1, 4), (2, 1), (2, 2), (2, 3)]),
        ("bax", (3, 1), [(1, 2), (2, 2), (3, 2), (4, 1)]),
        # tbax (h,k) -> (1,k), ..., (h-1,k), (h,k+1); (h+k,1), ..., (h+1,k)
        ("tbax", (1, 1), [(1, 2), (2, 1)]),
        ("tbax", (2, 2), [(1, 2), (2, 3), (4, 1), (3, 2)]),
        ("tbax", (3, 2), [(1, 2), (2, 2), (3, 3), (5, 1), (4, 2)]),
        ("tbax", (1, 3), [(1, 4), (4, 1), (3, 2), (2, 3)]),
    ],
)
def test_production_spot_checks_bax_tbax(name, label, want):
    assert rules.productions(rules.RULES[name], label) == want


def _refuse(rule, dist):
    raise AssertionError(f"rule {rule.name} stepped node by node")


@pytest.mark.parametrize("name", list(rules.RULES))
def test_builtin_rules_step_by_suffix_sums(monkeypatch, name):
    # every run of a built-in rule takes the suffix-sum path, so rules-dsl-mirrors
    # compares the level step with node expansion, not node expansion with itself
    rule = rules.RULES[name]
    assert None not in rules._runs(rule)
    # every positivity check is nondecreasing in h, so _sums tests only a segment's
    # first live label
    assert all(f[1] >= 0 for *_, low in rules._runs(rule) for f in low)
    monkeypatch.setattr(rules, "expand_level", _refuse)
    want = {"cat": CATALAN, "semi": SB, "bax": BAXTER, "tbax": BAXTER, "strong": STRONG}[name]
    got = rules.count_sequence(rule, 30)
    assert len(got) == 30 and got[:len(want)] == want


def test_distribution_level_two():
    semi = rules.RULES["semi"]
    assert rules.distribution(semi, 2) == {(1, 2): 1, (2, 1): 1}


@pytest.mark.parametrize(
    "name,want",
    [
        ("cat", CATALAN),
        ("semi", SB),
        ("bax", BAXTER),
        ("tbax", BAXTER),
        ("strong", STRONG),
    ],
)
def test_count_sequences(name, want):
    got = rules.count_sequence(rules.RULES[name], len(want))
    assert got == want


def test_level_readers_step_only_to_the_last_level_asked(monkeypatch):
    # every reader steps the carried rows, one _step call per level past the first;
    # the census check reads levels 1..7 of each of its 5 rules once (5 * 6 steps)
    steps = []
    step = rules._step
    monkeypatch.setattr(rules, "_step", lambda *a: steps.append(1) or step(*a))
    semi = rules.RULES["semi"]
    for read, want in [
        (lambda: rules.distribution(semi, 6), 5),
        (lambda: rules.count_sequence(semi, 7), 6),
        (lambda: series.LabelSeries(semi, 4), 3),
        (lambda: checks._chk_census(7, 0), 30),
    ]:
        steps.clear()
        read()
        assert len(steps) == want


def test_counts_read_no_level_dict_and_distribution_reads_one(monkeypatch):
    # count_sequence and the series readers read the carried rows, and
    # distribution reads only the rows of the level it returns back into a dict
    built = []
    to_dict = rules._dict
    monkeypatch.setattr(rules, "_dict", lambda *a: built.append(1) or to_dict(*a))
    semi = rules.RULES["semi"]
    assert rules.count_sequence(semi, 12) == SB[:12] and built == []
    assert series._label_residual(semi, 10) == (0, None) and built == []
    assert series.verify_reduced_identity(Fraction(3, 2), 10)["ok"] and built == []
    assert series.LabelSeries(semi, 8).series_in_one_plus_a() and built == []
    assert rules.distribution(semi, 12) and len(built) == 1


@pytest.mark.parametrize("rule_name,cls_name", [("semi", "semi"), ("strong", "strong")])
def test_distribution_matches_permutation_labels(rule_name, cls_name):
    rule = rules.RULES[rule_name]
    cls = perms.CLASSES[cls_name]
    for n in range(1, 9):
        assert rules.distribution(rule, n) == perms.label_census(cls, n)


def test_dsl_parses_every_builtin():
    for name, text in rules.RULE_FILE_SOURCES.items():
        parsed = rules.parse_rule(text, name=name)
        builtin = rules.RULES[name]
        assert parsed.axiom == builtin.axiom
        seen = {builtin.axiom}
        frontier = [builtin.axiom]
        for _ in range(6):
            nxt = []
            for lab in frontier:
                want = rules.productions(builtin, lab)
                assert rules.productions(parsed, lab) == want, (name, lab)
                for child in want:
                    if child not in seen:
                        seen.add(child)
                        nxt.append(child)
            frontier = nxt


def test_dsl_rejects_garbage():
    with pytest.raises(ValueError):
        rules.parse_rule("axiom (1,1)\nrow nonsense\n")
    with pytest.raises(ValueError):
        rules.parse_rule("row (i, k) for i = 1..h\n")


@pytest.mark.parametrize(
    "text,var,want",
    [
        ("-h+2", None, (2, -1, 0, 0)),
        (" h + k ", None, (0, 1, 1, 0)),
        ("+3", None, (3, 0, 0, 0)),
        ("h+k+1-i", "i", (1, 1, 1, -1)),
        ("h k", None, ValueError),
        ("2h", None, ValueError),
        ("--h", None, ValueError),
        ("+", None, ValueError),
        ("", None, ValueError),
        ("   ", "i", ValueError),
        ("x", "i", ValueError),
        ("i", None, ValueError),
    ],
)
def test_expression_grammar_edges(text, var, want):
    # the first term may carry a sign and every later term must; a term is
    # an integer, h, k or the loop variable
    if want is ValueError:
        with pytest.raises(ValueError):
            rules._affine(text, var)
    else:
        assert rules._affine(text, var) == want


def test_altered_first_row_collapses_to_weaker_rule():
    """Negative control: loosening one production row must be caught.

    Replacing the strong rule's first row (1,k)..(h-1,k),(h,k+1) with
    (1,k+1)..(h,k+1) yields exactly the two-pattern rule, so counts
    drift upward starting at n=4 (22 vs 21) and the route comparison
    reports that exact index.
    """
    altered = rules.parse_rule(
        "axiom (1,1)\n"
        "row (i, k+1) for i = 1..h\n"
        "row (h+1, i) for i = 1..k\n",
        name="altered",
    )
    # self-consistency of the control: a genuinely different sequence
    got = rules.count_sequence(altered, 8)
    assert got == BAXTER[:8]
    from baxterlab import walks

    ok, detail = compare_routes(
        {
            "strong-rule": rules.count_sequence(rules.RULES["strong"], 8),
            "walks": walks.strong_from_walks(8)[1:],
            "altered": got,
        },
        1,
    )
    assert not ok
    assert "altered vs" in detail and "first differ at n=4" in detail
    assert "21" in detail and "22" in detail


def _format(rule) -> str:
    """The rule in the DSL text format, each row printed as its run."""
    lines = [f"axiom ({rule.axiom[0]},{rule.axiom[1]})"]
    for x, y, (dx, dy), span in rule.rows:
        text = f"row ({_expr(x[0], (*x[1:], dx), 'hki')}, {_expr(y[0], (*y[1:], dy), 'hki')})"
        if dx or dy or span != (0, 0, 0):
            text += f" for i = 0..{_expr(span[0], span[1:], 'hk')}"
        lines.append(text)
    return "\n".join(lines) + "\n"


def test_printed_builtins_parse_back_to_the_same_rule():
    for name, rule in rules.RULES.items():
        assert rules.parse_rule(_format(rule), name=name) == rule, name


def test_guards_raise_value_error():
    semi = rules.RULES["semi"]
    with pytest.raises(ValueError):
        rules.distribution(semi, 0)
    with pytest.raises(ValueError):
        rules.count_sequence(semi, 0)
    with pytest.raises(ValueError):
        rules.next_level(semi, {(0, 2): 1})
    with pytest.raises(ValueError):
        rules.parse_rule("axiom (0,1)\nrow (h, k)\n")
    with pytest.raises(ValueError):
        rules.parse_rule("axiom (1,1)\nrow (h, k) for h = 1..k\n")
    with pytest.raises(ValueError, match="duplicate axiom line"):
        rules.parse_rule("axiom (1,1)\naxiom (1,1)\nrow (h, k)\n")
    with pytest.raises(ValueError, match="rule has no production rows"):
        rules.parse_rule("axiom (1,1)\n# no row\n")


def test_non_positive_child_raises_in_both_steps():
    """A rule whose first row reaches (0, k) is rejected, not counted."""
    bad = rules.parse_rule("axiom (1,1)\nrow (i, k) for i = 0..h\nrow (h+1, k+1)\n")
    with pytest.raises(ValueError):
        rules.productions(bad, (1, 1))
    with pytest.raises(ValueError):
        rules.next_level(bad, {(1, 1): 1})
    with pytest.raises(ValueError):
        rules.count_sequence(bad, 3)


def test_next_level_matches_node_expansion_to_level_30():
    for name, rule in rules.RULES.items():
        dist = {rule.axiom: 1}
        for n in range(2, 31):
            fast = rules.next_level(rule, dist)
            assert fast == rules.expand_level(rule, dist), (name, n)
            dist = fast


# Random rule rows: coefficients in -1..2 on h, k and the loop variable, so
# single rows, empty ranges and zero, unit and non-unit directions all occur.
_COEF = st.integers(-1, 2)
_CONST = st.integers(-2, 4)


def _expr(const: int, coefs: tuple[int, ...], names: str) -> str:
    """A DSL expression: the constant, then each name repeated |coef| times."""
    out = str(const)
    for c, name in zip(coefs, names):
        out += (" + " + name) * c if c > 0 else (" - " + name) * -c
    return out


@st.composite
def _rule_texts(draw) -> str:
    lines = ["axiom (1,1)"]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            x = _expr(draw(_CONST), draw(st.tuples(_COEF, _COEF)), "hk")
            y = _expr(draw(_CONST), draw(st.tuples(_COEF, _COEF)), "hk")
            lines.append(f"row ({x}, {y})")
            continue
        x = _expr(draw(_CONST), draw(st.tuples(_COEF, _COEF, _COEF)), "hki")
        y = _expr(draw(_CONST), draw(st.tuples(_COEF, _COEF, _COEF)), "hki")
        lo = _expr(draw(_CONST), draw(st.tuples(_COEF, _COEF)), "hk")
        hi = _expr(draw(_CONST), draw(st.tuples(_COEF, _COEF)), "hk")
        lines.append(f"row ({x}, {y}) for i = {lo}..{hi}")
    return "\n".join(lines) + "\n"


_DISTS = st.dictionaries(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                         st.integers(1, 10 ** 6), min_size=1, max_size=8)


def _children(rule, dist):
    """Sum of productions weighted by counts, or None if one raises."""
    total = Counter()
    try:
        for label, cnt in dist.items():
            for child in rules.productions(rule, label):
                total[child] += cnt
    except ValueError:
        return None
    return dict(total)


@settings(max_examples=300, deadline=None)
@given(text=_rule_texts(), dist=_DISTS)
@example(text="axiom (1,1)\nrow (h, k+1)\n", dist={(2, 3): 5})
@example(text="axiom (1,1)\nrow (i, k) for i = h..1\n", dist={(3, 1): 1, (1, 1): 2})
@example(text="axiom (1,1)\nrow (h, k) for i = 1..k\n", dist={(1, 4): 3})
@example(text="axiom (1,1)\nrow (i+i, k+i+i) for i = 1..h\n", dist={(3, 2): 1, (2, 2): 7})
@example(text="axiom (1,1)\nrow (h+i+i, 4-i) for i = 1..k\n", dist={(1, 3): 1, (2, 1): 2})
@example(text="axiom (1,1)\nrow (1-i, k) for i = 0..h\n", dist={(1, 1): 1})
@example(text="axiom (1,1)\nrow (i, k+2-i) for i = 1..k+1\n", dist={(2, 3): 1, (1, 1): 4})
@example(text="axiom (1,1)\nrow (i+i, k) for i = 1..h\n", dist={(3, 2): 1, (1, 4): 2})
@example(text="axiom (1,1)\nrow (h+h+1-i-i, k+i) for i = 0..h\n", dist={(1, 1): 1, (3, 2): 5})
@example(text="axiom (1,1)\nrow (1+i+i, h+k-i) for i = 0..h+k-1\n", dist={(2, 2): 3})
@example(text="axiom (1,1)\nrow (h, k+i+i) for i = 0..1\nrow (h+1, 1)\n",
         dist={(1, 2): 1, (4, 1): 2})
@example(text=rules.RULE_FILE_SOURCES["semi"], dist={(40, 1): 1, (1, 40): 2})
@example(text="axiom (1,1)\nrow (i-h-2, k) for i = 1..0\n", dist={(1, 1): 1, (2, 3): 4})
# one grid pass per row: two rows in one direction, a forward and a reversed
# row on one line, and a one-label row listed before a line row
@example(text="axiom (1,1)\nrow (i, k) for i = 1..h\nrow (i, k+1) for i = 1..k\n",
         dist={(2, 1): 3, (1, 3): 1})
@example(text="axiom (1,1)\nrow (i, k) for i = 1..h\nrow (h+k+1-i, k) for i = 1..k\n",
         dist={(3, 2): 2, (1, 1): 5})
@example(text="axiom (1,1)\nrow (h, k+1) for i = 1..k\nrow (i, 1) for i = 1..h+1\n",
         dist={(2, 2): 1, (3, 1): 4})
# the grid is clipped to the labels' box cut by h + k <= s: a child falling in
# h and k peaks at the (hmin, kmin) corner; labels whose largest h + k lies
# off both of the box's far corners; a coordinate falling with h; and a
# coordinate that peaks on the cut edge, past every label
@example(text="axiom (1,1)\nrow (9-h-k, k)\n", dist={(1, 1): 1, (4, 4): 2})
@example(text=rules.RULE_FILE_SOURCES["semi"], dist={(5, 1): 1, (1, 5): 1, (3, 3): 1})
@example(text=rules.RULE_FILE_SOURCES["tbax"], dist={(5, 1): 1, (1, 5): 1, (3, 3): 1})
@example(text="axiom (1,1)\nrow (10-h, k+i) for i = 0..h\n", dist={(2, 5): 1, (6, 1): 3})
@example(text="axiom (1,1)\nrow (h+k+k, 1)\n", dist={(5, 1): 1, (1, 4): 2, (3, 3): 1})
def test_next_level_equals_sum_of_productions(text, dist):
    rule = rules.parse_rule(text)
    want = _children(rule, dist)
    if want is None:
        with pytest.raises(ValueError):
            rules.next_level(rule, dist)
    else:
        assert rules.next_level(rule, dist) == want


@settings(max_examples=200, deadline=None)
@given(text=_rule_texts())
def test_printed_rows_parse_back_to_the_same_productions(text):
    rule = rules.parse_rule(text)
    again = rules.parse_rule(_format(rule))
    assert again.rows == rule.rows
    for label in ((h, k) for h in range(1, 5) for k in range(1, 5)):
        assert _children(again, {label: 1}) == _children(rule, {label: 1})


def _expanded(rule, depth: int, bound: int = 20):
    """(levels, depth): levels 1..depth by repeated expand_level, stopping one
    step past a level with a coordinate above bound; levels is None if a step
    raises, and depth is then the level that step would make."""
    want = [{rule.axiom: 1}]
    try:
        while len(want) < depth and max(map(max, want[-1]), default=0) <= bound:
            want.append(rules.expand_level(rule, want[-1]))
    except ValueError:
        return None, len(want) + 1
    return want, len(want)


@settings(max_examples=300, deadline=None)
@given(text=_rule_texts())
# a run of span -1 (no children at h = 1) next to a moving one
@example(text="axiom (1,1)\nrow (i, k) for i = 1..h-1\nrow (h+1, k+1)\n")
# a reversed run (dy < 0), read from its last child
@example(text="axiom (1,1)\nrow (i, h+k+1-i) for i = 1..h+k\nrow (h, k+1)\n")
# a one-label row listed before a line row
@example(text="axiom (1,1)\nrow (h, k+1)\nrow (i, 1) for i = 1..h+k\n")
# a first child that falls in h and k, so its index steps backwards along a
# source row and the one-past index stays put; one child repeated twice
@example(text="axiom (1,1)\nrow (6-h-k+i, 1) for i = 0..h-1\nrow (1, 2) for i = 0..1\n")
# reversed runs (dx < 0, then dy < 0) whose last child reaches 0 at the live label
# (2, 1) of level 2
@example(text="axiom (1,1)\nrow (h+1, k)\nrow (h-i, k) for i = 0..h+h-2\n")
@example(text="axiom (1,1)\nrow (h+1, k)\nrow (h, k-i) for i = 0..k+h-2\n")
# a falling coordinate, k = 3 - h, that reaches 0 at the live label (3, 1) of level 3
@example(text="axiom (1,1)\nrow (h+1, k)\nrow (h, 3-h)\n")
# a rising coordinate, h + k - 2, that is 0 at the live label (1, 1) of level 2
@example(text="axiom (2,2)\nrow (h+k-2, k)\nrow (1, 1)\n")
def test_carried_rows_equal_repeated_node_expansion(text):
    # each carried level is exactly the live rows of the expanded level
    rule = rules.parse_rule(text)
    want, depth = _expanded(rule, 6)
    if want is None:
        with pytest.raises(ValueError):
            rules.count_sequence(rule, depth)
        with pytest.raises(ValueError):
            list(islice(rules.levels(rule), depth))
    else:
        assert list(islice(rules._levels(rule), depth)) == list(map(rules._read, want))
        assert list(islice(rules.levels(rule), depth)) == want
        assert rules.count_sequence(rule, depth) == [sum(lv.values()) for lv in want]


# Rows that step by suffix sums, with random affine coefficients: a run of n
# children that share their first (or last) child along a unit step u while n
# grows by 1 along u (across rows n does not move with h), E(h, k) = (e + h +
# ek*k, f + fk*k) its last (or first) child; a row of one child; a row of step
# (0, 0), its child E repeated n times.
_UNITS = st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)])


@st.composite
def _suffix_rule_texts(draw) -> str:
    lines = ["axiom (1,1)"]
    for _ in range(draw(st.integers(1, 3))):
        (e, ek), (f, fk) = (draw(st.tuples(st.integers(-1, 4), _COEF)) for _ in "ef")
        kind = draw(st.sampled_from(["run", "one", "repeat"]))
        if kind == "one":
            lines.append(f"row ({_expr(e, (1, ek), 'hk')}, {_expr(f, (0, fk), 'hk')})")
            continue
        m, d, first = (draw(_CONST), *draw(st.tuples(_COEF, _COEF))), (0, 0), (e, 1, ek, f, 0, fk)
        if kind == "run":  # m = n - 1, with n·u = 1
            uh, uk = draw(_UNITS)
            m = (draw(_CONST), *((uh, draw(_COEF)) if not uk else (0, uk)))
            g = (uh + ek * uk, fk * uk)  # E's step along u
            if draw(st.booleans()):  # first child shared, E = first + m*d
                d = g
                first = (e - g[0] * m[0], 1 - g[0] * m[1], ek - g[0] * m[2],
                         f - g[1] * m[0], -g[1] * m[1], fk - g[1] * m[2])
            else:  # last child shared, E = first
                d = (-g[0], -g[1])
        x = _expr(first[0], (*first[1:3], d[0]), "hki")
        y = _expr(first[3], (*first[4:6], d[1]), "hki")
        lines.append(f"row ({x}, {y}) for i = 0..{_expr(m[0], m[1:], 'hk')}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=_suffix_rule_texts())
# a run whose last child is shared along (-1, 0), carried right past a row's
# last live label to n = 1
@example(text="axiom (1,1)\nrow (i, k+1) for i = h..3\nrow (h, k)\n")
# a repeated child whose count n = h - 2 starts inside a row's gap, so its
# piece of the next row starts with a 0
@example(text="axiom (1,1)\nrow (h, k)\nrow (h+3, k)\nrow (h, k+1) for i = 0..h-3\n")
def test_suffix_sum_rules_equal_repeated_node_expansion(text):
    # the suffix-sum step alone (node expansion refused), against repeated
    # expand_level: the same rows, or a ValueError at the same level
    rule = rules.parse_rule(text)
    assert None not in rules._runs(rule)
    assert all(f[1] >= 0 for *_, low in rules._runs(rule) for f in low)
    want, depth = _expanded(rule, 6)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rules, "expand_level", _refuse)
        if want is None:
            rules.count_sequence(rule, depth - 1)
            with pytest.raises(ValueError):
                rules.count_sequence(rule, depth)
        else:
            assert list(islice(rules._levels(rule), depth)) == list(map(rules._read, want))
            assert rules.count_sequence(rule, depth) == [sum(lv.values()) for lv in want]
