"""Succession rules: productions, level counts, DSL parser."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from baxterlab import perms, rules, series
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
    # the traced benchmark counts levels by the next_level calls
    steps = []
    step = rules.next_level
    monkeypatch.setattr(rules, "next_level", lambda *a: steps.append(1) or step(*a))
    semi = rules.RULES["semi"]
    for read, want in [
        (lambda: rules.distribution(semi, 6), 5),
        (lambda: rules.count_sequence(semi, 7), 6),
        (lambda: series.LabelSeries("semi", 4), 3),
    ]:
        steps.clear()
        read()
        assert len(steps) == want


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
        }
    )
    assert not ok
    assert "altered vs" in detail and "first differ at n=4" in detail
    assert "21" in detail and "22" in detail


def _format(rule) -> str:
    """The rule in the DSL text format, rows printed from their coefficients."""
    lines = [f"axiom ({rule.axiom[0]},{rule.axiom[1]})"]
    for row in rule.rows:
        x, y, lo, hi = (_expr(f[0], f[1:], "hki") for f in row)
        text = f"row ({x}, {y})"
        if row[0][3] or row[1][3] or row[2] != row[3] or row[2] != (0, 0, 0):
            text += f" for i = {lo}..{hi}"
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
