"""Two-label succession rules: the rule DSL, productions, level steps, counts.

A succession rule is an axiom label plus a production map sending each
label to the ordered list of its children's labels; the number of nodes
at level n of the induced generating tree is the nth term of the
enumerated sequence.  All labels here are pairs (h, k) of positive
integers; the one-label Catalan rule rides along as (h, 1) so a single
engine serves every rule.

Rules are written in a small text format mirroring the usual displays,
one production row per line::

    axiom (1,1)
    row (i, k) for i = 1..h-1
    row (h, k+1)
    row (h+k+1-i, i) for i = 1..k

Row expressions admit integers, the label variables h and k, the row's
loop variable, and +/-.  Rows concatenate in order; a row without a
``for`` clause contributes a single label.  RULE_FILE_SOURCES is the only
definition of the five built-in rules; RULES is parsed from it at import
(production lists in display order):

    cat     (h,1) -> (1,1), ..., (h,1), (h+1,1)
    semi    (h,k) -> (1,k+1), ..., (h,k+1); (h+k,1), ..., (h+1,k)
    bax     (h,k) -> (1,k+1), ..., (h,k+1); (h+1,1), ..., (h+1,k)
    tbax    (h,k) -> (1,k), ..., (h-1,k), (h,k+1); (h+k,1), ..., (h+1,k)
    strong  (h,k) -> (1,k), ..., (h-1,k), (h,k+1); (h+1,1), ..., (h+1,k)

Every row expression is affine, so `parse_rule` stores a row as a
straight run of labels, child(i) = P(h,k) + i*d for i = 0..span(h,k).
`productions` expands one node run by run, and `series` reads each rule's
label equation off the same runs.  A level is carried as its live rows
(Level), and a level step expands no node and builds no grid.  As in the
ECO method of Barcucci, Del Lungo, Pergola and Pinzani (1999), nested runs
are suffix sums: a run of n = span + 1 children whose labels share their
first (or last) child along a unit step u (a row, a column or an
anti-diagonal) while n grows by 1 along u puts S(h,k) = L(h,k) + S((h,k)+u)
at E(h,k), the last (or first) child of (h,k), for L the level's counts
and every (h,k) back along -u to n = 1.  E maps a row of the level into a
row of the next, so a run takes one accumulate (u along the row) or one
shifted add (u across rows) per row.  A run of one child, or of step
(0, 0), puts L n at its child.  A rule with a row of another shape steps
node by node (`expand_level`).
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import accumulate, islice, product, repeat
from operator import add
from typing import Iterable, Iterator, NamedTuple

Label = tuple[int, int]
LabelDistribution = dict[Label, int]
Affine = tuple[int, int, int]  # (c, a, b) stands for c + a*h + b*k
Row = tuple[Affine, Affine, tuple[int, int], Affine]
Level = list[tuple[int, int, int, list[int]]]  # (k, i, j, counts at h = i..j) per live row k


class SuccessionRule(NamedTuple):
    """An axiom and production rows, as `parse_rule` builds them.

    A row (x, y, d, span) puts the child (x, y) + i*d at each i = 0..span:
    x, y and span are Affine maps of the parent label, d = (dx, dy) a
    fixed step, and a row without a loop has d = (0, 0) and span = 0.
    """

    name: str
    axiom: Label
    rows: tuple[Row, ...]


def _at(f: Affine, h: int, k: int) -> int:
    return f[0] + f[1] * h + f[2] * k


def _lin(*terms: tuple[int, Affine]) -> Affine:
    """The affine map sum of c * f over the (c, f) terms."""
    c0 = c1 = c2 = 0
    for c, f in terms:
        c0, c1, c2 = c0 + c * f[0], c1 + c * f[1], c2 + c * f[2]
    return c0, c1, c2


def _not_positive(rule: SuccessionRule, label: Label) -> ValueError:
    return ValueError(f"rule {rule.name}: label {label} has a child that is not a "
                      f"pair of positive integers")


def productions(rule: SuccessionRule, label: Label) -> list[Label]:
    """Ordered children labels of one node.

    >>> productions(RULES["semi"], (2, 2))
    [(1, 3), (2, 3), (4, 1), (3, 2)]
    >>> productions(RULES["cat"], (1, 1))
    [(1, 1), (2, 1)]
    >>> productions(RULES["strong"], (1, 1))
    [(1, 2), (2, 1)]
    """
    h, k = label
    out: list[Label] = []
    for x, y, (dx, dy), span in rule.rows:
        x, y = _at(x, h, k), _at(y, h, k)
        out.extend((x + dx * i, y + dy * i) for i in range(_at(span, h, k) + 1))
    if any(a < 1 or b < 1 for a, b in out):
        raise _not_positive(rule, label)
    return out


def expand_level(rule: SuccessionRule, dist: LabelDistribution) -> LabelDistribution:
    """Multiset sum of productions weighted by counts, node by node: the
    reference that the level step is checked against."""
    out: LabelDistribution = {}
    for label, cnt in dist.items():
        for child in productions(rule, label):
            out[child] = out.get(child, 0) + cnt
    return out


def _dict(rows: Level) -> LabelDistribution:
    return {(h, k): v for k, i, _, vals in rows for h, v in enumerate(vals, i) if v}


def _read(dist: LabelDistribution) -> Level:
    """A label multiset as its live rows."""
    return _join((k, h, [v]) for (h, k), v in dist.items())


def _join(pieces: Iterable[tuple[int, int, list[int]]]) -> Level:
    """The live rows of the sum of pieces (k, a, counts at h = a, a+1, ... on row k)."""
    rows: dict[int, list] = {}
    for k, a, s in pieces:
        rows.setdefault(k, []).append((a, s))
    return [(k, *t) for k in sorted(rows) if (t := _trim(*reduce(_add, rows[k])))]


def _trim(a: int, s: list[int]) -> tuple[int, int, list[int]] | None:
    """(i, j, counts at h = i..j) of s listed from h = a, i and j its first
    and last nonzero count; None if it has none."""
    if s and s[0] and s[-1]:
        return a, a + len(s) - 1, s
    nz = [x for x, v in enumerate(s) if v]
    return (a + nz[0], a + nz[-1], s[nz[0]:nz[-1] + 1]) if nz else None


def _add(r: tuple[int, list[int]], q: tuple[int, list[int]]) -> tuple[int, list[int]]:
    """The sum of two rows, each as (first h, counts)."""
    (a, s), (b, t) = (r, q) if r[0] <= q[0] else (q, r)
    o, m = b - a, len(s) - (b - a)  # t starts at s[o]; m of s lie from there on
    out = s[:o] + [0] * -m
    out += map(add, islice(s, o, None), t)
    out += s[o + len(t):] if m > len(t) else t[max(m, 0):]
    return a, out


def _runs(rule: SuccessionRule) -> list:
    """Each row as (u, E, n, checks) (see the module docstring), or None for
    a row of another shape; checks are the coordinates of its lowest child
    that its coefficients alone do not keep positive."""
    runs = []
    for x, y, (dx, dy), span in rule.rows:
        end = _lin((1, x), (dx, span)), _lin((1, y), (dy, span))
        low = (x if dx >= 0 else end[0], y if dy >= 0 else end[1])
        fits = [(None, (x, y))] if (dx, dy) == (0, 0) else [
            (u, e) for u in product((1, -1, 0), (0, 1, -1))
            if span[1] * u[0] + span[2] * u[1] == 1 and not (u[1] and span[1])
            for p, e in (((x, y), end), (end, (x, y)))
            if all(f[1] * u[0] + f[2] * u[1] == 0 for f in p)]
        fits = [(u, e) for u, e in fits if e[0][1] == 1 and e[1][1] == 0]
        runs.append((*fits[0], _lin((1, span), (1, (1, 0, 0))),
                     tuple(f for f in low if min(f[1:]) < 0 or sum(f) < 1)) if fits else None)
    return runs


def _sums(rule: SuccessionRule, rows: Level, u, n: Affine, checks) -> list:
    """(k, a, S) per row k: S(h, k) from h = a on, where n(h, k) >= 1 and S
    may be nonzero.  A live label whose lowest child is not positive raises
    ValueError."""
    live = {}
    for k, i, j, vals in rows:  # the labels with n(h, k) >= 1
        c, nh = n[0] + n[2] * k, n[1]
        lo = max(i, -((c - 1) // nh)) if nh > 0 else i if nh or c > 0 else j + 1
        hi = min(j, (1 - c) // nh) if nh < 0 else j
        if lo <= hi:
            live[k] = lo, vals if (lo, hi) == (i, j) else vals[lo - i:hi - i + 1]
            # each check's h-coefficient is 0 or 1 (E's is (1, 0), and the shared child's
            # is 0 along a row or E's across rows), so a segment's first live label fails first
            if checks and (t := _trim(*live[k])) and min(_at(f, t[0], k) for f in checks) < 1:
                raise _not_positive(rule, (t[0], k))
    if u is None:  # S = L n
        return [(k, a, s if n == (1, 0, 0) else [v * _at(n, h, k) for h, v in enumerate(s, a)])
                for k, (a, s) in live.items()]
    (uh, uk), out = u, []
    if not uk:  # along each row: one accumulate, on to the h where n = 1
        for k, (a, s) in live.items():
            s = list(accumulate(s[::-uh]))[::-uh]
            m = _at(n, a if uh > 0 else a + len(s) - 1, k) - 1
            out.append((k, a - m, [s[0]] * m + s) if uh > 0 else (k, a, s + [s[-1]] * m))
        return out
    # across rows, where n = c + uk*k: row k of S is row k + uk shifted by -uh
    # plus row k of L, from the farthest live row on to the row where n = 1
    a, s, stop = 0, [], -n[0] * uk
    for k in range((max if uk > 0 else min)(live, default=stop), stop, -uk):
        a -= uh
        if k in live:
            a, s = _add((a, s), live[k]) if s else live[k]
        if s:
            out.append((k, a, s))
    return out


def _step(rule: SuccessionRule, rows: Level, runs: list = ()) -> Level:
    """The live rows of the level after the one in rows: each run adds its S(h, k)
    at E(h, k) (runs are `_runs(rule)`), or with a row of another shape, node by node."""
    runs = runs or _runs(rule)
    if None in runs:
        return _read(expand_level(rule, _dict(rows)))
    return _join((f0 + fk * k, a + e0 + ek * k, s) for u, ((e0, _, ek), (f0, _, fk)), n, c in runs
                 for k, a, s in _sums(rule, rows, u, n, c))


def _levels(rule: SuccessionRule) -> Iterator[Level]:
    """The live rows of levels 1, 2, ..., each stepped to only when it is asked for."""
    return accumulate(repeat(_runs(rule)), lambda rows, runs: _step(rule, rows, runs),
                      initial=_read({rule.axiom: 1}))


def next_level(rule: SuccessionRule, dist: LabelDistribution) -> LabelDistribution:
    """Multiset sum of productions weighted by counts: one step of dist's
    rows.  A label or child that is not a pair of positive integers raises
    ValueError.

    >>> next_level(RULES["semi"], {(1, 2): 1, (2, 1): 1}) == {
    ...     (1, 3): 1, (3, 1): 2, (2, 2): 2, (1, 2): 1}
    True
    """
    if min(map(min, dist), default=1) < 1:
        raise ValueError(f"rule {rule.name}: a label of the level is not positive")
    return _dict(_step(rule, _read(dist)))


def levels(rule: SuccessionRule) -> Iterator[LabelDistribution]:
    """Label multisets at levels 1 (the axiom), 2, ..., read off the carried rows."""
    return map(_dict, _levels(rule))


def distribution(rule: SuccessionRule, n: int) -> LabelDistribution:
    """Exact label multiset at level n (level 1 is the axiom)."""
    if n < 1:
        raise ValueError(f"level {n} is not positive")
    return _dict(next(islice(_levels(rule), n - 1, None)))


def count_sequence(rule: SuccessionRule, n_max: int) -> list[int]:
    """Node counts at levels 1..n_max, each the sum of its level's rows.

    >>> count_sequence(RULES["cat"], 5)
    [1, 2, 5, 14, 42]
    >>> count_sequence(RULES["semi"], 7)
    [1, 2, 6, 23, 104, 530, 2958]
    >>> count_sequence(RULES["bax"], 6) == count_sequence(RULES["tbax"], 6)
    True
    """
    if n_max < 1:
        raise ValueError(f"n_max {n_max} is not positive")
    return [sum(sum(vals) for *_, vals in rows) for rows in islice(_levels(rule), n_max)]


# ---------------------------------------------------------------------------
# rule file mini-format

_ROW_RE = re.compile(
    r"^row\s*\(([^,()]+),([^,()]+)\)\s*"
    r"(?:for\s+([a-z])\s*=\s*([^.]+)\.\.(.+))?$"
)
_AXIOM_RE = re.compile(r"^axiom\s*\((\d+)\s*,\s*(\d+)\)$")
# an expression is a term with an optional sign, then any number of signed
# terms; a term is an integer or a one-letter variable
_EXPR_RE = re.compile(r"[+-]?\s*(?:\d+|[a-z])(?:\s*[+-]\s*(?:\d+|[a-z]))*")
_TERM_RE = re.compile(r"([+-]?)\s*(\d+|[a-z])")


def _affine(text: str, var: str | None) -> tuple[int, int, int, int]:
    """(constant, h, k, var) coefficients of a sum of signed terms."""
    text = text.strip()
    if not _EXPR_RE.fullmatch(text):
        raise ValueError(f"bad expression {text!r}")
    slot = {"h": 1, "k": 2, var: 3}
    coef = [0, 0, 0, 0]
    for sign, atom in _TERM_RE.findall(text):
        if atom.isdigit():
            i, v = 0, int(atom)
        elif atom in slot:
            i, v = slot[atom], 1
        else:
            raise ValueError(f"unknown variable {atom!r} in {text!r}")
        coef[i] += -v if sign == "-" else v
    return tuple(coef)


def parse_rule(text: str, name: str = "custom") -> SuccessionRule:
    """Parse the rule file format described in the module docstring.

    >>> r = parse_rule('''
    ... axiom (1,1)
    ... row (i, k+1) for i = 1..h
    ... row (h+k+1-i, i) for i = 1..k
    ... ''')
    >>> [productions(r, (2, 2)) == productions(RULES["semi"], (2, 2))]
    [True]
    """
    axiom: Label | None = None
    rows: list[Row] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if m := _AXIOM_RE.match(line):
            if axiom is not None:
                raise ValueError("duplicate axiom line")
            axiom = (int(m.group(1)), int(m.group(2)))
            if min(axiom) < 1:
                raise ValueError(f"axiom {axiom} is not positive")
            continue
        if not (m := _ROW_RE.match(line)):
            raise ValueError(f"cannot parse rule line {line!r}")
        e1, e2, var, lo, hi = m.groups()
        if var in ("h", "k"):
            raise ValueError(f"loop variable {var!r} shadows a label variable")
        x, y = _affine(e1, var), _affine(e2, var)
        # re-index the loop from i = lo..hi to i = 0..hi-lo
        lo, hi = (_affine(lo, None)[:3], _affine(hi, None)[:3]) if var else ((0, 0, 0),) * 2
        rows.append((_lin((1, x[:3]), (x[3], lo)), _lin((1, y[:3]), (y[3], lo)),
                     (x[3], y[3]), _lin((1, hi), (-1, lo))))
    if axiom is None:
        raise ValueError("missing axiom line")
    if not rows:
        raise ValueError("rule has no production rows")
    return SuccessionRule(name, axiom, tuple(rows))


RULE_FILE_SOURCES: dict[str, str] = {
    "cat": "axiom (1,1)\nrow (i, 1) for i = 1..h+1\n",
    "semi": "axiom (1,1)\nrow (i, k+1) for i = 1..h\nrow (h+k+1-i, i) for i = 1..k\n",
    "bax": "axiom (1,1)\nrow (i, k+1) for i = 1..h\nrow (h+1, i) for i = 1..k\n",
    "tbax": ("axiom (1,1)\nrow (i, k) for i = 1..h-1\nrow (h, k+1)\n"
             "row (h+k+1-i, i) for i = 1..k\n"),
    "strong": ("axiom (1,1)\nrow (i, k) for i = 1..h-1\nrow (h, k+1)\n"
               "row (h+1, i) for i = 1..k\n"),
}

RULES: dict[str, SuccessionRule] = {
    name: parse_rule(text, name) for name, text in RULE_FILE_SOURCES.items()
}
