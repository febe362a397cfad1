"""Two-label succession rules: the rule DSL, productions, level steps, counts.

A succession rule is an axiom label plus a production map sending each
label to the ordered list of its children's labels; the number of nodes
at level n of the induced generating tree is the nth term of the
enumerated sequence.  All labels here are pairs (h, k) of positive
integers; the one-label Catalan rule rides along as (k, 1) so a single
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
label equation off the same runs.  A level step expands no node.  A level
is carried as its live rows (Level).  `_step` writes the next one into its
own flat grid, label (x, y) at index x + w*y, so a step of d is one
stride, and reads the rows off that buffer once.  Each run adds a label's
count at its first child and takes it off one stride past its last, then
sums along the stride; along a source row k both indices are affine in h,
so each run takes two strided slices per row.  The next grid reaches only
as far as the children of labels under the level's largest h + k can: the
ECO method of Barcucci, Del Lungo, Pergola and Pinzani (1999).
"""

from __future__ import annotations

import re
from itertools import accumulate, islice, repeat
from operator import add, sub
from typing import Iterator, NamedTuple

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


def _grid(rule: SuccessionRule, dist: LabelDistribution) -> tuple[list[int], int]:
    if min(map(min, dist)) < 1:
        raise ValueError(f"rule {rule.name}: a label of the level is not positive")
    w = max(map(max, dist)) + 1
    cells = [0] * w * w
    for (h, k), cnt in dist.items():
        cells[h + w * k] = cnt
    return cells, w


def _dict(rows: Level) -> LabelDistribution:
    return {(h, k): v for k, i, _, vals in rows for h, v in enumerate(vals, i) if v}


def _scatter(cells: list[int], start: int, step: int, vals: list[int], op) -> None:
    """cells[start + i*step] = op(that cell, vals[i]) for each i, in one slice."""
    if step:
        stop = start + step * len(vals)
        at = slice(start, stop if stop >= 0 else None, step)
        cells[at] = map(op, cells[at], vals)
    else:
        cells[start] = op(cells[start], sum(vals))


def _rows(cells: list[int], w: int) -> Level:
    """(k, i, j, cells i..j) per grid row k with a count, i and j its first and last live label."""
    rows = []
    for k in range(len(cells) // w):
        row = cells[k * w:k * w + w]
        if any(row):
            i = row.index(next(filter(None, row)))
            j = w - row[::-1].index(next(filter(None, reversed(row))))
            rows.append((k, i, j - 1, row[i:j]))
    return rows


def _step(rule: SuccessionRule, rows: Level) -> Level:
    """The live rows of the level after the one in rows (see the module docstring)."""
    if not rows:
        return []
    # The labels lie in the box h0..h1 x k0..k1 cut by h + k <= s, and an affine map
    # peaks at (h0, k0) or at a far corner the cut trims (s >= h1 + k0, s >= h0 + k1).
    h0, h1, k0, k1 = min(r[1] for r in rows), max(r[2] for r in rows), rows[0][0], rows[-1][0]
    s = max(k + hi for k, _, hi, _ in rows)
    corners = (h0, k0), (h1, k0), (h0, k1), (h1, min(k1, s - h1)), (min(h1, s - k1), k1)
    # a run with dy < 0 or dy = 0 > dx is read from its last child; checks are its lowest
    # labels' coordinates that its coefficients alone do not keep positive
    runs, xtop, ytop, pad = [], 0, 0, 0
    for x, y, (dx, dy), span in rule.rows:
        end = _lin((1, x), (dx, span)), _lin((1, y), (dy, span))
        low = (x if dx >= 0 else end[0], y if dy >= 0 else end[1])
        checks = tuple(f for f in low if min(f[1:]) < 0 or sum(f) < 1)
        xtop = max(xtop, *(_at(f, h, k) for f in (x, end[0]) for h, k in corners))
        ytop = max(ytop, *(_at(f, h, k) for f in (y, end[1]) for h, k in corners))
        pad = max(pad, abs(dx), abs(dy))
        if dy < 0 or dy == 0 > dx:
            dx, dy, (x, y) = -dx, -dy, end
        runs.append((dx, dy, span, x, y, checks))
    w = xtop + pad + 1  # past every child's x and every |dx|; pad covers one-past
    size = w * (ytop + pad + 1)
    total = None  # a run of stride 0 adds in total itself, so it comes last
    for dx, dy, (s0, sh, sk), x, y, checks in sorted(runs, key=lambda r: r[:2] == (0, 0)):
        stride = dx + w * dy
        grid = [0] * size if stride or total is None else total
        a0, ah, ak = _lin((1, x), (w, y))
        for k, lo, hi, vals in rows:
            # (h, k) has n = c + sh*h children; count and check h = i..j, where n > 0
            c = s0 + sk * k + 1
            i = max(lo, -((c - 1) // sh)) if sh > 0 else lo if sh or c > 0 else hi + 1
            j = min(hi, (1 - c) // sh) if sh < 0 else hi
            if i > j:
                continue
            v = vals[i - lo:j - lo + 1]
            if checks and (bad := [h for h, cnt in enumerate(v, i)
                                   if cnt and min(_at(f, h, k) for f in checks) < 1]):
                raise _not_positive(rule, (bad[0], k))
            if not stride and (sh or c != 1):
                v = [cnt * (c + sh * h) for h, cnt in enumerate(v, i)]
            _scatter(grid, a := a0 + ak * k + ah * i, ah, v, add)
            if stride:
                _scatter(grid, a + (c + sh * i) * stride, ah + sh * stride, v, sub)
        for r in range(stride):
            grid[r::stride] = accumulate(grid[r::stride])
        total = grid if total is None or not stride else list(map(add, total, grid))
        del grid  # before the next row allocates its own
    return _rows(total, w)


def _levels(rule: SuccessionRule) -> Iterator[Level]:
    """The live rows of levels 1, 2, ..., each stepped to only when it is asked for."""
    return accumulate(repeat(rule), lambda rows, _: _step(rule, rows),
                      initial=_rows(*_grid(rule, {rule.axiom: 1})))


def next_level(rule: SuccessionRule, dist: LabelDistribution) -> LabelDistribution:
    """Multiset sum of productions weighted by counts: one step of dist's
    rows.  A label or child that is not a pair of positive integers raises
    ValueError.

    >>> next_level(RULES["semi"], {(1, 2): 1, (2, 1): 1}) == {
    ...     (1, 3): 1, (3, 1): 2, (2, 2): 2, (1, 2): 1}
    True
    """
    return _dict(_step(rule, _rows(*_grid(rule, dist)))) if dist else {}


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
