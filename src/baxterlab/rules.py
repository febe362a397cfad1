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

Every row expression is affine, so a row is a straight run of labels,
child(i) = P(h,k) + i*d for i = lo(h,k)..hi(h,k).  `productions` expands
one node row by row.  `next_level` expands no node: it adds each run's
count at the run's first label and subtracts it one step past its last
label, then sweeps every line of labels once.  A level step so costs
O(#labels) instead of O(sum of h+k), the ECO method of Barcucci, Del
Lungo, Pergola and Pinzani (1999).
"""

from __future__ import annotations

import re
from itertools import accumulate, islice
from math import gcd
from typing import Iterator, NamedTuple

Label = tuple[int, int]
LabelDistribution = dict[Label, int]
Affine = tuple[int, int, int]  # (c, a, b) stands for c + a*h + b*k
Coeffs = tuple[int, int, int, int]  # (constant, h, k, loop variable)
Row = tuple[Coeffs, Coeffs, Affine, Affine]


class SuccessionRule(NamedTuple):
    """An axiom and production rows, as `parse_rule` builds them.

    A row (x, y, lo, hi) puts one child (x, y) at each i = lo..hi: x and
    y are Coeffs, lo and hi are Affine, and a row without a loop has
    lo = hi = 0.  plan is the level step that `_compile` makes of the
    rows.
    """

    name: str
    axiom: Label
    rows: tuple[Row, ...]
    plan: tuple


def _at(f: Affine, h: int, k: int) -> int:
    return f[0] + f[1] * h + f[2] * k


def _least(f: Affine, hb: tuple[int, int], kb: tuple[int, int]) -> int:
    """Least value of f over the box hb[0] <= h <= hb[1], kb[0] <= k <= kb[1]."""
    return f[0] + f[1] * hb[f[1] < 0] + f[2] * kb[f[2] < 0]


def _most(f: Affine, hb: tuple[int, int], kb: tuple[int, int]) -> int:
    """Greatest value of f over the same box."""
    return f[0] + f[1] * hb[f[1] >= 0] + f[2] * kb[f[2] >= 0]


def _lin(*terms: tuple[int, Affine]) -> Affine:
    """The affine map sum of c * f over the (c, f) terms."""
    c0 = c1 = c2 = 0
    for c, f in terms:
        c0, c1, c2 = c0 + c * f[0], c1 + c * f[1], c2 + c * f[2]
    return c0, c1, c2


def _compile(rows: tuple[Row, ...]) -> tuple:
    """Level-step plan: (points, lines).

    points holds (span, x, y, checks) for the rows with direction (0, 0),
    whose run puts span+1 children on the one label (x, y).  lines holds
    (d, _frame(d), runs) for each other direction d; a run is
    (span, inv, u, past, checks): its labels lie on the line inv, from
    position u to position past - g (see `_frame`).  checks are the
    coordinates of the run's lowest labels that are not positive for
    every h, k >= 1 by their coefficients alone.  All but g are affine
    maps of the parent label (h, k).
    """
    points = []
    lines: dict[Label, list] = {}
    for x, y, lo, hi in rows:
        dx, dy = x[3], y[3]
        span = _lin((1, hi), (-1, lo))
        px, py = x[:3], y[:3]
        start = (_lin((1, px), (dx, lo)), _lin((1, py), (dy, lo)))
        end = (_lin((1, px), (dx, hi)), _lin((1, py), (dy, hi)))
        low = (start[0] if dx >= 0 else end[0], start[1] if dy >= 0 else end[1])
        checks = tuple(f for f in low if min(f[1:]) < 0 or sum(f) < 1)
        if dx == dy == 0:
            points.append((span, start[0], start[1], checks))
            continue
        g, ex, ey, alpha, beta = _frame(dx, dy)
        inv = _lin((ey, start[0]), (-ex, start[1]))
        u = _lin((alpha, start[0]), (beta, start[1]))
        past = _lin((1, u), (g, span), (g, (1, 0, 0)))  # u + g*(span+1)
        lines.setdefault((dx, dy), []).append((span, inv, u, past, checks))
    return tuple(points), tuple((d, _frame(*d), tuple(runs)) for d, runs in lines.items())


def _frame(dx: int, dy: int) -> tuple[int, int, int, int, int]:
    """(g, ex, ey, alpha, beta) of a direction d = g*(ex, ey) != (0, 0).

    alpha*ex + beta*ey = 1, so (x, y) -> (inv, u) = (ey*x - ex*y,
    alpha*x + beta*y) is unimodular: inv is constant along a line in
    direction e and u counts steps of e along it; the inverse is
    x = beta*inv + ex*u, y = -alpha*inv + ey*u.  A step of d is g steps
    of e, so labels with the same inv and u mod g form one chain.
    """
    g = gcd(dx, dy)
    ex, ey = dx // g, dy // g
    if ey == 0:
        return g, ex, ey, ex, 0
    if abs(ey) == 1:
        return g, ex, ey, 0, ey
    alpha = pow(ex, -1, abs(ey))
    return g, ex, ey, alpha, (1 - alpha * ex) // ey


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
    for (x0, xh, xk, dx), (y0, yh, yk, dy), lo, hi in rule.rows:
        x, y = x0 + xh * h + xk * k, y0 + yh * h + yk * k
        out.extend((x + dx * i, y + dy * i)
                   for i in range(_at(lo, h, k), _at(hi, h, k) + 1))
    if any(a < 1 or b < 1 for a, b in out):
        raise _not_positive(rule, label)
    return out


def expand_level(rule: SuccessionRule, dist: LabelDistribution) -> LabelDistribution:
    """Multiset sum of productions weighted by counts, node by node.

    The reference that `next_level` is checked against.
    """
    out: LabelDistribution = {}
    get = out.get
    for label, cnt in dist.items():
        for child in productions(rule, label):
            out[child] = get(child, 0) + cnt
    return out


def next_level(rule: SuccessionRule, dist: LabelDistribution) -> LabelDistribution:
    """Multiset sum of productions weighted by counts, by interval sums.

    dist maps positive labels to positive counts; a label or child label
    that is not a pair of positive integers raises ValueError.  Time and
    memory grow with the box of labels (h, k) that dist spans, which for
    a level of a generating tree is a small multiple of its label count.

    >>> next_level(RULES["semi"], {(1, 2): 1, (2, 1): 1}) == {
    ...     (1, 3): 1, (3, 1): 2, (2, 2): 2, (1, 2): 1}
    True
    """
    if not dist:
        return {}
    hs, ks = zip(*dist)
    hb, kb = (min(hs), max(hs)), (min(ks), max(ks))
    if hb[0] < 1 or kb[0] < 1:
        raise ValueError(f"rule {rule.name}: a label of the level is not positive")
    out: LabelDistribution = {}
    get = out.get
    items = dist.items()
    points, lines = rule.plan
    for (s0, sh, sk), (x0, xh, xk), (y0, yh, yk), checks in points:
        for (h, k), cnt in items:
            n = s0 + sh * h + sk * k + 1
            if n > 0:
                if checks and any(_at(f, h, k) < 1 for f in checks):
                    raise _not_positive(rule, (h, k))
                p = (x0 + xh * h + xk * k, y0 + yh * h + yk * k)
                out[p] = get(p, 0) + cnt * n
    for (dx, dy), (g, ex, ey, alpha, beta), runs in lines:
        # The lines of direction d are the rows of one grid, row inv - inv_lo
        # and column u - u_lo.  A run adds cnt at its first label and -cnt
        # one step of d past its last; summing each row along d then gives
        # the count of every label on it.
        inv_lo = min(_least(inv, hb, kb) for _, inv, _, _, _ in runs)
        n_rows = max(_most(inv, hb, kb) for _, inv, _, _, _ in runs) - inv_lo + 1
        u_lo = min(_least(u, hb, kb) for _, _, u, _, _ in runs)
        w = max(_most(past, hb, kb) for _, _, _, past, _ in runs) - u_lo + 1
        grid = [0] * (n_rows * w)
        for (s0, sh, sk), inv, u, past, checks in runs:
            (a0, ah, ak), (b0, bh, bk) = (
                _lin((w, inv), (1, at), (-w * inv_lo - u_lo, (1, 0, 0))) for at in (u, past))
            for (h, k), cnt in items:
                if s0 + sh * h + sk * k >= 0:
                    if checks and any(_at(f, h, k) < 1 for f in checks):
                        raise _not_positive(rule, (h, k))
                    grid[a0 + ah * h + ak * k] += cnt
                    grid[b0 + bh * h + bk * k] -= cnt
        for j in range(n_rows):
            row = grid[j * w:(j + 1) * w]
            if not any(row):
                continue
            inv = inv_lo + j
            for r in range(g):
                x, y = beta * inv + ex * (u_lo + r), -alpha * inv + ey * (u_lo + r)
                for v in accumulate(row[r::g]):
                    if v:
                        p = (x, y)
                        out[p] = get(p, 0) + v
                    x += dx
                    y += dy
    return out


def levels(rule: SuccessionRule) -> Iterator[LabelDistribution]:
    """The label multisets at levels 1, 2, ... (level 1 is the axiom).

    A level is stepped to only when it is asked for, so reading levels
    1..n costs n - 1 calls of `next_level`.
    """
    dist: LabelDistribution = {rule.axiom: 1}
    while True:
        yield dist
        dist = next_level(rule, dist)


def distribution(rule: SuccessionRule, n: int) -> LabelDistribution:
    """Exact label multiset at level n (level 1 is the axiom)."""
    if n < 1:
        raise ValueError(f"level {n} is not positive")
    return next(islice(levels(rule), n - 1, None))


def count_sequence(rule: SuccessionRule, n_max: int) -> list[int]:
    """Node counts at levels 1..n_max.

    >>> count_sequence(RULES["cat"], 5)
    [1, 2, 5, 14, 42]
    >>> count_sequence(RULES["semi"], 7)
    [1, 2, 6, 23, 104, 530, 2958]
    >>> count_sequence(RULES["bax"], 6) == count_sequence(RULES["tbax"], 6)
    True
    """
    if n_max < 1:
        raise ValueError(f"n_max {n_max} is not positive")
    return [sum(dist.values()) for dist in islice(levels(rule), n_max)]


# ---------------------------------------------------------------------------
# rule file mini-format

_ROW_RE = re.compile(
    r"^row\s*\(([^,()]+),([^,()]+)\)\s*"
    r"(?:for\s+([a-z])\s*=\s*([^.]+)\.\.(.+))?$"
)
_AXIOM_RE = re.compile(r"^axiom\s*\((\d+)\s*,\s*(\d+)\)$")
_TERM_RE = re.compile(r"\s*([+-]?)\s*(\d+|[a-z])")


def _affine(text: str, var: str | None) -> tuple[int, int, int, int]:
    """(constant, h, k, var) coefficients of a sum of signed terms."""
    slot = {"h": 1, "k": 2}
    if var is not None:
        slot[var] = 3
    coef = [0, 0, 0, 0]
    pos = 0
    first = True
    while pos < len(text.rstrip()):
        m = _TERM_RE.match(text, pos)
        if not m:
            raise ValueError(f"bad expression {text!r}")
        sign_s, atom = m.groups()
        if not first and not sign_s:
            raise ValueError(f"missing operator in {text!r}")
        sign = -1 if sign_s == "-" else 1
        if atom.isdigit():
            coef[0] += sign * int(atom)
        elif atom in slot:
            coef[slot[atom]] += sign
        else:
            raise ValueError(f"unknown variable {atom!r} in {text!r}")
        pos = m.end()
        first = False
    if first:
        raise ValueError(f"empty expression {text!r}")
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
        m = _AXIOM_RE.match(line)
        if m:
            if axiom is not None:
                raise ValueError("duplicate axiom line")
            axiom = (int(m.group(1)), int(m.group(2)))
            if min(axiom) < 1:
                raise ValueError(f"axiom {axiom} is not positive")
            continue
        m = _ROW_RE.match(line)
        if not m:
            raise ValueError(f"cannot parse rule line {line!r}")
        e1, e2, var, lo, hi = m.groups()
        if var is None:
            rows.append((_affine(e1, None), _affine(e2, None), (0, 0, 0), (0, 0, 0)))
            continue
        if var in ("h", "k"):
            raise ValueError(f"loop variable {var!r} shadows a label variable")
        rows.append((_affine(e1, var), _affine(e2, var),
                     _affine(lo, None)[:3], _affine(hi, None)[:3]))
    if axiom is None:
        raise ValueError("missing axiom line")
    if not rows:
        raise ValueError("rule has no production rows")
    return SuccessionRule(name, axiom, tuple(rows), _compile(rows))


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
