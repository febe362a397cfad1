"""Quarter-plane walk counting and the walk route to strong-Baxter numbers.

Walks start at the origin, take steps from a small-step multiset, and must
keep both coordinates nonnegative.  steps_of reads a rule's walk model off
its label equation at y = 1+a, z = 1+b: strong's is the preset SEVEN, the
preset FIVE {(-1,0), (0,-1), (1,-1), (1,0), (0,1)} plus two pauses (0,0),
and its excursions (walks that end at the origin) of length n-1 count
strong-Baxter permutations of size n.  strong_from_walks runs the DP
without the pauses, which add only a binomial transform.  The one walk DP,
walk_grids, keeps per length only the cells within reach of the step set's
largest moves along y and x+y (and, for excursions, within reach of the
origin again); for FIVE and SEVEN that is a triangle.  A grid row is one
int with cell x of row y in the b-bit slot s - y - x, s the x+y bound
(mirrored Kronecker substitution), so one shift per diagonal dx + dy moves
its steps' cells and drops those past s; diagonals that read the same rows
share one sum.  No cell of length t exceeds M^t, M the sum of the
multiplicities; exact slots hold M^T for the next _WIDEN_EVERY lengths T
and are then re-slotted wider.  The walk equation is read off the step
multiset alone, by inclusion-exclusion over the steps that would leave the
quarter plane.  Growth constants are fit to the excursion counts read as
doubles off a narrow run of the same DP, whose slots keep one width from
length 0 and drop each cell's low bits in place every _DROP_EVERY lengths,
with one bound on what was dropped, so each double is certified (else the
counts are exact); for FIVE plus p pauses (SEVEN is p = 2) the target is
the real root of t^3 + t^2 - 18t - 43 plus p.
"""

from __future__ import annotations

import math
import re
from itertools import chain, islice, repeat, takewhile, tee
from operator import add, and_, lshift, mul, rshift
from struct import Struct
from typing import Callable, Iterable, Iterator, Sequence

from .formulas import at_least
from .rules import RULES, SuccessionRule
from .series import (_IDENTITY, LabelSeries, Poly, Residual, _digits, _equation, _one_plus,
                     _width, residual_scan)

Step = tuple[int, int]


class StepMultiset:
    """Planar steps with multiplicities, every coordinate in {-1, 0, 1}."""

    __slots__ = ("mult", "name")

    def __init__(self, steps: Iterable[Step | tuple[int, int, int]], name: str = ""):
        self.mult: dict[Step, int] = {}
        for s in steps:
            dx, dy, m = s if len(s) == 3 else (*s, 1)
            if abs(dx) > 1 or abs(dy) > 1:
                raise ValueError(f"need small steps, coordinates in {{-1, 0, 1}}, got ({dx},{dy})")
            if m < 1:
                raise ValueError(f"need a multiplicity of at least 1, got {m}x({dx},{dy})")
            self.mult[(dx, dy)] = self.mult.get((dx, dy), 0) + m
        self.name = name

    def items(self) -> list[tuple[Step, int]]:
        return sorted(self.mult.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StepMultiset) and self.mult == other.mult

    def __repr__(self) -> str:
        body = ";".join(f"{m}x({dx},{dy})" if m > 1 else f"({dx},{dy})"
                        for (dx, dy), m in self.items())
        return f"StepMultiset({body!r})"


FIVE = StepMultiset([(-1, 0), (0, -1), (1, -1), (1, 0), (0, 1)], name="five")
SEVEN = StepMultiset([(-1, 0), (0, -1), (1, -1), (1, 0), (0, 1), (0, 0, 2)], name="seven")


def _shifted(p: Poly) -> Poly:
    """p(y, z) at y = 1+a, z = 1+b."""
    return _one_plus([(k, h, h, [v]) for (h, k), v in p.c.items()])


def steps_of(rule: SuccessionRule) -> StepMultiset:
    """rule's walk model: its label equation (series._equation) at y = 1+a,
    z = 1+b, which must have kernel ab and maps that are the identity or
    sections (y, z or both set to 1), has m steps (i-1, j-1) for each term
    m a^i b^j of the identity coefficient.  Else ValueError."""
    kernel, terms = _equation(rule)
    if _shifted(kernel) != Poly({(1, 1): 1}) or any(
            x not in ((1, 0), (0, 0)) or y not in ((0, 1), (0, 0)) for x, y in terms):
        raise ValueError(f"rule {rule.name}: no walk equation at y = 1+a, z = 1+b")
    c = _shifted(terms.get(_IDENTITY, Poly())).c
    return StepMultiset(((i - 1, j - 1, m) for (i, j), m in c.items()), name=rule.name)


def _split(steps: StepMultiset) -> tuple[StepMultiset, int]:
    """steps without (0,0), and the number of (0,0) steps."""
    return (StepMultiset((*s, m) for s, m in steps.items() if s != (0, 0)),
            steps.mult.get((0, 0), 0))


_STEP_RE = re.compile(r"^(?:(\d+)\s*[xX])?\s*\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)$")


def parse_steps(text: str) -> StepMultiset:
    """Parse a step multiset: items split by ';', each '(dx,dy)' with an
    optional 'Nx' multiplicity prefix; 'five' and 'seven' name presets.

    >>> parse_steps("(1,0); 2x(0,0)").items()
    [((0, 0), 2), ((1, 0), 1)]
    >>> parse_steps("seven") == SEVEN
    True
    """
    lowered = text.strip().lower()
    if lowered in ("five", "seven"):
        return FIVE if lowered == "five" else SEVEN
    steps: list[tuple[int, int, int]] = []
    for item in filter(None, map(str.strip, text.split(";"))):
        m = _STEP_RE.match(item)
        if m is None:
            raise ValueError(f"bad step item: {item!r}")
        steps.append((int(m.group(2)), int(m.group(3)), int(m.group(1) or 1)))
    if not steps:
        raise ValueError("empty step set")
    return StepMultiset(steps, name=lowered)


def walk_grids(steps: StepMultiset, n_max: int,
               returning: bool = False) -> Iterator[tuple[int, list[int], list[int]]]:
    """Endpoint counts of confined walks, lengths 0..n_max, as packed rows.

    Yields (b, rows, widths) per length: rows[y] is one int that holds the
    count at (x, y) in slot u = widths[y] - 1 - x, bits u*b .. (u+1)*b - 1,
    each below 2^(b-1); widths[y] = s - y + 1, s the bound on x+y.  A step
    raises y and x+y by at most the steps' largest rise and lowers them by
    at most their largest drop, so a walk of length t keeps both within t
    times the rise; with returning, a kept walk can still reach the origin
    by length n_max: both are also within n_max - t times the drop.  A
    dropped walk never returns, so every kept cell is exact.  For FIVE and
    SEVEN that is the triangle x + y <= min(t, n_max - t) (x + y <= t
    without returning); other x bounds leave low slots empty.

    >>> b, rows, widths = list(walk_grids(FIVE, 2))[2]
    >>> b, [list(row.to_bytes(w, "little")) for row, w in zip(rows, widths)]
    (8, [[1, 1, 2], [2, 0], [1]])
    >>> [widths for _, _, widths in walk_grids(FIVE, 4, returning=True)]
    [[1], [2, 1], [3, 2, 1], [2, 1], [1]]
    """
    at_least(n_max, 0, "n_max")
    return (grid[:3] for grid in _grids(steps.items(), n_max, returning))


_WIDEN_EVERY = 24  # steps per slot width; timed 3-5% faster than 16 at n_max = 100, 300, 600
_DROP_EVERY = 4  # steps per in-place drop of a narrow run; 8 timed the same at n_max = 300


def _drop(rows: list[int], w: int, b: int, d: int) -> list[int]:
    """rows of at most w b-bit slots, each slot's low d bits dropped in place."""
    keep = ((1 << w * b) - 1) // ((1 << b) - 1) * ((1 << b - d) - 1)  # each slot's low b - d bits
    return [(r >> d) & keep for r in rows]


def _grids(items: list[tuple[Step, int]], n_max: int, returning: bool, keep: int | None = None):
    # apart from walk_grids so that its guard raises at the call, not at next(); yields
    # (b, rows, widths, e, err), a count c in slot v having v 2^e <= c <= (v + err) 2^e:
    # exact (e = err = 0), the slots only widening, unless keep is given: then b is fixed
    # from length 0 at keep bits (in whole bytes) past the room for _DROP_EVERY lengths,
    # and the run only drops
    forms = [(dy, dx + dy) for (dx, dy), _ in items]
    rise, drop = ([max([0] + [sign * f[i] for f in forms]) for i in (0, 1)] for sign in (1, -1))
    mult_sum = sum(m for _, m in items)
    # the steps grouped by g = dx + dy, a group's rows as offsets (d - dy, m) from its top
    # dy d: new row y reads rows y - d + o, and groups with equal offsets share one sum
    shared: dict = {}
    for g in {g for _, g in forms}:
        d = max(dy for dy, h in forms if h == g)
        key = tuple((d - dy, m) for ((dx, dy), m) in items if dx + dy == g)
        shared.setdefault(key, []).append((g, d))
    b = 8 if keep is None else _width(mult_sum ** _DROP_EVERY) + keep + -keep % 8
    top, s, rows, widths, masks, e, err = 0, 0, [1], [1], [], 0, 0
    yield b, rows, widths, e, err
    for t in range(1, n_max + 1):
        if t > top and keep is None:
            # zero bytes atop each cell make room for mult_sum**top and a spare bit
            top = min(top + _WIDEN_EVERY, n_max)
            width = _width(mult_sum ** top)
            cells, pad = Struct(f"{b // 8}s").iter_unpack, bytes((width - b) // 8)
            rows = [int.from_bytes(pad.join(chain.from_iterable(
                cells(r.to_bytes(w * b // 8, "little")))), "little") for r, w in zip(rows, widths)]
            b, masks = width, []
        elif t > top:
            # drop the d low bits that make room for mult_sum**top >> e, read unsigned:
            # c <= (v + err) 2^e is then below ((v >> d) + 1 + (err >> d) + 1) 2^(e + d)
            top = min(t - 1 + _DROP_EVERY, n_max)
            d = max(0, (mult_sum ** top >> e).bit_length() - b)
            if d:
                rows, e, err = _drop(rows, widths[0], b, d), e + d, (err >> d) + 2
        err *= mult_sum  # a cell sums at most mult_sum cells of the last length
        y_top, s_new = (min(t * r, (n_max - t) * d) if returning else t * r
                        for r, d in zip(rise, drop))
        n = min(y_top, s_new) + 1  # at most len(rows) + 1
        # ext[z + 1] is row z, zero past either end; lazy maps hold no list of partial sums
        ext, total = [0, *rows, 0, 0], None
        for key, users in shared.items():
            lo, hi = -max(d for _, d in users), n - min(d for _, d in users)
            part = None
            for o, m in key:
                src = ext[lo + o + 1:hi + o + 1]
                src = src if m == 1 else map(mul, src, repeat(m))
                part = src if part is None else map(add, part, src)
            for (g, d), share in zip(users, tee(part, len(users))):
                # slot s - y - x holds cell x of row y: the group moves a cell s_new - s - g slots
                k, share = (s_new - s - g) * b, islice(share, -d - lo, None)
                share = map(lshift if k > 0 else rshift, share, repeat(abs(k))) if k else share
                total = share if total is None else map(add, total, share)
        if any(dx < 0 for (dx, _), _ in items):
            # a dx = -1 step moves x = 0 to the slot just past the row: clear that slot
            masks += [(1 << w * b) - 1 for w in range(len(masks), s_new + 2)]
            total = map(and_, total, masks[s_new + 1:s_new + 1 - n:-1])
        rows, s, widths = list(total), s_new, list(range(s_new + 1, s_new + 1 - n, -1))
        yield b, rows, widths, e, err


def count_walks(steps: StepMultiset, n_max: int) -> list[Poly]:
    """Endpoint tables for lengths 0..n_max as polynomials in (x, y).

    >>> [t.coeff(0, 0) for t in count_walks(FIVE, 3)]
    [1, 0, 2, 1]
    >>> sorted(count_walks(FIVE, 1)[1].c.items())
    [((0, 1), 1), ((1, 0), 1)]
    """
    return [Poly({(w - 1 - u, y): v for y, (row, w) in enumerate(zip(rows, widths))
                  for (u, _), v in _digits(row, b, 0).c.items()})
            for b, rows, widths in walk_grids(steps, n_max)]


def walk_totals(steps: StepMultiset, n_max: int) -> list[int]:
    """Counts of all confined walks of lengths 0..n_max.

    >>> walk_totals(FIVE, 4)
    [1, 2, 7, 24, 93]
    """
    # a column sum counts at most all walks of its length, which a slot holds: no carries
    return [sum(_digits(sum(rows), b, 0).c.values()) for b, rows, _ in walk_grids(steps, n_max)]


def excursions(steps: StepMultiset, n_max: int) -> list[int]:
    """Origin-return counts e_0..e_n_max, from the trimmed walk grids.

    >>> excursions(FIVE, 3)
    [1, 0, 2, 1]
    >>> excursions(SEVEN, 2)
    [1, 2, 6]
    """
    return [rows[0] >> (widths[0] - 1) * b for b, rows, widths in walk_grids(steps, n_max, True)]


def _section(p: Poly, keep: Callable) -> Poly:
    return Poly({e: v for e, v in p.c.items() if keep(e)})


def _walk_equation(steps: StepMultiset) -> list[tuple[int, Poly, Callable]]:
    """The cleared walk equation of steps: ab T_n = sum over its rows (sign,
    part, keep) of sign part _section(T_(n-1), keep) for n >= 1, T_n the
    length-n endpoint table.  part is _section(ab S, keep), ab S = sum m
    a^(1+dx) b^(1+dy); the rows include-exclude the walks that would leave
    through x = 0 (a-exponent 0: the dx = -1 steps), y = 0, or both."""
    ab_s = Poly({(1 + dx, 1 + dy): m for (dx, dy), m in steps.items()})
    return [(sign, _section(ab_s, keep), keep) for sign, keep in (
        (1, lambda e: True), (-1, lambda e: e[0] == 0),
        (-1, lambda e: e[1] == 0), (1, lambda e: e == (0, 0)))]


def _walk_defects(steps: StepMultiset, tables: Sequence[Poly]) -> Iterator[tuple[int, Poly]]:
    """(n, defect of _walk_equation at length n) for n = 1..len(tables) - 1."""
    rows = _walk_equation(steps)
    for n in range(1, len(tables)):
        yield n, Poly({(x + 1, y + 1): v for (x, y), v in tables[n].c.items()}) - sum(
            (part * _section(tables[n - 1], keep) * sign for sign, part, keep in rows), Poly())


def residual_walk_equation(order: int) -> Residual:
    """Defect of the FIVE walk equation derived by _walk_equation, the paper's:

        ab W = ab + t(b + a + a^2 + a^2 b + a b^2) W
                  - t b W(t;0,b) - t a(1+a) W(t;a,0),

    where W(t;0,b) restricts endpoints to x = 0 and W(t;a,0) to y = 0.
    Returns (largest |defect|, first offending (n, adeg, bdeg) or None).
    """
    at_least(order, 1, "order")
    return residual_scan(_walk_defects(FIVE, count_walks(FIVE, order)))


def binomial_transform(seq: Sequence, pauses: int) -> list:
    """Counts for a step set with pauses more (0,0) steps, from the counts
    seq of the step set without them: term m is the sum over n of
    C(m,n) pauses^(m-n) seq[n], since the pauses choose their places among
    the m steps freely.  Terms may be excursion counts or endpoint tables.

    That is (pauses + E)^m seq at 0, E the shift, read off a difference
    table: d_0 = seq, d_(j+1)[n] = pauses d_j[n] + d_j[n+1], term m = d_m[0].

    >>> binomial_transform(excursions(FIVE, 3), 2) == excursions(SEVEN, 3)
    True
    """
    out, d = [], list(seq)
    while d and pauses:
        out.append(d[0])
        d = [a * pauses + b for a, b in zip(d, d[1:])]
    return out + d


def w2_consistency(order: int, origin_only: bool = False) -> dict:
    """Check the SEVEN tables of lengths 0..order against the binomial
    transform of its pause-free tables; origin_only compares excursions."""
    at_least(order, 1, "order")
    count = excursions if origin_only else count_walks
    five, pauses = _split(SEVEN)
    want, seven = binomial_transform(count(five, order), pauses), count(SEVEN, order)
    first_fail = next((m for m in range(order + 1) if want[m] != seven[m]), None)
    return {"ok": first_fail is None, "first_fail": first_fail}


def strong_from_walks(n_max: int) -> list[int]:
    """Strong-Baxter counts for sizes 0..n_max: the size-n count is the
    number of excursions of length n-1 of steps_of(strong), whose pauses
    add only a binomial transform; index 0 holds the empty permutation.

    >>> strong_from_walks(3)
    [1, 1, 2, 6]
    """
    at_least(n_max, 1, "n_max")
    steps, pauses = _split(steps_of(RULES["strong"]))
    return [1] + binomial_transform(excursions(steps, n_max - 1), pauses)


def strong_refinement_residual(n_max: int) -> Residual:
    """Defect of the refined walk correspondence: for 1 <= n <= n_max,
    the strong label polynomial at (y,z) = (1+a, 1+b) must equal its
    axiom there, (1+a)(1+b), times the steps_of table of length n-1."""
    at_least(n_max, 1, "n_max")
    rule = RULES["strong"]
    labels, yz = LabelSeries(rule, n_max), _shifted(Poly({rule.axiom: 1}))
    tables = count_walks(steps_of(rule), n_max - 1)
    return residual_scan((n, _one_plus(labels.rows[n]) - yz * tables[n - 1])
                         for n in range(1, n_max + 1))


def minpoly_five(t: float) -> float:
    """The growth-constant polynomial t^3 + t^2 - 18t - 43 for FIVE."""
    return t ** 3 + t ** 2 - 18 * t - 43


RHO_FIVE_QUOTED = 4.729031538


def _rho_five() -> float:
    t = 4.729
    for _ in range(60):
        t = t - minpoly_five(t) / (3 * t * t + 2 * t - 18)
    return t


def growth_estimate(steps: StepMultiset, n_max: int) -> dict:
    """Estimate the excursion growth constant of steps by fit_growth on the
    excursion counts e_0..e_n_max, read as the nearest doubles that a narrow
    DP run certifies (_fit_terms), so the report is the exact counts' one."""
    at_least(n_max, 0, "n_max")
    return fit_growth(steps, _fit_terms(steps, n_max)[0])


def _brackets(steps: StepMultiset, n_max: int, keep: int) -> Iterator[tuple[int, int]]:
    """(lo, hi) with lo <= e_m <= hi for m = 0..n_max, off the excursion DP of
    steps run narrow: its slots, fixed from length 0, are keep bits (in whole
    bytes) past the headroom of the _DROP_EVERY lengths between two drops."""
    for b, rows, widths, e, err in _grids(steps.items(), n_max, True, keep):
        v = rows[0] >> (widths[0] - 1) * b
        yield v << e, (v + err) << e


def _fit_terms(steps: StepMultiset, n_max: int, pauses: Sequence[int] = (0,)) -> list[list]:
    """For each p in pauses (0 among them), e_0..e_n_max of steps plus p more
    (0,0) steps: the nearest doubles, where one narrow _brackets run certifies
    all (binomial_transform, a positive map, carries the brackets), else the
    exact ints.  The run stops at the first uncertified term, and is skipped
    when a term may reach 2^1023."""
    runs = []
    if (sum(steps.mult.values()) + max(pauses)) ** n_max >> 1023 == 0:
        runs = list(takewhile(lambda run: _double(*run) is not None,
                              _brackets(steps, n_max, 96 + n_max // 8)))
    if len(runs) == n_max + 1:
        lo, hi = zip(*runs)
        terms = [list(map(_double, binomial_transform(lo, p), binomial_transform(hi, p)))
                 for p in pauses]
        if None not in chain.from_iterable(terms):
            return terms
    e = excursions(steps, n_max)
    return [binomial_transform(e, p) for p in pauses]


def _double(lo: int, hi: int) -> float | None:
    """The double that every int in lo..hi rounds to, or None."""
    f = float(lo)
    return f if hi >> 1023 == 0 and f == float(hi) else None


def fit_growth(steps: StepMultiset, e: Sequence[int]) -> dict:
    """Estimate the growth constant rho from e_n ~ K rho^n n^alpha, where
    e holds the excursion counts e_0..e_n_max of steps, n_max >= 50.

    alpha is fit from second differences of log e_n (which cancel K and
    the rho^n factor), ratios e_n/e_(n-1) are corrected by the fitted
    (n/(n-1))^alpha, and one Richardson step removes the residual 1/n
    drift.  For FIVE plus p pauses (0,0) the target is the real root of
    t^3+t^2-18t-43 plus p (pauses add a binomial transform; SEVEN is p = 2);
    other step sets report no target.  residual_of_minpoly is the polynomial
    evaluated at the 10-digit quoted approximation of the FIVE root.  Each
    count is read only by math.log, which on an int below 2^1024 is the log
    of its nearest double, so those doubles give the same report.
    """
    n_max = len(e) - 1
    at_least(n_max, 50, "n_max")
    logs = [math.log(v) if v else None for v in e]
    window = range(n_max - min(40, n_max // 2), n_max - 1)
    fits = [(logs[n + 1] - 2 * logs[n] + logs[n - 1])
            / (math.log(n + 1) - 2 * math.log(n) + math.log(n - 1))
            for n in window if None not in logs[n - 1:n + 2]]
    if not fits or logs[n_max] is None or logs[n_max - 2] is None:
        raise ValueError("excursion counts vanish on the fitting window")
    alpha = sum(fits) / len(fits)

    def corrected_ratio(n: int) -> float:
        return math.exp(logs[n] - logs[n - 1] - alpha * math.log(n / (n - 1)))

    rho_hat = n_max * corrected_ratio(n_max) - (n_max - 1) * corrected_ratio(n_max - 1)

    base, pauses = _split(steps)
    target = _rho_five() + pauses if base == FIVE else None
    return {
        "steps": steps.name or repr(steps),
        "n_max": n_max,
        "alpha_hat": alpha,
        "rho_hat": rho_hat,
        "target": target,
        "rel_err": abs(rho_hat - target) / target if target else None,
        "residual_of_minpoly": abs(minpoly_five(RHO_FIVE_QUOTED)),
    }
