"""Reference outputs for the benchmark's ``digest`` requests.

Each expected stdout is built from a route other than the one the request
exercises, so a wrong answer cannot agree with itself:

* semi-Baxter terms asked through the rule, formula-a or invseq route come
  from ``formulas.sb_recurrence``; terms asked through the recurrence come
  from the Apery-number identity over ``formulas.apery_recurrence``;
* Baxter and twisted-Baxter terms asked through a rule or the closed sum
  come from ``formulas.baxter_recurrence``; terms asked through that
  recurrence come from the closed triple-binomial sum, evaluated here by
  exact term ratios;
* strong-Baxter terms asked through the rule come from the walk route, and
  terms asked through the walk route come from the succession rule;
* ``series --check W`` is rebuilt from Lagrange inversion
  (``series.lagrange_coeff``); the other series checks print a fixed PASS
  verdict, which is the expected text.

The growth estimate of ``walks --estimate-growth`` prints floating-point
fits that no other route reproduces digit for digit, so its digest is the
output recorded at commit ``RECORDED_AT``.

SB_n has more than 4300 digits from n = 4464 on.  The int->str limit is
lifted only while this module formats reference text, never while
``baxterlab.cli.main`` runs, so the benchmark still sees the defect.

Run ``PYTHONPATH=src python3 perfbench/references.py`` from the repository
root to rewrite ``references.json``.  Rebuilding re-records the growth
estimate from the current tree, so do it only on purpose.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from baxterlab import cli, formulas, rules, series, walks

import workloads

REFERENCES = Path(__file__).with_name("references.json")
RECORDED_AT = "ec9c860efdfd"


def _arg(argv: tuple[str, ...], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _baxter_by_closed_sum(n_max: int) -> list[int]:
    """B_1..B_n_max from 2/(n(n+1)^2) sum_j C(n+1,j-1) C(n+1,j) C(n+1,j+1).

    The summands are stepped by their exact ratio in j, which keeps every
    term an integer: t_(j+1) = t_j (m-j+1)(m-j)(m-j-1) / (j (j+1) (j+2))
    with m = n+1 and t_1 = C(m,0) C(m,1) C(m,2).
    """
    out = []
    for n in range(1, n_max + 1):
        m = n + 1
        t = m * (m * (m - 1) // 2)
        s = t
        for j in range(1, n):
            t = t * (m - j + 1) * (m - j) * (m - j - 1) // (j * (j + 1) * (j + 2))
            s += t
        q, r = divmod(2 * s, n * (n + 1) ** 2)
        if r:
            raise ArithmeticError(f"closed Baxter sum not integral at n={n}")
        out.append(q)
    return out


def _sb_by_apery(n_max: int) -> list[int]:
    """SB_1..SB_n_max from the two-term Apery-number identity."""
    a = formulas.apery_recurrence(n_max + 1)
    out = [1]
    for n in range(2, n_max + 1):
        num = (5 * n ** 3 - 5 * n + 6) * a[n + 1] - (5 * n ** 2 + 15 * n + 18) * a[n]
        den = 5 * (n - 1) * n ** 2 * (n + 2) ** 2 * (n + 3) ** 2 * (n + 4)
        q, r = divmod(24 * num, den)
        if r:
            raise ArithmeticError(f"Apery identity not integral at n={n}")
        out.append(q)
    return out


def _reference_terms(family: str, route: str, n: int) -> tuple[list[int], str]:
    if family == "sb" and route == "recurrence":
        return _sb_by_apery(n), "Apery-number identity over formulas.apery_recurrence"
    if family == "sb":
        return formulas.sb_recurrence(n)[1:], "formulas.sb_recurrence"
    if family == "baxter" and route == "ollerton":
        return _baxter_by_closed_sum(n), "closed triple-binomial sum by term ratios"
    if family in ("baxter", "twisted"):
        return formulas.baxter_recurrence(n)[1:], "formulas.baxter_recurrence"
    if family == "strong" and route == "rule":
        return walks.strong_from_walks(n)[1:], "walks.strong_from_walks"
    if family == "strong":
        return rules.count_sequence(rules.RULES["strong"], n), "rules strong count_sequence"
    raise ValueError(f"no reference route for seq {family}/{route}")


def _laurent_text(coeffs: dict[int, int]) -> str:
    parts = [f"{v}*a^{e}" if e else f"{v}" for e, v in sorted(coeffs.items()) if v]
    return " + ".join(parts) or "0"


def _w_text(order: int) -> str:
    lines = [f"fixpoint verified to order {order}"]
    for k in (1, 2):
        coeffs = {}
        for s in range(-(k - 1), 2 * k + 1):
            c = series.lagrange_coeff(s, k, 1)
            if c.denominator != 1:
                raise ArithmeticError(f"[a^{s} x^{k}]W is not an integer")
            coeffs[s] = int(c)
        lines.append(f"[x^{k}] = {_laurent_text(coeffs)}")
    return "\n".join(lines) + "\n"


_VERDICTS = {
    "F": "PASS a^0 column matches the recurrence for n=1..{order}",
    "omega": "PASS nonneg part matches label evaluation for x^1..x^{order}",
    "residual-semi": "PASS residual 0 through x^{order}",
    "residual-strong": "PASS residual 0 through x^{order}",
}


def _recorded(argv: tuple[str, ...]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    if rc != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {rc} while recording")
    return out.getvalue()


def expected(argv: tuple[str, ...]) -> tuple[str, str]:
    """Expected stdout of one digest request and where it comes from."""
    cmd = argv[0]
    if cmd == "seq":
        family, route, n = _arg(argv, "--family"), _arg(argv, "--route"), int(_arg(argv, "--n-max"))
        values, source = _reference_terms(family, route, n)
        fmt = _arg(argv, "--format") if "--format" in argv else "plain"
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            if fmt == "bfile":
                text = "".join(f"{i} {v}\n" for i, v in enumerate(values, start=1))
            else:
                text = "".join(f"{v}\n" for v in values)
        finally:
            sys.set_int_max_str_digits(old)
        return text, source
    if cmd == "series":
        check, order = _arg(argv, "--check"), int(_arg(argv, "--order"))
        if check == "W":
            return _w_text(order), "Lagrange inversion via series.lagrange_coeff"
        if check == "reduced":
            a0 = next(a.split("=", 1)[1] for a in argv if a.startswith("--a0="))
            return f"PASS both identities hold at a0={a0} to order {order}\n", "PASS verdict"
        return _VERDICTS[check].format(order=order) + "\n", "PASS verdict"
    if cmd == "walks":
        return _recorded(argv), f"output recorded at commit {RECORDED_AT}"
    raise ValueError(f"no reference for {' '.join(argv)}")


def digest_requests() -> list[workloads.Request]:
    """Every digest request of every workload, at full and smoke sizes."""
    out = {}
    for smoke in (False, True):
        for name in workloads.WORKLOADS:
            for req in workloads.requests(name, seed=0, smoke=smoke):
                if req.verify == "digest":
                    out[req.key] = req
    return list(out.values())


def entry(text: str, source: str) -> dict:
    data = text.encode()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data), "source": source}


def load() -> dict[str, dict]:
    return json.loads(REFERENCES.read_text())["requests"]


def main() -> int:
    refs = {}
    for req in digest_requests():
        text, source = expected(req.argv)
        refs[req.key] = entry(text, source)
        print(f"{refs[req.key]['bytes']:>9} bytes  {req.key}  <- {source}", flush=True)
    REFERENCES.write_text(json.dumps({"recorded_at": RECORDED_AT, "requests": refs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
