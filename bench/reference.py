"""Reference answers that do not come from cbound.

Every answer the benchmark receives is checked against something computed
here from the fixtures or from first principles: the expected cells of the
knowledge base, the golden polynomials, the skein recurrence of the
T(2, n) torus links, the mirror rule, degree bounds on the polynomial of a
braid closure, and the oval ids of a forest.  Nothing here imports cbound.
"""

from __future__ import annotations

import re
from fractions import Fraction

# Two Laurent polynomials are compared exactly by their values at these
# rational points, where an accidental agreement is out of reach.
POINTS = ((Fraction(3, 2), Fraction(5, 7)), (Fraction(-7, 4), Fraction(11, 3)))

CLASSES = ("Q", "SB", "B")


# -- polynomials ---------------------------------------------------------------


def parse_terms(text: str) -> dict[tuple[int, int], int]:
    """Terms of a polynomial in cbound's rendering, ``c*v^a*z^b`` joined by
    `` + `` and `` - ``, as {(v degree, z degree): coefficient}."""
    text = text.strip()
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = re.split(r" ([+-]) ", text)
    terms: dict[tuple[int, int], int] = {}
    for k in range(0, len(pieces), 2):
        if k:
            sign = 1 if pieces[k - 1] == "+" else -1
        coeff, dv, dz = 1, 0, 0
        for part in pieces[k].split("*"):
            var, caret, exp = part.partition("^")
            if var in ("v", "z"):
                power = int(exp) if caret else 1
                if var == "v":
                    dv = power
                else:
                    dz = power
            elif part.isdigit():
                coeff = int(part)
            else:
                raise ValueError("unreadable term %r" % pieces[k])
        if (dv, dz) in terms or coeff == 0:
            raise ValueError("non-canonical polynomial %r" % text)
        terms[(dv, dz)] = sign * coeff
    return terms


def value(terms: dict[tuple[int, int], int], v: Fraction, z: Fraction) -> Fraction:
    return sum((c * v**a * z**b for (a, b), c in terms.items()), Fraction(0))


def mirror_terms(terms: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """Polynomial of the mirror image: v -> 1/v, z -> -z."""
    return {(-a, b): (c if b % 2 == 0 else -c) for (a, b), c in terms.items()}


def evaluate_expression(text: str, v: Fraction, z: Fraction) -> Fraction:
    """Value of an arithmetic expression in v and z, as written in
    ``fixtures/golden.dat`` (``+ - * / ^``, parentheses, integers)."""
    if re.search(r"[^0-9vz()+\-*/^ ]", text):
        raise ValueError("unexpected character in %r" % text)
    toks = re.findall(r"\d+|[vz()+\-*/^]", text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        acc = term()
        while peek() in ("+", "-"):
            acc = acc + term() if take() == "+" else acc - term()
        return acc

    def term():
        acc = unary()
        while peek() in ("*", "/"):
            acc = acc * unary() if take() == "*" else acc / unary()
        return acc

    def unary():
        if peek() == "-":
            take()
            return -unary()
        base = atom()
        if peek() == "^":
            take()
            exp = unary()
            if exp.denominator != 1:
                raise ValueError("non-integer exponent in %r" % text)
            base = base ** int(exp)
        return base

    def atom():
        tok = take()
        if tok == "(":
            inner = expr()
            if take() != ")":
                raise ValueError("unbalanced parentheses in %r" % text)
            return inner
        if tok == "v":
            return v
        if tok == "z":
            return z
        if tok.isdigit():
            return Fraction(int(tok))
        raise ValueError("unexpected %r in %r" % (tok, text))

    out = expr()
    if pos != len(toks):
        raise ValueError("trailing input in %r" % text)
    return out


def torus2_values(n: int) -> list[Fraction]:
    """Values of P(T(2, n)) at POINTS from the skein relation on one
    crossing of sigma_1^n: P_n = v z P_(n-1) + v^2 P_(n-2), with P_1 = 1
    and P_0 the two-component unlink (1/v - v)/z."""
    out = []
    for v, z in POINTS:
        prev, cur = (1 / v - v) / z, Fraction(1)
        for _ in range(n - 1):
            prev, cur = cur, v * z * cur + v * v * prev
        out.append(cur)
    return out


def components(strands: int, letters: tuple[int, ...]) -> int:
    """Number of components of the closure of a braid word."""
    pos = list(range(strands))
    for x in letters:
        i = abs(x)
        pos[i - 1], pos[i] = pos[i], pos[i - 1]
    seen, count = set(), 0
    for s in range(strands):
        if s in seen:
            continue
        count += 1
        while s not in seen:
            seen.add(s)
            s = pos[s]
    return count


def closure_degree_error(strands: int, letters: tuple[int, ...], terms) -> str | None:
    """Check the shape every closure polynomial has: the lowest z power is
    1 - mu (mu components), all degrees share the parity of 1 - mu, and the
    v degrees lie within writhe -/+ (strands - 1) (Morton-Franks-Williams)."""
    if not terms:
        return "zero polynomial"
    mu = components(strands, letters)
    writhe = sum(1 if x > 0 else -1 for x in letters)
    vdeg = [a for a, _ in terms]
    zdeg = [b for _, b in terms]
    if min(zdeg) != 1 - mu:
        return "lowest z degree %d, want %d" % (min(zdeg), 1 - mu)
    if any((d - 1 + mu) % 2 for d in vdeg + zdeg):
        return "degree parity differs from %d components" % mu
    if min(vdeg) < writhe - strands + 1 or max(vdeg) > writhe + strands - 1:
        return "v degrees %d..%d outside the braid bound" % (min(vdeg), max(vdeg))
    return None


# -- fixtures --------------------------------------------------------------------


def parse_golden(text: str) -> list[dict]:
    """Vectors of ``fixtures/golden.dat``: name, braid text, poly text."""
    out: list[dict] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        if key == "vector":
            out.append({"name": rest.strip()})
        elif key in ("braid", "poly"):
            out[-1][key] = rest.strip()
    return out


def parse_braid_text(text: str) -> tuple[int, tuple[int, ...]]:
    """``BR[n, {a, b, ...}]`` as (n, letters)."""
    m = re.fullmatch(r"\s*BR\[\s*(\d+)\s*,\s*\{([-\d,\s]*)\}\s*\]\s*", text)
    if m is None:
        raise ValueError("not a braid word: %r" % text)
    letters = tuple(int(t) for t in m.group(2).split(",") if t.strip())
    return int(m.group(1)), letters


def expected_table1(kb_text: str) -> list[str]:
    """The report line ``cbound table1`` must print for each record when
    every cell matches: name, the three expected cells, the stated chi
    values, in knowledge-base order."""
    records: list[dict] = []
    for raw in kb_text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            continue
        cut = line.find(" #")
        if cut >= 0:
            line = line[:cut].rstrip()
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "link":
            records.append({"name": parts[1], "expect": {}, "chi_s": "-", "chi_minus": "-"})
        elif parts[0] == "expect":
            letters = parts[3] if len(parts) > 3 else "-"
            if letters != "-":
                letters = ",".join(sorted(set(letters.split(","))))
            records[-1]["expect"][parts[1]] = (parts[2], letters)
        elif parts[0] in ("chi_s", "chi_minus"):
            records[-1][parts[0]] = parts[1]
    lines = []
    for rec in records:
        cols = []
        for cls in CLASSES:
            verdict, letters = rec["expect"][cls]
            cols.append("%s %s (%s) ok" % (cls, verdict, letters))
        chi = [
            "chi_s -" if rec["chi_s"] == "-" else "chi_s %s ok" % rec["chi_s"],
            "chi_s^- -" if rec["chi_minus"] == "-" else "chi_s^- %s ok" % rec["chi_minus"],
        ]
        lines.append("%-12s %s | %s" % (rec["name"], " | ".join(cols), " | ".join(chi)))
    return lines
