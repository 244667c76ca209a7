"""Independent routes that the tests check cbound's invariants against.

None of these is used by a command: each one reaches a known answer by a
second way (reflecting a diagram, reversing one component, evaluating the
skein polynomial at a point) so that a test can compare the two.
"""

from cbound.diagrams import Crossing, Diagram, _component_of_arc
from cbound.homfly import LaurentPoly2


def mirror_diagram(d: Diagram) -> Diagram:
    out = [(oi, oo, ui, uo, -s) for ui, uo, oi, oo, s in d.crossings]
    return Diagram(out, [list(c) for c in d.components], d.free_loops)


def reverse_component(d: Diagram, idx: int) -> Diagram:
    """Reverse the orientation of a single component."""
    where = _component_of_arc(d)
    out: list[Crossing] = []
    for ui, uo, oi, oo, s in d.crossings:
        under_in = where[ui] == idx
        over_in = where[oi] == idx
        if under_in and over_in:
            out.append((uo, ui, oo, oi, s))
        elif under_in:
            out.append((uo, ui, oi, oo, -s))
        elif over_in:
            out.append((ui, uo, oo, oi, -s))
        else:
            out.append((ui, uo, oi, oo, s))
    comps = [list(reversed(c)) if i == idx else list(c) for i, c in enumerate(d.components)]
    return Diagram(out, comps, d.free_loops)


def evaluate(p: LaurentPoly2, v: complex, z: complex) -> complex:
    tot = 0j
    for (a, b), c in p.terms.items():
        tot += c * v**a * z**b
    return tot


def determinant_from_poly(p: LaurentPoly2) -> int:
    """|P(1, 2i)|, which matches the link determinant; the value of a
    Laurent polynomial at v=1, z=2i is a Gaussian integer."""
    val = evaluate(p, 1, 2j)
    out = abs(val)
    r = round(out)
    if abs(out - r) > 1e-6:
        raise ValueError("determinant evaluation drifted: %r" % val)
    return int(r)
