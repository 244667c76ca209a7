import pathlib

import pytest

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per acceptance criterion at the end of the run."""
    lines = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid or "test_criterion" not in nodeid:
                continue
            if getattr(rep, "when", "call") != "call" and status == "passed":
                continue
            name = nodeid.split("::")[-1]
            lines.append((name, "PASS" if status == "passed" else "FAIL"))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, verdict in sorted(set(lines)):
            terminalreporter.write_line("%-55s %s" % (name, verdict))


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture(scope="session")
def golden_vectors(fixtures_dir):
    """The four seed links with their verified polynomials and linking
    matrices, parsed from fixtures/golden.dat; the polynomials are read by
    Python's own parser, not by cbound's."""
    from cbound.notation import parse_braid
    from oracles import read_poly

    out = {}
    cur = None
    for raw in (fixtures_dir / "golden.dat").read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "vector":
            cur = {"name": rest}
            out[rest] = cur
        elif key == "braid":
            cur["braid"] = parse_braid(rest)
        elif key == "poly":
            cur["poly"] = read_poly(rest)
        elif key == "lk":
            cur["lk"] = [[int(x) for x in row.split(",")] for row in rest.split()]
    assert len(out) == 4
    return out
