"""Mutation fuzz of the command line: every input ends in an exit code.

The built-in configuration sources, one source with ``mark:``, ``cores:``
and ``meets_marked:`` lines, and two fan scripts are mutated at the byte
level (deletions, insertions of bytes or of format keywords, swapped
and duplicated lines) and run through ``cli.run`` as ``validate``,
``compute`` and ``toric check``.  Nothing may raise, and the exit code
must be one of 0 (ok), 1 (invalid), 2 (parse error) and 3 (usage).
"""

import io
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isbbrauer import cli, dsl

# A valid configuration with the lines no built-in source has: a Type IV
# curve's mark, a ramified curve's cores residue and an IV_II point's
# meets_marked.
MARKED_SOURCE = b"""\
cover: irreducible
symbols: a b

curve ramline:
  type: III
  cover: ramified
  ext ramline_t: a
  cores: a

curve conic:
  type: II
  cover: split
  ext conic_1: a
  ext conic_2: b

curve quad:
  type: IV
  cover: split
  ext quad_m: b
  ext quad_o: 0
  mark: quad_m

point z0:
  curves: conic, quad
  etype: IV_II
  meets_marked: conic_1
"""

CONFIG_SOURCES = tuple(dsl.builtin_source(name).encode() for name in dsl.BUILTIN_NAMES) + (MARKED_SOURCE,)

FAN_SOURCES = (
    b"ray 1 0 0 0\nray 1 2 0 0\ncone 0 1\nsubdivide 1 1 0 0\n",
    # The uv = xyz cone and the three subdivisions that resolve it.
    b"ray 1 0 0 0\nray 0 1 0 0\nray 1 0 1 0\nray 0 1 1 0\nray 1 0 0 1\nray 0 1 0 1\n"
    b"cone 0 1 2 3 4 5\nsubdivide 1 1 0 1\nsubdivide 1 1 1 0\nsubdivide 1 1 1 1\n",
)

TOKENS = (
    b"symbols:", b"cover:", b"curve", b"point", b"type:", b"ext", b"etype:", b"curves:",
    b"mark:", b"cores:", b"meets_marked:", b"sheet=", b"irreducible", b"split", b"inert",
    b"ramified", b"I", b"II", b"III", b"IV", b"I_II", b"II_II", b"III_II", b"IV_II", b"IVp_IV",
    b"IVpp_IV", b"0", b"a+b", b",", b":", b"#", b"\n", b"  ", b"ray", b"cone", b"subdivide",
    b"-1", b"2", b"7", b"99999999999", b"\xff", b"\xc3",
)

EXIT_CODES = {cli.OK, cli.INVALID, cli.PARSE_ERROR, cli.USAGE}


def mutate(data: bytes, pick) -> bytes:
    """``data`` after one to four byte-level mutations chosen by ``pick``.

    ``pick.integer(lo, hi)`` returns an integer in ``lo..hi`` inclusive,
    ``pick.element(seq)`` one item of ``seq`` and ``pick.binary(lo, hi)``
    a byte string of ``lo..hi`` bytes.
    """
    for _ in range(pick.integer(1, 4)):
        op = pick.element(("delete", "insert", "token", "swap", "duplicate"))
        at = pick.integer(0, len(data))
        if op == "delete":
            data = data[:at] + data[at + pick.integer(1, 12):]
        elif op == "insert":
            data = data[:at] + pick.binary(1, 6) + data[at:]
        elif op == "token":
            data = data[:at] + pick.element(TOKENS) + data[at:]
        else:
            lines = data.split(b"\n")
            i = pick.integer(0, len(lines) - 1)
            j = pick.integer(0, len(lines) - 1)
            if op == "swap":
                lines[i], lines[j] = lines[j], lines[i]
            else:
                lines.insert(j, lines[i])
            data = b"\n".join(lines)
    return data


class Draws:
    """``mutate``'s choices drawn by Hypothesis, so a failure shrinks."""

    def __init__(self, draw):
        self.draw = draw

    def integer(self, lo: int, hi: int) -> int:
        return self.draw(st.integers(min_value=lo, max_value=hi))

    def element(self, seq):
        return self.draw(st.sampled_from(seq))

    def binary(self, lo: int, hi: int) -> bytes:
        return self.draw(st.binary(min_size=lo, max_size=hi))


class Seeded:
    """``mutate``'s choices from a seeded ``random.Random``: a fixed corpus."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def integer(self, lo: int, hi: int) -> int:
        return self.rng.randint(lo, hi)

    def element(self, seq):
        return seq[self.rng.randrange(len(seq))]

    def binary(self, lo: int, hi: int) -> bytes:
        return self.rng.randbytes(self.rng.randint(lo, hi))


@st.composite
def mutated(draw, sources: tuple[bytes, ...]) -> bytes:
    return mutate(draw(st.sampled_from(sources)), Draws(draw))


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def run_on(path, data: bytes, argv: list[str]) -> int:
    path.write_bytes(data)
    return cli.run(argv + [str(path)], io.StringIO(), io.StringIO())


FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def test_the_unmutated_sources_are_accepted(input_path):
    for data in CONFIG_SOURCES:
        assert run_on(input_path, data, ["compute"]) == cli.OK
    for data in FAN_SOURCES:
        assert run_on(input_path, data, ["toric", "check"]) == cli.OK


@FUZZ
@given(data=mutated(CONFIG_SOURCES))
def test_mutated_configurations_end_in_an_exit_code(input_path, data):
    for command in (["validate"], ["compute"], ["compute", "--json"]):
        assert run_on(input_path, data, command) in EXIT_CODES


@FUZZ
@given(data=mutated(FAN_SOURCES))
def test_mutated_fan_scripts_end_in_an_exit_code(input_path, data):
    assert run_on(input_path, data, ["toric", "check"]) in EXIT_CODES
