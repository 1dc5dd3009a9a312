"""``scripts/oracle_sweep.py`` as CI runs it: its exits and what a mismatch prints.

A sweep of no configurations checks nothing, so argparse refuses a count
below 1.  A disagreement with the brute-force oracle or with the rule
oracle, or a check the rule oracle fails, each forced here by a stand-in
oracle, exits 1 and writes the failing configuration in the text format,
which the calculator reads back as the sampled value.
"""

import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from isbbrauer import cli, dsl
from isbbrauer.sampling import random_configuration

SCRIPT = Path(__file__).parents[1] / "scripts" / "oracle_sweep.py"
TESTS = Path(__file__).parent
ENV = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}


def sweep(*argv: str, prelude: str = "") -> subprocess.CompletedProcess:
    """The script in a process of its own, after ``prelude`` has run there."""
    code = f"import runpy, sys\n{prelude}sys.argv = sys.argv[1:]\nrunpy.run_path(sys.argv[0], run_name='__main__')\n"
    return subprocess.run(
        [sys.executable, "-c", code, str(SCRIPT), *argv], capture_output=True, text=True, env=ENV, timeout=60
    )


@pytest.mark.parametrize("count", ["0", "-1"])
def test_a_count_below_one_is_refused(count):
    done = sweep("--count", count)
    assert done.returncode == 2
    assert done.stdout == ""
    assert f"argument --count: must be at least 1, got {count}" in done.stderr


# Each stand-in, as the prelude that installs it, and the end of the
# MISMATCH line it makes.  The rule oracle lives in ``tests/``.
WRONG_ORACLES = {
    "brute force": (
        "import isbbrauer.brauer\nisbbrauer.brauer.brute_force_unramified = lambda cfg: (-1, -1)\n",
        " brute_force=(-1, -1)",
    ),
    "rule oracle": (
        "import rule_oracle\nrule_oracle.rule_oracle = lambda cfg: (-1, -1)\n",
        " rule_oracle=(-1, -1)",
    ),
    "rule oracle check": (
        "import rule_oracle\n"
        "def failing(cfg):\n"
        "    raise AssertionError('a Q column is not in the kernel of m_pr')\n"
        "rule_oracle.rule_oracle = failing\n",
        " rule_oracle=failed check (a Q column is not in the kernel of m_pr)",
    ),
}


def test_a_mismatch_exits_1_with_the_configuration_as_text(tmp_path):
    sampled = random_configuration(random.Random(7))
    for prelude, tail in WRONG_ORACLES.values():
        done = sweep("--count", "3", "--seed", "7", prelude=f"sys.path.insert(0, {str(TESTS)!r})\n{prelude}")
        assert done.returncode == 1
        assert done.stdout == ""
        head, text = done.stderr.split("\n", 1)
        assert head.startswith("MISMATCH at sample 0: ") and head.endswith(tail)
        assert text == dsl.emit(sampled)
        assert dsl.parse(text) == sampled
        path = tmp_path / "mismatch.cfg"
        path.write_text(text)
        assert cli.run(["compute", str(path)], io.StringIO(), io.StringIO()) == cli.OK
