"""What the command line never runs, and which diagnostic codes it never prints.

Every function and method of the package, found by ``ast``, is matched
to the code objects that ``cli.run`` enters, recorded with
``sys.setprofile`` call events.  The inputs are the built-in examples,
an emitted random corpus, CRLF and commented, re-indented copies of
some of them, seeded byte mutations of the fuzz sources, the pinned
refusals of ``tests/test_cli.py``, one committed input per diagnostic
code that the others miss (``tests/diagnostics``) and the committed fan
scripts, run through every command.  Tier-1 as a whole runs every line
of the package but ``cli.main``'s body; this map shows what only the
tests reach.  What the commands never enter must be on a list grouped by
reason, so a function the command line stops reaching, or a new one it
never reaches, is a change someone has to decide on.  The same holds for
each code that ``model`` emits, found by ``ast`` from its
``Diagnostic("...")`` calls: some command's output shows it, or it is on
a list of codes only a configuration built in Python reaches.
"""

import ast
import io
import re
import sys
from pathlib import Path

import pytest

from isbbrauer import cli, dsl, model, toric
from isbbrauer.sampling import random_corpus

from test_cli import CONFIG_REFUSALS, FAN_REFUSALS
from test_fuzz import CONFIG_SOURCES, Seeded, mutate

PACKAGE = Path(model.__file__).parent
FANS = Path(__file__).parent / "fans"
# One input per diagnostic code that no other input shows, named after
# the code in lower case.
DIAGNOSTICS = Path(__file__).parent / "diagnostics"


def functions() -> dict[tuple[str, int, str], str]:
    """Each function and method of the package, keyed as its code object
    names it: file, first line and name.  A decorated function's code
    starts at its first decorator, not at its ``def``."""
    found = {}

    def visit(node: ast.AST, path: Path, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dotted = f"{owner}.{child.name}" if owner else child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[str(path), first, child.name] = f"{path.name}:{dotted}"
                visit(child, path, dotted)
            else:
                visit(child, path, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, "")
    return found


def non_canonical(text: str) -> str:
    """``text`` with CRLF line ends, a comment inside each block and
    four-space indentation, so every block is read line by line."""
    lines = []
    for line in text.splitlines():
        if line.startswith("  "):
            line = "  " + line
        lines.append(line)
        if line.startswith(("curve ", "point ")):
            lines.append("    # inside the block")
    return "\r\n".join(lines) + "\r\n"


def config_inputs() -> list[bytes | None]:
    """Every configuration input; None stands for a missing file."""
    builtins = [dsl.builtin_source(name) for name in dsl.BUILTIN_NAMES]
    corpus = [dsl.emit(cfg) for cfg in random_corpus(0, 100)]
    texts = builtins + corpus + [non_canonical(text) for text in builtins + corpus[:20]]
    pick = Seeded(4040)
    mutants = [mutate(pick.element(CONFIG_SOURCES), pick) for _ in range(100)]
    refusals = [data for data, *_ in CONFIG_REFUSALS.values()]
    diagnostics = [path.read_bytes() for path in sorted(DIAGNOSTICS.glob("*.cfg"))]
    return [text.encode() for text in texts] + list(CONFIG_SOURCES) + mutants + refusals + diagnostics


def fan_inputs() -> list[bytes | None]:
    return [path.read_bytes() for path in sorted(FANS.glob("*.fan"))] + [
        data for data, *_ in FAN_REFUSALS.values()
    ]


FILE = object()  # stands for the path of the input in a command line


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory) -> tuple[set[tuple[str, int, str]], str]:
    """File, first line and name of each code object that ``cli.run``
    enters on every input, and all that the runs wrote."""
    runs = [([*command[:1], FILE, *command[1:]], data)
            for data in config_inputs()
            for command in (["validate"], ["compute"], ["compute", "--json"], ["explain"])]
    runs += [(["toric", "check", FILE], data) for data in fan_inputs()]
    runs += [(argv, None) for argv in (
        ["toric", "demo"],
        ["example", "hpt"],
        ["example", "hpt", "--emit"],
        ["example", "nowhere"],
        ["--help"],
        ["frobnicate"],
    )]

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    # A process starts with no duals cached; earlier tests may have filled
    # the cache, and a hit enters none of the functions behind it.
    toric._dual_rays.cache_clear()
    path = tmp_path_factory.mktemp("reach") / "input"
    out = io.StringIO()
    for argv, data in runs:
        path.unlink(missing_ok=True)
        if data is not None:
            path.write_bytes(data)
        sys.setprofile(profile)
        try:
            cli.run([str(path) if arg is FILE else arg for arg in argv], out, out)
        finally:
            sys.setprofile(None)
    return {(code.co_filename, code.co_firstlineno, code.co_name) for code in entered}, out.getvalue()


# Functions and methods of the package that no command enters on these
# inputs, each kept for the reason given.
UNENTERED_ALLOWED = {
    # Called once at import, to build the parser's patterns.
    "dsl.py:_alternatives",
    "dsl.py:_ext_line",
    # The console script's entry point; tests/test_cli.py runs it in
    # subprocesses.
    "cli.py:main",
    # Public API that no command calls: the brute-force oracle, the lift
    # of one vector, the emitter and the parsed built-ins, the random
    # configurations, and the value types' own arithmetic and
    # conveniences.  perfbench's workloads and tracer name ``rref``,
    # ``matrix_p_to_r``, ``ramification_lift``, ``cores_residue``,
    # ``vp_basis`` and ``random_configuration``.
    "brauer.py:brute_force_unramified",
    "brauer.py:matrix_p_to_r",
    "brauer.py:ramification_lift",
    "dsl.py:builtin",
    "dsl.py:emit",
    "dsl.py:emit.residue",
    "dsl.py:_id",
    "f2.py:F2Vector.__add__",
    "f2.py:_check_len",
    "f2.py:F2Vector.is_zero",
    "f2.py:F2Vector.support",
    "f2.py:rref",
    "model.py:ResidueClass.__add__",
    "model.py:ResidueClass.of",
    "model.py:SingularPoint.__new__",
    "model.py:ValidationReport.ok",
    "model.py:cores_residue",
    "model.py:vp_basis",
    "sampling.py:_draw",
    "sampling.py:_random_class",
    "sampling.py:random_configuration",
    "sampling.py:random_corpus",
    "toric.py:SmoothnessReport.__bool__",
    # A vector's own text form: both report formats write vectors and
    # matrix rows through ``cli._Cells``, which formats its dense rows
    # itself.
    "f2.py:F2Vector.__str__",
    "f2.py:bit_string",
    # ``validate`` on a configuration built in Python: the parser refuses
    # an empty or repeated id before structural validation sees it.
    "model.py:_id_clash",
}


def test_what_the_cli_never_enters_is_listed(cli_runs):
    defined = functions()
    entered, _ = cli_runs
    unentered = {name for key, name in defined.items() if key not in entered}
    assert unentered == UNENTERED_ALLOWED


def emitted_codes() -> set[str]:
    """Each code of a ``Diagnostic`` call in ``model``; every such call names its code as a literal."""
    tree = ast.parse((PACKAGE / "model.py").read_text())
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Diagnostic"
    ]
    assert all(isinstance(call.args[0], ast.Constant) for call in calls)
    return {call.args[0].value for call in calls}


# Codes that only ``validate`` on a configuration built in Python
# reaches: the parser refuses each input that would show them, with a
# position and exit 2, before structural validation runs.
LIBRARY_ONLY_CODES = {
    "DUP_ID",  # an empty or repeated id or symbol
    "SYMBOLS",  # an empty symbol name: the parser splits symbols on spaces
    "RESIDUE_SYMBOLS",  # a residue or cores residue with an undeclared symbol
    "BAD_REF",  # a point naming an unknown curve
}


def test_each_diagnostic_code_shows_on_the_command_line_or_is_listed(cli_runs):
    _, written = cli_runs
    shown = set(re.findall(r"\[([A-Z][A-Z0-9_]*)\] ", written))
    assert emitted_codes() - shown == LIBRARY_ONLY_CODES


@pytest.mark.parametrize("path", sorted(DIAGNOSTICS.glob("*.cfg")), ids=lambda path: path.stem)
def test_each_diagnostic_input_shows_its_code(path):
    out = io.StringIO()
    assert cli.run(["validate", str(path)], out, out) == cli.INVALID
    assert f"[{path.stem.upper()}] " in out.getvalue()
