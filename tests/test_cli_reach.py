"""What the command line never runs.

Every function and method of the package, found by ``ast``, is matched
to the code objects that ``cli.run`` enters, recorded with
``sys.setprofile`` call events.  The inputs are the built-in examples,
an emitted random corpus, CRLF and commented, re-indented copies of
some of them, seeded byte mutations of the fuzz sources, the pinned
refusals of ``tests/test_cli.py`` and the committed fan scripts, run
through every command.  Tier-1 as a whole runs every line of the
package but ``cli.main``'s body; this map shows what only the tests
reach.  What the commands never enter must be on a list grouped by
reason, so a function the command line stops reaching, or a new one it
never reaches, is a change someone has to decide on.
"""

import ast
import io
import sys
from pathlib import Path

from isbbrauer import cli, dsl, model, toric
from isbbrauer.sampling import random_corpus

from test_cli import CONFIG_REFUSALS, FAN_REFUSALS
from test_fuzz import CONFIG_SOURCES, Seeded, mutate

PACKAGE = Path(model.__file__).parent
FANS = Path(__file__).parent / "fans"


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
    return [text.encode() for text in texts] + list(CONFIG_SOURCES) + mutants + refusals


def fan_inputs() -> list[bytes | None]:
    return [path.read_bytes() for path in sorted(FANS.glob("*.fan"))] + [
        data for data, *_ in FAN_REFUSALS.values()
    ]


FILE = object()  # stands for the path of the input in a command line


def entered_code(tmp_path) -> set[tuple[str, int, str]]:
    """File, first line and name of each code object that ``cli.run`` enters."""
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
    path = tmp_path / "input"
    for argv, data in runs:
        path.unlink(missing_ok=True)
        if data is not None:
            path.write_bytes(data)
        out = io.StringIO()
        sys.setprofile(profile)
        try:
            cli.run([str(path) if arg is FILE else arg for arg in argv], out, out)
        finally:
            sys.setprofile(None)
    return {(code.co_filename, code.co_firstlineno, code.co_name) for code in entered}


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
    # ``validate`` on a configuration built in Python: the parser refuses
    # an empty or repeated id before structural validation sees it.
    "model.py:_id_clash",
}


def test_what_the_cli_never_enters_is_listed(tmp_path):
    defined = functions()
    entered = entered_code(tmp_path)
    unentered = {name for key, name in defined.items() if key not in entered}
    assert unentered == UNENTERED_ALLOWED
