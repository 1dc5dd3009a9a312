"""One owner for the spaces of a configuration.

``model._build_spaces`` builds the bases and maps of P, Q, R and S, the
only way to them, and ``model._checked`` is its one caller, after
structural validation found no error; validation, the computation, the
lift, the brute-force oracle and the one-line reader ``matrix_p_to_r``
all read what it builds, and they agree with the report.  ``vp_basis``
reads P off the curves and agrees with the spaces.  ``model`` needs
nothing from ``brauer``; no module of the package imports lazily or
names the Gauss-Jordan ``rref``, a test module or a helper of
``tests/toric_reference.py``, no function of the package takes a
parameter it never reads, every function and class of it but a listed
few is named by its own code, every field of ``model._Spaces`` is read
somewhere in it, no module of it holds an ``assert`` statement, and
importing the CLI loads none of ``dataclasses``, ``inspect``,
``typing`` and ``contextlib``.  S is pinned, on structurally valid
input, to the label-then-vector construction it replaced; a curve that
repeats or lacks a sheet is refused before the spaces are built."""

import ast
import random
import re
import subprocess
import sys
from pathlib import Path

from isbbrauer import brauer, dsl, model, sampling
from isbbrauer.model import (
    Configuration,
    CoverBehavior,
    CoverKind,
    Curve,
    CurveType,
    Extension,
    ResidueClass,
    vp_basis,
)

from f2_reference import columns
from rule_oracle import reference_s

PACKAGE = Path(model.__file__).parent


# --- no lazy import ----------------------------------------------------------


def test_every_import_is_at_module_level():
    late = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = set(map(id, tree.body))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top:
                late.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
                late.append(f"{path.name}:{node.lineno} TYPE_CHECKING")
    assert late == []


# Parameters no caller needs, each kept for the reason given.
UNREAD_ALLOWED = {
    # ``run`` calls every command as ``func(args, out)``; ``toric demo``
    # takes no arguments.
    ("cli.py", "_cmd_toric_demo", "args"),
    # perfbench's workloads call ``model.cores_residue(cfg, c)``.
    ("model.py", "cores_residue", "cfg"),
}


def test_every_parameter_is_read():
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            unread |= {(path.name, name, p) for p in params if p not in read}
    assert unread == UNREAD_ALLOWED


# Functions and classes that no code of the package names, each kept for
# the reason given.
UNNAMED_ALLOWED = {
    # perfbench's workloads and tracer name them.
    ("f2.py", "rref"),
    ("brauer.py", "matrix_p_to_r"),
    ("model.py", "cores_residue"),
    ("sampling.py", "random_corpus"),
    # Public API of the value types.
    ("f2.py", "F2Vector.support"),
    ("model.py", "ResidueClass.of"),
    ("model.py", "ValidationReport.ok"),
}


def definitions(tree: ast.Module) -> list[tuple[str, str, bool]]:
    """Each function and class of a module: its dotted name, its name and
    whether it is defined in a class body."""
    found = []

    def visit(node: ast.AST, owner: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dotted = f"{owner}.{child.name}" if owner else child.name
                found.append((dotted, child.name, in_class))
                visit(child, dotted, isinstance(child, ast.ClassDef))
            else:
                visit(child, owner, in_class)

    visit(tree, "", False)
    return found


def test_every_function_and_class_is_named_in_the_package():
    # What only the tests call has no place in the product.  A name counts
    # where its own module uses it, where another imports it or reads it
    # off its module, and, for a method, wherever an attribute of that
    # name is used.  Dunder methods are called by Python itself.
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    named = set()  # (module, name); ("", name) for any attribute
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add((stem, node.id))
            elif isinstance(node, ast.Attribute):
                named.add(("", node.attr))
                if isinstance(node.value, ast.Name):
                    named.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module:
                named |= {(node.module.rpartition(".")[2], alias.name) for alias in node.names}
    unnamed = {
        (f"{stem}.py", dotted)
        for stem, tree in trees.items()
        for dotted, name, method in definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and ("" if method else stem, name) not in named
    }
    assert unnamed == UNNAMED_ALLOWED


def test_every_field_of_the_spaces_is_read():
    # A field that no code of the package reads is dead weight on every
    # build.  ``_spaces``, which fills the fields, does not count as a reader.
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        skipped = {
            id(n)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_spaces"
            for n in ast.walk(node)
        }
        read |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in skipped
        }
    assert set(model._Spaces._fields) - read == set()


def calls_by_function(path: Path, name: str) -> list[str]:
    """The innermost enclosing function of each call of ``name`` in a module."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            if getattr(callee, "id", None) == name or getattr(callee, "attr", None) == name:
                found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_the_spaces_are_built_only_after_structural_validation():
    # ``_build_spaces`` trusts its input to be structurally valid: its one
    # call is in ``model._checked``, after ``_structural_diagnostics``
    # found no error.
    calls = [
        (path.name, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for function in calls_by_function(path, "_build_spaces")
    ]
    assert calls == [("model.py", "_checked")]


def test_no_check_of_the_package_is_an_assert_statement():
    # ``python -O`` strips ``assert``; a guard of the package raises.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def mentioned_names(path: Path) -> set[str]:
    """Every variable, attribute and imported module or name in a module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.update(node.module.split("."))
    return found


def test_reference_code_stays_out_of_the_product():
    # The Gauss-Jordan rref and the test helpers are references: the
    # package must not run them, and the references must not run the
    # elimination they check.
    tests = Path(__file__).parent
    test_modules = {path.stem for path in tests.glob("*.py")}
    assert "f2_reference" in test_modules
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "f2.py":
            assert mentioned_names(path) & ({"rref", "Rref"} | test_modules) == set(), path.name
    reference = mentioned_names(tests / "f2_reference.py")
    assert "rref" in reference
    assert reference & {"kernel_basis", "_insert"} == set()
    # The lattice-geometry references the CLI never runs, and what left
    # the package because only the tests ran it: not even a comment or
    # docstring of the package names them.
    assert "toric_reference" in test_modules
    moved = re.compile(
        r"hilbert_basis|dual_generators|intersection_cone|fan_intersections_are_faces|_BOX_CAP"
        r"|support_contains|report_json|_set_bits|_symbol_positions"
    )
    for path in sorted(PACKAGE.glob("*.py")):
        assert moved.findall(path.read_text()) == [], path.name


def test_model_validates_without_brauer():
    # The package's __init__ imports brauer for its exports, so the
    # package is stood in for by a bare module with the same path: only
    # model and what model itself imports get loaded.
    code = (
        "import sys, types\n"
        "pkg = types.ModuleType('isbbrauer')\n"
        "pkg.__path__ = [sys.argv[1]]\n"
        "sys.modules['isbbrauer'] = pkg\n"
        "import isbbrauer.model as m\n"
        "assert m.validate(m.Configuration(m.CoverKind.IRREDUCIBLE)).ok\n"
        "print(sorted(n for n in sys.modules if n.startswith('isbbrauer')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(PACKAGE)], capture_output=True, text=True, check=True
    )
    assert done.stdout.split("\n")[0] == str(["isbbrauer", "isbbrauer.f2", "isbbrauer.model"])


def test_the_cli_imports_no_dataclasses_inspect_typing_or_contextlib():
    # ``dataclasses`` costs start-up: it imports ``inspect`` (and with it
    # ``ast``, ``dis`` and ``tokenize``) and ``exec``s the methods of every
    # decorated class.  ``typing`` costs it too: importing it, and turning
    # each field annotation of a ``typing.NamedTuple`` into a
    # ``ForwardRef``.  The value types are ``collections.namedtuple``s, so
    # a fresh ``isbbrauer`` process loads none of the three.  Nothing else
    # the CLI imports loads ``contextlib``; argparse writes to the streams
    # of a ``run`` call through its own parser class, not by redirecting
    # the process's streams.
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import isbbrauer.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'typing', 'contextlib'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(PACKAGE.parent)], capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def test_the_cli_imports_no_json():
    # ``json`` and its submodules are loaded by nothing else the CLI
    # imports; the report's few strings, ints, label lists and small
    # dicts are laid out by ``cli._json_at``.
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import isbbrauer.cli\n"
        "print(sorted({'json', 'json.decoder', 'json.encoder', 'json.scanner', '_json'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(PACKAGE.parent)], capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


# --- built once per configuration -------------------------------------------


def test_spaces_are_built_once_per_configuration():
    # Each call builds the spaces it reads; ``cli.run`` builds them once
    # per command, which ``tests/test_spaces.py`` counts.
    cfg = dsl.builtin("hpt")
    assert model.validate(cfg).ok
    report = brauer.unramified_brauer(cfg)
    spaces = model._build_spaces(cfg)
    assert brauer.matrix_p_to_r(cfg) == report.m_pr
    assert spaces.m_qp == report.m_qp
    assert list(spaces.s_vectors) == columns(report.m_sp)
    for g in report.generators:
        assert brauer.ramification_lift(cfg, g.vector) == list(g.ramification)
    assert brauer.brute_force_unramified(cfg) == (report.kernel_dim, report.h2nr_dim)
    assert spaces.s_labels == report.s_labels


# --- S pinned to the construction it replaced --------------------------------


def assert_s_pinned(cfg: Configuration) -> bool:
    """Pin S, and P against ``vp_basis``, where structural validation
    passes, the only input ``_build_spaces`` is given; say whether it did."""
    if model._structural_diagnostics(cfg)[0]:
        return False
    spaces = model._build_spaces(cfg)
    assert (spaces.s_labels, spaces.s_vectors) == reference_s(cfg), cfg
    assert vp_basis(cfg) == list(spaces.vp)
    return True


def test_s_generators_match_reference_on_raw_draws():
    rng = random.Random(41)
    seen = set()
    invalid = 0
    for _ in range(500):
        cfg = sampling._draw(rng)
        # Every raw draw is structurally valid; many fail a GC check.
        assert assert_s_pinned(cfg)
        seen.add(model._build_spaces(cfg).s_labels)
        invalid += bool(model.validate(cfg).errors)
    assert seen == {(), ("cores(beta)",), ("beta_1",), ("beta_2",), ("beta_1", "beta_2")}
    assert invalid > 100


def irregular_sheets(rng: random.Random) -> Configuration:
    """A split configuration whose curves may repeat a sheet or lack one."""
    symbols = ("a", "b")
    curves = []
    for i in range(rng.randint(1, 4)):
        exts = tuple(
            Extension(
                f"c{i}e{j}",
                ResidueClass(frozenset(rng.sample(symbols, rng.randint(0, 2)))),
                rng.choice((1, 2, None)),
            )
            for j in range(rng.randint(0, 3))
        )
        curves.append(Curve(f"c{i}", CurveType.II, CoverBehavior.SPLIT, exts))
    return Configuration(CoverKind.SPLIT_EVERYWHERE, symbols, tuple(curves))


def test_s_generators_match_reference_on_irregular_sheets():
    # A curve that repeats or lacks a sheet is refused by structural
    # validation, so it never reaches ``_build_spaces``; S is pinned on
    # the draws whose every curve has one extension per sheet.
    rng = random.Random(42)
    refused = 0
    seen = set()
    for _ in range(2000):
        cfg = irregular_sheets(rng)
        errors = model._structural_diagnostics(cfg)[0]
        irregular = [c.id for c in cfg.curves if sorted(ext.sheet or 0 for ext in c.extensions) != [1, 2]]
        for cid in irregular:
            assert any(d.code in ("SHEET", "EXT_COUNT") and d.subject == cid for d in errors), (cid, errors)
        refused += bool(irregular)
        if not irregular:
            assert assert_s_pinned(cfg), cfg
            seen.add(model._build_spaces(cfg).s_labels)
    assert 1900 < refused < 2000
    assert seen == {(), ("beta_1",), ("beta_2",), ("beta_1", "beta_2")}
