"""Command-line interface.

A command writes only to ``out`` and raises on a refusal; ``run`` alone
prints its diagnostic to its ``err`` stream and returns its exit code:
0 success, 1 a configuration that fails validation or a fan script that
is not a fan, 2 a parse error or an input that is not UTF-8, 3 bad
arguments, an unreadable file or an unknown example.  argparse's usage
lines go to ``err`` and ``--help`` to ``out``, never to the process
streams.  ``main`` exits 141, as SIGPIPE would, when stdout is closed
early.  Output for fixed input bytes and arguments is byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import brauer, dsl, f2, model, toric

__all__ = ["run", "main", "report_json"]

OK = 0
INVALID = 1
PARSE_ERROR = 2
USAGE = 3
CLOSED_STDOUT = 141


def _json_at(value, level: int) -> str:
    """``json.dumps(value, indent=2)`` as it reads nested ``level`` deep."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * level)


def _json_block(brackets: str, items, level: int) -> str:
    """An array or object of rendered ``items``, laid out as ``indent=2`` does."""
    if not items:
        return brackets
    inner = "\n" + "  " * (level + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * level + brackets[1]


def report_json(r: brauer.BrauerReport) -> str:
    """Deterministic JSON for a report: fixed key order, integers only.

    The bytes of ``json.dumps(doc, indent=2)``, whose ``indent`` takes the
    pure-Python encoder through every matrix cell.  So each matrix row and
    generator vector is written from its mask, its bit string joined by
    one separator, and ``json.dumps`` lays out only the rest.
    """

    def bits(mask: int, length: int, level: int) -> str:
        return _json_block("[]", f2.bit_string(mask, length), level)

    def matrix(m: f2.F2Matrix) -> str:
        return _json_block("[]", [bits(row, m.cols, 2) for row in m.row_masks], 1)

    def generator(g: brauer.Generator) -> str:
        ramification = {cid: sorted(cls.symbols) for cid, cls in g.ramification}
        fields = [
            '"vector": ' + bits(g.vector.mask, g.vector.length, 3),
            '"ramification": ' + _json_at(ramification, 3),
        ]
        return _json_block("{}", fields, 2)

    fields = {
        "dims": _json_at(r.dims, 1),
        "p_labels": _json_at(list(r.p_labels), 1),
        "q_labels": _json_at(list(r.q_labels), 1),
        "r_labels": _json_at(list(r.r_labels), 1),
        "m_pr": matrix(r.m_pr),
        "m_qp": matrix(r.m_qp),
        "m_sp": matrix(r.m_sp),
        "generators": _json_block("[]", [generator(g) for g in r.generators], 1),
        "assertions": _json_at(dict(r.assertions), 1),
    }
    return _json_block("{}", [f'"{key}": {text}' for key, text in fields.items()], 0)


def _matrix_lines(m, row_labels, col_note: str) -> list[str]:
    if m.rows == 0 or m.cols == 0:
        return [f"  ({m.rows}x{m.cols}, {col_note})"]
    width = max(len(lbl) for lbl in row_labels)
    # Each row is its bit string with a space between entries: the digits
    # go to the even bytes of one reused buffer of spaces.
    spaced = bytearray(b" " * (2 * m.cols - 1))
    lines = []
    for lbl, mask in zip(row_labels, m.row_masks):
        spaced[::2] = f2.bit_string(mask, m.cols).encode()
        lines.append(f"  {lbl.ljust(width)}  [{spaced.decode()}]")
    return lines


def _format_report(r: brauer.BrauerReport, symbol_index: dict[str, tuple[int, ...]]) -> str:
    lines = []
    lines.append("dims:")
    for key in ("s", "p", "q", "r"):
        lines.append(f"  {key}: {r.dims[key]}")
    lines.append(f"kernel_dim: {r.kernel_dim}")
    lines.append(f"h2nr_dim: {r.h2nr_dim}")
    lines.append(f"p_basis: {', '.join(r.p_labels) or '(empty)'}")
    lines.append(f"q_basis: {', '.join(r.q_labels) or '(empty)'}")
    lines.append(f"r_basis: {', '.join(r.r_labels) or '(empty)'}")
    if r.s_labels:
        lines.append(f"s_generators: {', '.join(r.s_labels)}")
    lines.append("m_pr (rows R, cols P):")
    lines.extend(_matrix_lines(r.m_pr, r.r_labels, "no constraints"))
    lines.append("m_qp (rows P, cols Q):")
    lines.extend(_matrix_lines(r.m_qp, r.p_labels, "no relations"))
    if not r.generators:
        lines.append("generators: (none)")
    for i, g in enumerate(r.generators, start=1):
        lines.append(f"generator g{i}: {g.vector}")
        for cid, cls in g.ramification:
            lines.append(f"  ramified at {cid}: {cls.render(symbol_index)}")
    lines.append("assertions: " + ", ".join(f"{k}={v}" for k, v in r.assertions))
    return "\n".join(lines) + "\n"


def _print_validation(report: model.ValidationReport, stream) -> None:
    for title, found in (("errors", report.errors), ("warnings", report.warnings)):
        print(f"{title}:" if found else f"{title}: (none)", file=stream)
        for d in found:
            print(f"  [{d.code}] {d.subject}: {d.message}", file=stream)


class _Refusal(Exception):
    """A refusal that carries its exit code; its message is the diagnostic."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    """The file's text; a file that cannot be read or decoded raises ``_Refusal``.

    One leading byte order mark is dropped after decoding, so the offset
    of an invalid byte still counts from the start of the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except OSError as exc:
        raise _Refusal(USAGE, f"error: cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise _Refusal(PARSE_ERROR, f"{path}: input is not valid UTF-8 (byte offset {exc.start})") from None


def _cmd_validate(args, out) -> None:
    report = model.validate(dsl.parse(_read_text(args.file)))
    if report.errors:
        raise brauer.InvalidConfigurationError(report)
    _print_validation(report, out)
    print("result: ok", file=out)


def _compute_and_print(cfg: model.Configuration, as_json: bool, out) -> None:
    result = brauer.unramified_brauer(cfg)
    if as_json:
        print(report_json(result), file=out)
    else:
        print(_format_report(result, cfg.symbol_index), end="", file=out)


def _cmd_compute(args, out) -> None:
    _compute_and_print(dsl.parse(_read_text(args.file)), args.json, out)


def _cmd_explain(args, out) -> None:
    cfg = dsl.parse(_read_text(args.file))
    report = model.validate(cfg)
    if report.errors:
        raise brauer.InvalidConfigurationError(report)
    symbol_index = cfg.symbol_index
    for c in cfg.curves:
        behavior = c.cover_behavior.value
        print(f"curve {c.id} (type {c.deg_type.value}, {behavior}):", file=out)
        gens = brauer.residue_kernel(c)
        if gens:
            rendered = ", ".join(g.render(symbol_index) for g in gens)
            print(f"  local kernel generators: {rendered}", file=out)
        else:
            print("  local kernel generators: (none)", file=out)
        # 2-torsion setting: the odd-part injectivity means only these
        # residues can obstruct, which is why the local list is complete.
    description = brauer.restriction_kernel(cfg)
    print(f"restriction kernel (dim {len(cfg.spaces.s_labels)}): {description}", file=out)
    for d in report.warnings:
        print(f"note: [{d.code}] {d.subject}: {d.message}", file=out)


def _cmd_example(args, out) -> None:
    try:
        source = dsl.builtin_source(args.name)
    except ValueError as exc:
        raise _Refusal(USAGE, f"error: {exc}") from None
    if args.emit:
        print(source, end="", file=out)
    else:
        _compute_and_print(dsl.parse(source), False, out)


def _format_vec(v) -> str:
    return "(" + ",".join(map(str, v)) + ")"


def _format_rays(rays) -> str:
    return " ".join(map(_format_vec, rays))


def _cmd_toric_demo(args, out) -> None:
    report = toric.resolve_demo()
    print(f"cone: {_format_rays(report.cone.rays)}", file=out)
    print(f"singular faces: {len(report.singular)}", file=out)
    for f in report.singular:
        print(f"  dim {f.dim}: {_format_rays(f.rays)}", file=out)
    print(f"candidate rays: {_format_rays(report.candidates)}", file=out)
    for i, step in enumerate(report.steps, start=1):
        support = "preserved" if step.support_ok else "BROKEN"
        print(
            f"step {i}: subdivide at {_format_vec(step.ray)} -> {len(step.fan.maximal_cones)} maximal cones,"
            f" support {support} ({report.samples} samples)",
            file=out,
        )
    for cert in report.smoothness.certificates:
        print(f"  cone {_format_rays(cert.cone.rays)}: {cert.reason}", file=out)
    # resolve_demo raises unless the final fan is smooth
    print("smooth: true", file=out)


def _cmd_toric_check(args, out) -> None:
    script = toric.parse_fan_script(_read_text(args.file))
    fan = script.fan
    for lineno, ray in script.subdivisions:
        try:
            fan = toric.star_subdivide(fan, ray)
        except ValueError as exc:
            raise toric.FanScriptError(str(exc), lineno) from None
        print(f"subdivide {_format_vec(ray)} -> {len(fan.maximal_cones)} maximal cones", file=out)
    report = toric.is_smooth(fan)
    for cert in report.certificates:
        print(f"cone {_format_rays(cert.cone.rays)}: {cert.reason}", file=out)
    print(f"smooth: {'true' if report.smooth else 'false'}", file=out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isbbrauer",
        description="Unramified Brauer groups of simple involution surface bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a configuration file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("compute", help="compute the Brauer report for a file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("explain", help="per-curve local kernels and the restriction kernel")
    p.add_argument("file")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("example", help="run or emit a built-in example")
    p.add_argument("name", metavar="NAME", help=", ".join(dsl.BUILTIN_NAMES))
    p.add_argument("--emit", action="store_true", help="print the canonical source instead")
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("toric", help="toric resolution tools")
    tsub = p.add_subparsers(dest="toric_command", required=True)
    t = tsub.add_parser("demo", help="resolve the uv=xyz cone and certify smoothness")
    t.set_defaults(func=_cmd_toric_demo)
    t = tsub.add_parser("check", help="parse a fan file, apply subdivisions, report smoothness")
    t.add_argument("file")
    t.set_defaults(func=_cmd_toric_check)

    return parser


def run(argv: list[str] | None = None, out=None, err=None) -> int:
    """Execute the CLI; returns the exit status, the one place a refusal gets its code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        # argparse prints usage and help on the process streams
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage problems; our code 2
        # is reserved for input-file parse errors, so usage maps to 3.
        return OK if exc.code == 0 else USAGE
    try:
        args.func(args, out)
    except _Refusal as exc:
        print(exc, file=err)
        return exc.code
    except dsl.ConfigParseError as exc:
        # a built-in source always parses, so the input is args.file
        for diag in exc.diagnostics:
            print(f"{args.file}:{diag}", file=err)
        return PARSE_ERROR
    except toric.FanParseError as exc:
        print(f"{args.file}:{exc}", file=err)
        return PARSE_ERROR
    except toric.FanScriptError as exc:
        print(f"{args.file}: {exc}", file=err)
        return INVALID
    except brauer.InvalidConfigurationError as exc:
        _print_validation(exc.report, err)
        return INVALID
    return OK


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: point it at devnull so the flush at
        # exit cannot fail again, and end as a SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = CLOSED_STDOUT
    sys.exit(code)


if __name__ == "__main__":
    main()
