"""Command-line interface.

Exit codes: 0 success, 1 validation or semantic errors in an input
file, 2 parse errors (an input that is not UTF-8 included), 3 usage
errors.  All diagnostics go to stderr; output for fixed input bytes and
arguments is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import brauer, dsl, f2, model, toric

__all__ = ["run", "main", "report_json"]

OK = 0
INVALID = 1
PARSE_ERROR = 2
USAGE = 3


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
        if not g.ramification:
            lines.append("  unramified over every curve")
        for cid, cls in g.ramification:
            lines.append(f"  ramified at {cid}: {cls.render(symbol_index)}")
    lines.append("assertions: " + ", ".join(f"{k}={v}" for k, v in r.assertions))
    return "\n".join(lines) + "\n"


def _print_validation(report: model.ValidationReport, out, err) -> None:
    stream = err if report.errors else out
    for title, found in (("errors", report.errors), ("warnings", report.warnings)):
        print(f"{title}:" if found else f"{title}: (none)", file=stream)
        for d in found:
            print(f"  [{d.code}] {d.subject}: {d.message}", file=stream)


def _read_text(path: str, err) -> str | int:
    """The file's text, or the exit code after a diagnostic on stderr.

    One leading byte order mark is dropped after decoding, so the offset
    of an invalid byte still counts from the start of the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=err)
        return USAGE
    except UnicodeDecodeError as exc:
        print(f"{path}: input is not valid UTF-8 (byte offset {exc.start})", file=err)
        return PARSE_ERROR


def _load_config(path: str, err) -> model.Configuration | int:
    text = _read_text(path, err)
    if isinstance(text, int):
        return text
    try:
        return dsl.parse(text)
    except dsl.ConfigParseError as exc:
        for diag in exc.diagnostics:
            print(f"{path}:{diag}", file=err)
        return PARSE_ERROR


def _cmd_validate(args, out, err) -> int:
    cfg = _load_config(args.file, err)
    if isinstance(cfg, int):
        return cfg
    report = model.validate(cfg)
    _print_validation(report, out, err)
    if report.errors:
        return INVALID
    print("result: ok", file=out)
    return OK


def _compute_and_print(cfg: model.Configuration, as_json: bool, out, err) -> int:
    try:
        result = brauer.unramified_brauer(cfg)
    except brauer.InvalidConfigurationError as exc:
        _print_validation(exc.report, out, err)
        return INVALID
    if as_json:
        print(report_json(result), file=out)
    else:
        print(_format_report(result, cfg.symbol_index), end="", file=out)
    return OK


def _cmd_compute(args, out, err) -> int:
    cfg = _load_config(args.file, err)
    if isinstance(cfg, int):
        return cfg
    return _compute_and_print(cfg, args.json, out, err)


def _cmd_explain(args, out, err) -> int:
    cfg = _load_config(args.file, err)
    if isinstance(cfg, int):
        return cfg
    report = model.validate(cfg)
    if report.errors:
        _print_validation(report, out, err)
        return INVALID
    symbol_index = cfg.symbol_index
    for c in cfg.curves:
        behavior = c.cover_behavior.value
        print(f"curve {c.id} (type {c.deg_type.value}, {behavior}):", file=out)
        gens = brauer.residue_kernel(cfg, c)
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
    return OK


def _cmd_example(args, out, err) -> int:
    try:
        source = dsl.builtin_source(args.name)
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return USAGE
    if args.emit:
        print(source, end="", file=out)
        return OK
    return _compute_and_print(dsl.parse(source), False, out, err)


def _format_vec(v) -> str:
    return "(" + ",".join(map(str, v)) + ")"


def _format_rays(rays) -> str:
    return " ".join(map(_format_vec, rays))


def _cmd_toric_demo(args, out, err) -> int:
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
    print(f"smooth: {'true' if report.smoothness.smooth else 'false'}", file=out)
    return OK if report.smoothness.smooth else INVALID


def _cmd_toric_check(args, out, err) -> int:
    text = _read_text(args.file, err)
    if isinstance(text, int):
        return text
    try:
        script = toric.parse_fan_script(text)
    except toric.FanParseError as exc:
        print(f"{args.file}:{exc.line}:{exc.column}: {exc.message}", file=err)
        return PARSE_ERROR
    except toric.FanScriptError as exc:
        print(f"{args.file}: {exc}", file=err)
        return INVALID
    fan = script.fan
    for lineno, ray in script.subdivisions:
        try:
            fan = toric.star_subdivide(fan, ray)
        except ValueError as exc:
            print(f"{args.file}: line {lineno}: {exc}", file=err)
            return INVALID
        print(f"subdivide {_format_vec(ray)} -> {len(fan.maximal_cones)} maximal cones", file=out)
    report = toric.is_smooth(fan)
    for cert in report.certificates:
        print(f"cone {_format_rays(cert.cone.rays)}: {cert.reason}", file=out)
    print(f"smooth: {'true' if report.smooth else 'false'}", file=out)
    return OK


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
    """Execute the CLI; returns the exit status instead of raising."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage problems; our code 2
        # is reserved for input-file parse errors, so usage maps to 3.
        return OK if exc.code == 0 else USAGE
    return args.func(args, out, err)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
