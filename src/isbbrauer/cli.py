"""Command-line interface.

A command writes only to ``out`` and raises on a refusal; ``run`` alone
prints its diagnostic to its ``err`` stream and returns its exit code:
0 success, 1 a configuration that fails validation or a fan script that
is not a fan, 2 a parse error or an input that is not UTF-8, 3 bad
arguments, an unreadable file or an unknown example.  argparse's usage
lines go to ``err`` and ``--help`` to ``out``, never to the process
streams.  ``main`` exits 141, as SIGPIPE would, when stdout is closed
early.  Output for fixed input bytes and arguments is byte-identical.

A report is written to ``out`` as it is made, about one write per matrix
row, so a large report is never held whole.  It is written only after
the computation has passed every check, so a refused ``compute`` writes
nothing to ``out``.  An exception raised while the report is written
(an interrupt, a failed write, running out of memory) can leave part of
it on ``out``, so a caller trusts the output only when the exit code is 0.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import brauer, dsl, f2, model, toric

__all__ = ["run", "main"]

OK = 0
INVALID = 1
PARSE_ERROR = 2
USAGE = 3
CLOSED_STDOUT = 141


_JSON_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _json_str(s: str) -> str:
    """``json.dumps(s)``: ``s`` quoted and in ASCII, escaped as ``ensure_ascii`` does.

    The parser's ids and symbols are printable ASCII without ``"`` or
    ``\\``, so a parsed configuration's strings take the first return.
    """
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    out = ['"']
    for c in s:
        n = ord(c)
        if c in _JSON_ESCAPES:
            out.append(_JSON_ESCAPES[c])
        elif 0x20 <= n < 0x7F:
            out.append(c)
        elif n < 0x10000:
            out.append(f"\\u{n:04x}")
        else:  # above the BMP: a surrogate pair
            n -= 0x10000
            out.append(f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}")
    out.append('"')
    return "".join(out)


def _json_at(value, level: int) -> str:
    """``json.dumps(value, indent=2)`` as it reads nested ``level`` deep.

    ``value`` is a str, an int (not a bool), a list of str, or a dict
    from str to an int or a str: the only values a report holds outside
    its matrix rows and generator vectors.  So it is laid out here, not
    by ``json``, which the CLI does not import.
    """
    if isinstance(value, str):
        return _json_str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, dict):
        items = [_json_str(k) + ": " + _json_at(v, level + 1) for k, v in value.items()]
        return _json_block("{}", items, level)
    return _json_block("[]", [_json_str(s) for s in value], level)


def _json_block(brackets: str, items, level: int) -> str:
    """An array or object of rendered ``items``, laid out as ``indent=2`` does."""
    if not items:
        return brackets
    inner = "\n" + "  " * (level + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * level + brackets[1]


class _Cells:
    """Rows of ``cols`` 0/1 cells laid out as ``head + sep.join(cells) + tail``.

    The layout is built once, as a template of zeros in which cell ``k``
    is the byte at ``first + k * step``.  A row with few set bits costs a
    copy of the template and one byte per set bit, walked from the top
    bit down since the order is free; a denser one writes its bits,
    formatted as one binary string, into the strided slice.  ``head``,
    ``sep`` and ``tail`` are ASCII, so byte offsets are character offsets.
    """

    __slots__ = ("zeros", "cols", "first", "step", "stop", "sparse", "digits")

    def __init__(self, head: str, sep: str, tail: str, cols: int):
        self.zeros = (head + sep.join("0" * cols) + tail).encode()
        self.cols = cols
        self.first = len(head)
        self.step = len(sep) + 1
        self.stop = self.first + self.step * cols
        # Past about this many set bits, walking them costs more than
        # writing every cell from the bit string.  A row of width 0 is all
        # zeros and never reaches ``digits``, which writes at least one digit.
        self.sparse = min(cols >> 4, 8)
        self.digits = f"0{cols}b"

    def row(self, mask: int) -> str:
        cells = bytearray(self.zeros)
        if mask.bit_count() <= self.sparse:
            first, step = self.first, self.step
            while mask:
                t = mask.bit_length() - 1
                cells[first + step * t] = 49  # "1"
                mask ^= 1 << t
        else:
            # ``format`` writes the highest bit first, so the string is reversed.
            cells[self.first:self.stop:self.step] = format(mask, self.digits)[::-1].encode()
        return cells.decode()


def _json_cells(cols: int, level: int) -> _Cells:
    """JSON arrays of ``cols`` cells nested ``level`` deep, laid out as ``indent=2`` does."""
    if not cols:
        return _Cells("[]", "", "", 0)
    inner = "\n" + "  " * (level + 1)
    return _Cells("[" + inner, "," + inner, "\n" + "  " * level + "]", cols)


def _write_json(r: brauer.BrauerReport, write) -> None:
    """Write a report's JSON through ``write``, about one call per matrix row.

    The bytes are those of ``json.dumps(doc, indent=2)``, with a fixed key
    order, integers and strings only.  Each matrix row and generator
    vector is written from its mask by ``_Cells``; ``_json_at`` and
    ``_json_str`` lay out the rest (dims, labels, ramification, assertions)
    as ``json.dumps`` would, strings escaped as with ``ensure_ascii``.
    """
    write('{\n  "dims": ' + _json_at(r.dims, 1))
    for key, labels in (("p_labels", r.p_labels), ("q_labels", r.q_labels), ("r_labels", r.r_labels)):
        write(f',\n  "{key}": ' + _json_at(list(labels), 1))
    for key, m in (("m_pr", r.m_pr), ("m_qp", r.m_qp), ("m_sp", r.m_sp)):
        write(f',\n  "{key}": ')
        cells = _json_cells(m.cols, 2)
        lead = "[\n    "
        for mask in m.row_masks:
            write(lead)
            write(cells.row(mask))
            lead = ",\n    "
        write("\n  ]" if m.rows else "[]")
    write(',\n  "generators": ')
    rendered: dict[model.ResidueClass, str] = {}  # each distinct class rendered once
    cells = None
    lead = "[\n    "
    for g in r.generators:
        v = g.vector
        if cells is None or cells.cols != v.length:
            cells = _json_cells(v.length, 3)
        write(lead + '{\n      "vector": ')
        write(cells.row(v.mask))
        entries = []
        for cid, cls in dict(g.ramification).items():
            text = rendered.get(cls)
            if text is None:
                text = rendered[cls] = _json_at(sorted(cls.symbols), 4)
            entries.append(_json_str(cid) + ": " + text)
        write(',\n      "ramification": ' + _json_block("{}", entries, 3) + "\n    }")
        lead = ",\n    "
    write("\n  ]" if r.generators else "[]")
    write(',\n  "assertions": ' + _json_at(dict(r.assertions), 1) + "\n}")


def _write_matrix(m: f2.F2Matrix, row_labels, col_note: str, write) -> None:
    if m.rows == 0 or m.cols == 0:
        write(f"  ({m.rows}x{m.cols}, {col_note})\n")
        return
    width = max(map(len, row_labels))
    cells = _Cells("[", " ", "]\n", m.cols)
    for lbl, mask in zip(row_labels, m.row_masks):
        write(f"  {lbl.ljust(width)}  " + cells.row(mask))


def _write_report(r: brauer.BrauerReport, symbol_index: dict[str, int], write) -> None:
    """Write the text report through ``write``, about one call per matrix row."""
    dims = r.dims
    lines = ["dims:"]
    lines += [f"  {key}: {dims[key]}" for key in ("s", "p", "q", "r")]
    lines.append(f"kernel_dim: {r.kernel_dim}")
    lines.append(f"h2nr_dim: {r.h2nr_dim}")
    lines.append(f"p_basis: {', '.join(r.p_labels) or '(empty)'}")
    lines.append(f"q_basis: {', '.join(r.q_labels) or '(empty)'}")
    lines.append(f"r_basis: {', '.join(r.r_labels) or '(empty)'}")
    if r.s_labels:
        lines.append(f"s_generators: {', '.join(r.s_labels)}")
    lines.append("m_pr (rows R, cols P):\n")
    write("\n".join(lines))
    _write_matrix(r.m_pr, r.r_labels, "no constraints", write)
    write("m_qp (rows P, cols Q):\n")
    _write_matrix(r.m_qp, r.p_labels, "no relations", write)
    if not r.generators:
        write("generators: (none)\n")
    rendered: dict[model.ResidueClass, str] = {}  # each distinct class rendered once
    cells = None
    for i, g in enumerate(r.generators, start=1):
        v = g.vector
        if cells is None or cells.cols != v.length:
            cells = _Cells("(", ",", ")", v.length)
        lines = [f"generator g{i}: {cells.row(v.mask)}\n"]
        for cid, cls in g.ramification:
            text = rendered.get(cls)
            if text is None:
                text = rendered[cls] = cls.render(symbol_index)
            lines.append(f"  ramified at {cid}: {text}\n")
        write("".join(lines))
    write("assertions: " + ", ".join(f"{k}={v}" for k, v in r.assertions) + "\n")


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
        _write_json(result, out.write)
        out.write("\n")
    else:
        _write_report(result, cfg.symbol_index, out.write)


def _cmd_compute(args, out) -> None:
    _compute_and_print(dsl.parse(_read_text(args.file)), args.json, out)


def _describe_s(cover_kind: model.CoverKind, labels: tuple[str, ...]) -> str:
    """``explain``'s line for S, on a cover of ``cover_kind`` whose S has generators ``labels``."""
    if labels:
        return "generated by " + ", ".join(labels)
    if cover_kind is model.CoverKind.IRREDUCIBLE:
        return "trivial: cores(beta) has no ramification"
    return "trivial: beta_1 and beta_2 are both unramified"


def _cmd_explain(args, out) -> None:
    cfg = dsl.parse(_read_text(args.file))
    report, spaces = model._checked(cfg)
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
    description = _describe_s(cfg.cover_kind, spaces.s_labels)
    print(f"restriction kernel (dim {len(spaces.s_labels)}): {description}", file=out)
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


class _ArgumentsDone(Exception):
    """argparse is done with a call: ``--help`` was printed, or the arguments were refused."""

    def __init__(self, status: int):
        super().__init__(status)
        self.status = status


class _ArgumentParser(argparse.ArgumentParser):
    """An ``ArgumentParser`` bound to the ``out`` and ``err`` streams of one ``run`` call.

    What argparse prints to the process's stdout (``--help``) goes to
    ``out`` and the rest (usage and errors) to ``err``.  Where argparse
    would exit the process it raises ``_ArgumentsDone`` with the status.
    Subparsers are built with the same streams, through ``parser_class``.
    """

    def __init__(self, *args, out, err, **kwargs):
        super().__init__(*args, **kwargs)
        self.out = out
        self.err = err

    def _print_message(self, message, file=None):
        super()._print_message(message, self.out if file is sys.stdout else self.err)

    def exit(self, status=0, message=None):
        if message:
            self._print_message(message, sys.stderr)
        raise _ArgumentsDone(status)


def _build_parser(out, err) -> argparse.ArgumentParser:
    make = functools.partial(_ArgumentParser, out=out, err=err)
    parser = make(
        prog="isbbrauer",
        description="Unramified Brauer groups of simple involution surface bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=make)

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
    tsub = p.add_subparsers(dest="toric_command", required=True, parser_class=make)
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
    try:
        args = _build_parser(out, err).parse_args(argv)
    except _ArgumentsDone as done:
        # argparse ends with 0 for --help and 2 for usage problems; our
        # code 2 is reserved for input-file parse errors, so usage maps to 3.
        return OK if done.status == 0 else USAGE
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
