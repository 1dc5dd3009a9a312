"""Command-line surface: exit codes, output formats, determinism."""

import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from isbbrauer import cli, dsl
from isbbrauer.brauer import unramified_brauer
from isbbrauer.sampling import random_corpus

from test_front_end import ring_source
from test_word_level import reference_report_text

INVALID_POINT_PAIR = """\
cover: irreducible
symbols: a

curve left:
  type: I
  cover: ramified
  ext left_t: 0

curve right:
  type: I
  cover: ramified
  ext right_t: 0

point p:
  curves: left, right
  etype: II_II
"""

WARNED_BUT_VALID = """\
cover: irreducible
symbols: a

curve carrier:
  type: II
  cover: inert
  ext carrier_t: a
"""

GC1_WITH_WARNING = """\
cover: irreducible
symbols: a

curve cusp:
  type: III
  cover: ramified
  ext cusp_t: a
  cores: a

curve line:
  type: II
  cover: inert
  ext line_t: a

point z:
  curves: cusp, line
  etype: III_II
"""

# the inert carrier with its cores residue given: S is spanned by
# cores(beta), which lies in the kernel, so no generator is left
INERT_CARRIER_WITH_CORES = WARNED_BUT_VALID + "  cores: a\n"

FAN_OK = """\
ray 1 0 0 0
ray 1 2 0 0
cone 0 1
subdivide 1 1 0 0
"""


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def test_example_hpt_text_report():
    code, out, err = run("example", "hpt")
    assert code == cli.OK
    assert "h2nr_dim: 1" in out
    assert "kernel_dim: 1" in out
    assert "  p: 6" in out
    assert err == ""


def test_example_emit_matches_builtin_source():
    code, out, _ = run("example", "cubic-quartic", "--emit")
    assert code == cli.OK
    assert out == dsl.builtin_source("cubic-quartic")


def test_unknown_example_is_usage_error():
    assert run("example", "nope") == (cli.USAGE, "", "error: unknown builtin 'nope'; choose from cubic-quartic, hpt\n")


def test_validate_clean_file(tmp_path):
    cfg = tmp_path / "good.cfg"
    cfg.write_text(dsl.builtin_source("hpt"))
    code, out, _ = run("validate", str(cfg))
    assert code == cli.OK
    assert "result: ok" in out


def test_validate_reports_warnings_without_failing(tmp_path):
    cfg = tmp_path / "warned.cfg"
    cfg.write_text(WARNED_BUT_VALID)
    code, out, _ = run("validate", str(cfg))
    assert code == cli.OK
    assert "W_CORES_DEFAULTED" in out


def test_forbidden_point_pair_is_semantic_failure(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(INVALID_POINT_PAIR)
    for cmd in ("validate", "compute"):
        code, out, err = run(cmd, str(cfg))
        assert code == cli.INVALID
        assert "POINT_PAIR" in out + err


@pytest.mark.parametrize("text", [INVALID_POINT_PAIR, GC1_WITH_WARNING])
def test_compute_rejects_with_the_validate_report(tmp_path, text):
    # A structural error and a GC error with a warning: compute validates
    # inside the computation and prints the same bytes as validate.
    cfg = tmp_path / "rejected.cfg"
    cfg.write_text(text)
    code, out, err = run("compute", str(cfg))
    assert (code, out, err) == run("validate", str(cfg))
    assert code == cli.INVALID and out == ""
    assert "errors:" in err and "warnings:" in err


@pytest.mark.parametrize(
    "argv", [("validate",), ("compute",), ("explain",), ("toric", "check")]
)
def test_non_utf8_input_is_parse_error(tmp_path, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"symbols: \xff\n")
    code, out, err = run(*argv, str(path))
    assert code == cli.PARSE_ERROR
    assert out == ""
    assert err == f"{path}: input is not valid UTF-8 (byte offset 9)\n"


def test_non_utf8_offset_counts_from_the_start_of_the_file(tmp_path):
    path = tmp_path / "long.cfg"
    path.write_bytes(b"#" * 20_000 + b"\r\ncover: irreducible\xe9\n")
    code, _, err = run("compute", str(path))
    assert code == cli.PARSE_ERROR
    assert err == f"{path}: input is not valid UTF-8 (byte offset 20020)\n"
    path.write_bytes(b"ray 1 0 0 0\n\xff\n")
    assert run("toric", "check", str(path)) == (cli.PARSE_ERROR, "", f"{path}: input is not valid UTF-8 (byte offset 12)\n")


@pytest.mark.parametrize(
    "argv", [("validate",), ("compute",), ("explain",), ("toric", "check")]
)
def test_a_byte_order_mark_is_dropped(tmp_path, argv):
    # and CRLF or lone-CR line ends read as LF
    text = FAN_OK if argv[0] == "toric" else run("example", "hpt", "--emit")[1]
    lf = text.encode()
    path = tmp_path / "input.txt"
    path.write_bytes(lf)
    plain = run(*argv, str(path))
    for data in (b"\xef\xbb\xbf" + lf, lf.replace(b"\n", b"\r\n"), lf.replace(b"\n", b"\r")):
        path.write_bytes(data)
        assert run(*argv, str(path)) == plain, data[:12]
    assert plain[0] == cli.OK


def test_non_utf8_offset_counts_the_byte_order_mark(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbfsymbols: \xff\n")
    code, _, err = run("compute", str(path))
    assert code == cli.PARSE_ERROR
    assert err == f"{path}: input is not valid UTF-8 (byte offset 12)\n"


def test_parse_error_reports_position(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("cover: sideways\nsymbols: a\n")
    code, _, err = run("validate", str(cfg))
    assert code == cli.PARSE_ERROR
    assert f"{cfg}:1:8:" in err


def test_malformed_symbols_line_is_parse_error(tmp_path):
    cfg = tmp_path / "nocolon.cfg"
    cfg.write_text("cover: irreducible\nsymbols d\n")
    code, out, err = run("validate", str(cfg))
    assert code == cli.PARSE_ERROR
    assert out == ""
    assert f"{cfg}:2:1: malformed symbols line" in err


def test_missing_file_is_usage_error(tmp_path):
    code, _, err = run("compute", str(tmp_path / "absent.cfg"))
    assert code == cli.USAGE
    assert "absent.cfg" in err


def test_bad_subcommand_is_usage_error():
    code, _, _ = run("frobnicate")
    assert code == cli.USAGE
    code, _, _ = run()
    assert code == cli.USAGE


def test_help_exits_clean():
    code, out, err = run("--help")
    assert code == cli.OK and err == ""
    assert "validate" in out


USAGE_LINE = "usage: isbbrauer [-h] {validate,compute,explain,example,toric} ..."


def test_argparse_writes_only_to_the_streams_run_was_given(capfd):
    # Usage errors and --help reach err and out, as an embedding caller
    # passes them, and nothing reaches the process's own streams.
    for argv, first in (
        (["frobnicate"], USAGE_LINE),
        ([], USAGE_LINE),
        (["explain"], "usage: isbbrauer explain [-h] file"),
        (["toric"], "usage: isbbrauer toric [-h] {demo,check} ..."),
    ):
        code, out, err = run(*argv)
        assert (code, out) == (cli.USAGE, ""), argv
        assert err.splitlines()[0] == first, argv
        assert len(err.splitlines()) == 2, argv
    code, out, err = run("--help")
    assert (code, err) == (cli.OK, "")
    assert out.splitlines()[0] == USAGE_LINE
    assert capfd.readouterr() == ("", "")


def test_repeated_runs_in_one_process_carry_no_state(tmp_path, capsys):
    # Calls of run in one process, as a long-lived caller makes them: no
    # call may leave anything behind for the next one.
    cfg = tmp_path / "hpt.cfg"
    cfg.write_text(dsl.builtin_source("hpt"))
    code, text_report, _ = run("example", "hpt")
    assert code == cli.OK and text_report.startswith("dims:\n")
    for _ in range(2):
        code, out, _ = run("compute", str(cfg), "--json")
        assert code == cli.OK and json.loads(out)["dims"]["h2nr"] == 1
        assert run("compute", str(cfg)) == (cli.OK, text_report, "")
        assert run("compute")[0] == cli.USAGE
        assert run("frobnicate", str(cfg))[0] == cli.USAGE
        code, out, _ = run("--help")
        assert code == cli.OK and "validate" in out
        assert run("compute", str(cfg)) == (cli.OK, text_report, "")
    assert capsys.readouterr() == ("", "")


def test_compute_json_roundtrips_dims(tmp_path):
    cfg = tmp_path / "hpt.cfg"
    cfg.write_text(dsl.builtin_source("hpt"))
    code, out, _ = run("compute", str(cfg), "--json")
    assert code == cli.OK
    doc = json.loads(out)
    assert list(doc) == [
        "dims", "p_labels", "q_labels", "r_labels",
        "m_pr", "m_qp", "m_sp", "generators", "assertions",
    ]
    assert doc["dims"] == {"s": 0, "p": 6, "q": 3, "r": 3, "kernel": 1, "h2nr": 1}
    assert doc["m_pr"] == [[0, 0, 1, 1, 1, 1], [1, 1, 0, 0, 1, 1], [1, 1, 1, 1, 0, 0]]
    assert doc["assertions"] == {"gc1": "ok", "gc2": "ok", "gc3": "ok", "gc4": "ok"}
    (gen,) = doc["generators"]
    assert sorted(gen["ramification"]) == ["x-axis", "y-axis", "z-axis"]

    text_code, text_out, _ = run("compute", str(cfg))
    assert text_code == cli.OK
    for key, value in doc["dims"].items():
        if key in ("kernel", "h2nr"):
            assert f"{key}_dim: {value}" in text_out
        else:
            assert f"  {key}: {value}" in text_out


def test_json_contains_no_floats():
    report = unramified_brauer(dsl.builtin("hpt"))
    out = cli.report_json(report)
    assert not re.search(r"\d\.\d", out)

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        else:
            assert isinstance(node, (int, str))

    walk(json.loads(out))


def test_output_is_byte_deterministic(tmp_path):
    cfg = tmp_path / "hpt.cfg"
    cfg.write_text(dsl.builtin_source("hpt"))
    first = run("compute", str(cfg), "--json")
    second = run("compute", str(cfg), "--json")
    assert first == second
    assert run("example", "hpt") == run("example", "hpt")


# sha256 over every (argv, exit code, stdout, stderr) of the four config
# commands on the corpus, the built-ins and one invalid file
CLI_BYTES_SHA256 = "d7e654167c2c1df5a63c16843cabe1e72231f340c43eff9663dab6e1d9d3a197"


def test_cli_output_bytes_are_pinned(tmp_path):
    path = tmp_path / "input.cfg"
    sources = [dsl.emit(cfg) for cfg in random_corpus(0, 200)]
    sources += [dsl.builtin_source(name) for name in dsl.BUILTIN_NAMES]
    sources.append(INVALID_POINT_PAIR)
    digest = hashlib.sha256()
    for source in sources:
        path.write_text(source)
        for argv in (["compute", "FILE"], ["compute", "FILE", "--json"], ["validate", "FILE"], ["explain", "FILE"]):
            code, out, err = run(*[str(path) if a == "FILE" else a for a in argv])
            record = [argv, code, out, err.replace(str(path), "FILE")]
            digest.update(json.dumps(record).encode() + b"\n")
    assert digest.hexdigest() == CLI_BYTES_SHA256


def test_explain_describes_local_kernels(tmp_path):
    cfg = tmp_path / "hpt.cfg"
    cfg.write_text(dsl.builtin_source("hpt"))
    code, out, _ = run("explain", str(cfg))
    assert code == cli.OK
    assert "curve x-axis (type II, split)" in out
    assert "restriction kernel (dim 0)" in out


def test_explain_refuses_an_invalid_file_and_notes_warnings(tmp_path):
    cfg = tmp_path / "explained.cfg"
    cfg.write_text(INVALID_POINT_PAIR)
    code, out, err = run("explain", str(cfg))
    assert (code, out, err) == run("validate", str(cfg))
    assert code == cli.INVALID and out == "" and "[POINT_PAIR]" in err
    cfg.write_text(WARNED_BUT_VALID)
    code, out, _ = run("explain", str(cfg))
    assert code == cli.OK
    assert out.endswith("note: [W_CORES_DEFAULTED] carrier: cores residue of inert curve carrier defaulted to 0\n")


def test_compute_text_lists_s_generators_and_no_generators(tmp_path):
    cfg = tmp_path / "inert.cfg"
    cfg.write_text(INERT_CARRIER_WITH_CORES)
    code, out, err = run("compute", str(cfg))
    assert (code, err) == (cli.OK, "")
    assert "\ns_generators: cores(beta)\n" in out
    assert out.endswith("\ngenerators: (none)\nassertions: gc1=ok, gc2=ok, gc3=ok, gc4=ok\n")


def test_toric_demo_ends_smooth():
    code, out, _ = run("toric", "demo")
    assert code == cli.OK
    assert out.rstrip().splitlines()[-1] == "smooth: true"


TORIC_DEMO_OUT = """\
cone: (0,1,0,0) (0,1,0,1) (0,1,1,0) (1,0,0,0) (1,0,0,1) (1,0,1,0)
singular faces: 3
  dim 3: (0,1,0,0) (0,1,0,1) (1,0,0,0) (1,0,0,1)
  dim 3: (0,1,0,0) (0,1,1,0) (1,0,0,0) (1,0,1,0)
  dim 3: (0,1,0,1) (0,1,1,0) (1,0,0,1) (1,0,1,0)
candidate rays: (1,1,0,1) (1,1,1,0) (1,1,1,1)
step 1: subdivide at (1,1,0,1) -> 4 maximal cones, support preserved (1000 samples)
step 2: subdivide at (1,1,1,0) -> 7 maximal cones, support preserved (1000 samples)
step 3: subdivide at (1,1,1,1) -> 10 maximal cones, support preserved (1000 samples)
  cone (0,1,0,0) (1,0,0,0) (1,1,0,1) (1,1,1,0): unimodular
  cone (1,0,0,0) (1,0,1,0) (1,1,0,1) (1,1,1,0): unimodular
  cone (0,1,0,0) (0,1,1,0) (1,1,0,1) (1,1,1,0): unimodular
  cone (0,1,1,0) (1,0,1,0) (1,1,0,1) (1,1,1,0): unimodular
  cone (1,0,0,0) (1,0,0,1) (1,0,1,0) (1,1,0,1): unimodular
  cone (0,1,0,0) (0,1,0,1) (0,1,1,0) (1,1,0,1): unimodular
  cone (0,1,1,0) (1,0,1,0) (1,1,0,1) (1,1,1,1): unimodular
  cone (1,0,0,1) (1,0,1,0) (1,1,0,1) (1,1,1,1): unimodular
  cone (0,1,0,1) (0,1,1,0) (1,1,0,1) (1,1,1,1): unimodular
  cone (0,1,0,1) (1,0,0,1) (1,1,0,1) (1,1,1,1): unimodular
smooth: true
"""


def test_toric_demo_output_is_pinned():
    assert run("toric", "demo") == (cli.OK, TORIC_DEMO_OUT, "")


def test_toric_check_resolves_fan(tmp_path):
    fan = tmp_path / "quadric.fan"
    fan.write_text(FAN_OK)
    code, out, _ = run("toric", "check", str(fan))
    assert code == cli.OK
    assert "smooth: true" in out
    assert "unimodular" in out


FANS = Path(__file__).parent / "fans"


def test_committed_fan_example_is_the_readme_example():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Fan format", 1)[1]
    block = section.split("```\n", 2)[1]
    assert (FANS / "readme_example.fan").read_text() == block


def test_toric_check_on_the_committed_fans():
    example = str(FANS / "readme_example.fan")
    assert run("toric", "check", example) == (
        cli.OK,
        "subdivide (1,1,0,0) -> 2 maximal cones\n"
        "cone (1,0,0,0) (1,1,0,0): unimodular\n"
        "cone (1,1,0,0) (1,2,0,0): unimodular\n"
        "smooth: true\n",
        "",
    )
    nine = str(FANS / "nine_rays.fan")
    assert run("toric", "check", nine) == (
        cli.INVALID,
        "",
        f"{nine}: line 11: cone lists 9 rays; the cap is 8\n",
    )
    not_a_fan = str(FANS / "not_a_fan.fan")
    assert run("toric", "check", not_a_fan) == (
        cli.INVALID,
        "",
        f"{not_a_fan}: line 8: cone meets the cone of line 7 outside a common face; not a fan\n",
    )
    non_extremal = str(FANS / "non_extremal.fan")
    assert run("toric", "check", non_extremal) == (
        cli.INVALID,
        "",
        f"{non_extremal}: line 7: ray (1, 1, 0, 0) is not an extremal ray of the cone\n",
    )
    assert run("toric", "check", str(FANS / "shared_face.fan")) == (
        cli.OK,
        "cone (0,0,1,0) (0,1,0,0) (1,0,0,0): unimodular\n"
        "cone (0,0,-1,0) (0,1,0,0) (1,0,0,0): unimodular\n"
        "smooth: true\n",
        "",
    )
    # a lower-dimensional singular cone: the verdict comes from the Smith form
    assert run("toric", "check", str(FANS / "singular_plane.fan")) == (
        cli.OK,
        "cone (1,0,0,0) (1,2,0,0): invariant factors (1, 2)\n"
        "smooth: false\n",
        "",
    )


# the complete fan of (P^1)^4: 16 cones, the cap, so 120 pairs meet in a face
ORTHANTS_CHECK_OUT = """\
cone (0,0,0,1) (0,0,1,0) (0,1,0,0) (1,0,0,0): unimodular
cone (0,0,0,-1) (0,0,1,0) (0,1,0,0) (1,0,0,0): unimodular
cone (0,0,-1,0) (0,0,0,1) (0,1,0,0) (1,0,0,0): unimodular
cone (0,0,-1,0) (0,0,0,-1) (0,1,0,0) (1,0,0,0): unimodular
cone (0,-1,0,0) (0,0,0,1) (0,0,1,0) (1,0,0,0): unimodular
cone (0,-1,0,0) (0,0,0,-1) (0,0,1,0) (1,0,0,0): unimodular
cone (0,-1,0,0) (0,0,-1,0) (0,0,0,1) (1,0,0,0): unimodular
cone (0,-1,0,0) (0,0,-1,0) (0,0,0,-1) (1,0,0,0): unimodular
cone (-1,0,0,0) (0,0,0,1) (0,0,1,0) (0,1,0,0): unimodular
cone (-1,0,0,0) (0,0,0,-1) (0,0,1,0) (0,1,0,0): unimodular
cone (-1,0,0,0) (0,0,-1,0) (0,0,0,1) (0,1,0,0): unimodular
cone (-1,0,0,0) (0,0,-1,0) (0,0,0,-1) (0,1,0,0): unimodular
cone (-1,0,0,0) (0,-1,0,0) (0,0,0,1) (0,0,1,0): unimodular
cone (-1,0,0,0) (0,-1,0,0) (0,0,0,-1) (0,0,1,0): unimodular
cone (-1,0,0,0) (0,-1,0,0) (0,0,-1,0) (0,0,0,1): unimodular
cone (-1,0,0,0) (0,-1,0,0) (0,0,-1,0) (0,0,0,-1): unimodular
smooth: true
"""


def test_toric_check_on_the_orthant_fan_at_the_cone_cap():
    assert run("toric", "check", str(FANS / "orthants.fan")) == (cli.OK, ORTHANTS_CHECK_OUT, "")


def test_toric_check_refuses_an_overlap_at_the_cone_cap():
    # 16 cones, the cap: the last lies inside the orthant of line 20 and
    # meets the eight orthants listed before it in a common face
    overlap = str(FANS / "overlap_at_cap.fan")
    assert run("toric", "check", overlap) == (
        cli.INVALID,
        "",
        f"{overlap}: line 27: cone meets the cone of line 20 outside a common face; not a fan\n",
    )


def test_toric_check_parse_error(tmp_path):
    fan = tmp_path / "short.fan"
    fan.write_text("ray 1 0\ncone 0\n")
    code, _, err = run("toric", "check", str(fan))
    assert code == cli.PARSE_ERROR
    assert f"{fan}:1:1:" in err
    fan.write_text("ray 1 0 0 0\ncone\n")
    assert run("toric", "check", str(fan)) == (cli.PARSE_ERROR, "", f"{fan}:2:1: cone needs at least one ray index\n")


def test_toric_check_semantic_errors(tmp_path):
    fan = tmp_path / "oob.fan"
    fan.write_text("ray 1 0 0 0\ncone 0 7\n")
    code, _, err = run("toric", "check", str(fan))
    assert code == cli.INVALID
    assert "line 2" in err

    fan.write_text("ray 1 0 0 0\nray 1 2 0 0\ncone 0 1\nsubdivide 0 0 1 0\n")
    code, _, err = run("toric", "check", str(fan))
    assert code == cli.INVALID
    assert "outside the support" in err


# --- every refusal, byte for byte ------------------------------------------------------

POINT_PAIR_ERR = """\
errors:
  [POINT_PAIR] p: curves of types I and I cannot cross at a point
warnings: (none)
"""

GC1_ERR = """\
errors:
  [GC1] line: relation vector of curve line does not map to zero in R
warnings:
  [W_CORES_DEFAULTED] line: cores residue of inert curve line defaulted to 0
"""

SUBDIVIDE_AFTER_A_STEP = FAN_OK + "subdivide 0 0 1 0\n"

# (input bytes or None for a missing file, exit code, stdout, stderr), with
# FILE standing for the input's path
CONFIG_REFUSALS = {
    "missing": (None, cli.USAGE, "", f"error: cannot read FILE: {os.strerror(errno.ENOENT)}\n"),
    "not-utf8": (b"symbols: \xff\n", cli.PARSE_ERROR, "", "FILE: input is not valid UTF-8 (byte offset 9)\n"),
    "parse": (
        b"cover: sideways\nsymbols: a\n",
        cli.PARSE_ERROR,
        "",
        "FILE:1:8: cover kind must be irreducible or split, got 'sideways'\n",
    ),
    "structural": (INVALID_POINT_PAIR.encode(), cli.INVALID, "", POINT_PAIR_ERR),
    "gc": (GC1_WITH_WARNING.encode(), cli.INVALID, "", GC1_ERR),
}

FAN_REFUSALS = {
    "missing": CONFIG_REFUSALS["missing"],
    "not-utf8": CONFIG_REFUSALS["not-utf8"],
    "parse": (b"ray 1 0 0 0\ncone\n", cli.PARSE_ERROR, "", "FILE:2:1: cone needs at least one ray index\n"),
    "script": (b"ray 1 0 0 0\ncone 0 7\n", cli.INVALID, "", "FILE: line 2: ray index 7 is out of range\n"),
    "subdivide": (
        SUBDIVIDE_AFTER_A_STEP.encode(),
        cli.INVALID,
        "subdivide (1,1,0,0) -> 2 maximal cones\n",
        "FILE: line 5: subdivision ray (0, 0, 1, 0) lies outside the support of the fan\n",
    ),
}

REFUSALS = [
    pytest.param((cmd,), *case, id=f"{cmd}-{name}")
    for cmd in ("validate", "compute", "explain")
    for name, case in CONFIG_REFUSALS.items()
] + [pytest.param(("toric", "check"), *case, id=f"toric-check-{name}") for name, case in FAN_REFUSALS.items()]


@pytest.mark.parametrize("argv, data, code, out, err", REFUSALS)
def test_every_refusal_is_pinned(tmp_path, argv, data, code, out, err):
    path = tmp_path / "input.txt"
    if data is not None:
        path.write_bytes(data)
    got = run(*argv, str(path))
    assert tuple(text.replace(str(path), "FILE") for text in got[1:]) == (out, err)
    assert got[0] == code
    # one stream for both: what a step printed comes before the refusal
    both = io.StringIO()
    assert cli.run([*argv, str(path)], both, both) == code
    assert both.getvalue() == got[1] + got[2]


# ``main`` in a process of its own, as the console script runs it
MAIN = [sys.executable, "-c", "from isbbrauer.cli import main; main()"]
MAIN_ENV = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}


def test_main_exits_with_the_code_and_bytes_of_run(tmp_path):
    # One input per exit code: the hpt source, then the pinned structural,
    # parse and missing-file refusals.
    inputs = [dsl.builtin_source("hpt").encode()]
    inputs += [CONFIG_REFUSALS[name][0] for name in ("structural", "parse", "missing")]
    codes = []
    for i, data in enumerate(inputs):
        path = tmp_path / f"input{i}.cfg"
        if data is not None:
            path.write_bytes(data)
        argv = ["compute", str(path)]
        proc = subprocess.run([*MAIN, *argv], capture_output=True, env=MAIN_ENV)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == run(*argv)
        codes.append(proc.returncode)
    assert codes == [cli.OK, cli.INVALID, cli.PARSE_ERROR, cli.USAGE]


def test_a_closed_stdout_ends_quietly_with_the_sigpipe_code(tmp_path):
    # The reader takes 5 bytes of a report many pipe buffers long, as
    # `isbbrauer compute ring.cfg --json | head -c 5` does, and closes.
    path = tmp_path / "ring.cfg"
    path.write_text(ring_source(100))
    argv = [*MAIN, "compute", str(path), "--json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=MAIN_ENV) as proc:
        assert proc.stdout.read(5) == b'{\n  "'
        proc.stdout.close()
        assert proc.stderr.read() == b""
    assert proc.returncode == 141


# --- a report is written as it is made ---------------------------------------------


class Recorder:
    """An output stream that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_a_report_is_streamed_a_row_at_a_time(tmp_path, json_flag):
    path = tmp_path / "ring.cfg"
    path.write_text(ring_source(800))
    recorder, err = Recorder(), io.StringIO()
    assert cli.run(["compute", str(path), *json_flag], recorder, err) == cli.OK
    assert err.getvalue() == ""
    cfg = dsl.parse(ring_source(800))
    report = unramified_brauer(cfg)
    if json_flag:
        whole = cli.report_json(report) + "\n"
    else:
        whole = reference_report_text(report, cfg.symbol_index)
    total = sum(map(len, recorder.writes))
    assert "".join(recorder.writes) == whole
    assert max(map(len, recorder.writes)) * 20 < total


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_a_refused_report_writes_nothing(tmp_path, json_flag):
    path = tmp_path / "gc1.cfg"
    path.write_text(GC1_WITH_WARNING)
    recorder, err = Recorder(), io.StringIO()
    assert cli.run(["compute", str(path), *json_flag], recorder, err) == cli.INVALID
    assert recorder.writes == []
    assert err.getvalue() == GC1_ERR


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc/self/status")
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_a_large_report_is_written_in_bounded_memory(tmp_path, json_flag):
    # The JSON report of a ring of 1600 curves is about 95 MB.  A fresh
    # process writes it to /dev/null and reads its own high-water mark:
    # VmHWM, because a child's ru_maxrss starts from its parent's at exec.
    path = tmp_path / "ring.cfg"
    path.write_text(ring_source(1600))
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from isbbrauer import cli\n"
        "with open(sys.argv[2], 'w') as out:\n"
        "    code = cli.run(sys.argv[3:], out)\n"
        "with open('/proc/self/status') as status:\n"
        "    hwm = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
        "print(code, hwm)\n"
    )
    argv = [sys.executable, "-I", "-S", "-c", script, MAIN_ENV["PYTHONPATH"], os.devnull, "compute", str(path), *json_flag]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    code, hwm_kb = map(int, done.stdout.split())
    assert code == cli.OK
    assert hwm_kb < 64 * 1024
