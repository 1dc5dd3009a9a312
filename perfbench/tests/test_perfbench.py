"""Tests of the benchmark itself: inputs, oracles, tracing.

Run with ``python -m pytest perfbench/tests``.
"""

import io
from pathlib import Path

import pytest

import oracles
import run
import tracer
import workloads
from isbbrauer import brauer, cli, dsl, f2, model


def _shrink(monkeypatch):
    """Smaller sizes, so a test can compute every op of a workload quickly."""
    monkeypatch.setattr(workloads, "GEN_P", 40)
    monkeypatch.setattr(workloads, "GEN_KERNEL", 30)
    monkeypatch.setattr(workloads, "RING_CURVES", 24)
    monkeypatch.setattr(workloads, "RING_CHORDS", 6)
    monkeypatch.setattr(workloads, "CORPUS_SIZE", 6)


def _outputs(workload, tmp_path: Path):
    for name, text in workload.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    results = []
    for argv in workload.argv(str(tmp_path)):
        out = io.StringIO()
        rc = cli.run(argv, out, io.StringIO())
        results.append((argv, rc, out.getvalue()))
    return results


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_bytes_other_seed_other_bytes(name, monkeypatch):
    _shrink(monkeypatch)
    a, b = workloads.build(name, 5), workloads.build(name, 5)
    assert a.files == b.files and a.ops == b.ops and a.expect == b.expect
    assert a.inputs_sha256() == b.inputs_sha256()
    assert workloads.build(name, 6).inputs_sha256() != a.inputs_sha256()


def test_gen_heavy_inputs_meet_their_budget():
    w = workloads.build("gen-heavy", 2)
    for text, e in zip(w.files.values(), w.expect):
        cfg = dsl.parse(text)
        assert len(model.vp_basis(cfg)) == workloads.GEN_P
        assert abs(e["kernel_dim"] - workloads.GEN_KERNEL) <= workloads.GEN_BAND
        assert not model.validate(cfg).errors


def _corrupt(argv, text, key, delta):
    if "--json" in argv:
        field = {"kernel_dim": '"kernel": ', "h2nr_dim": '"h2nr": '}[key]
    else:
        field = f"{key}: "
    start = text.index(field) + len(field)
    end = start
    while text[end].isdigit():
        end += 1
    return text[:start] + str(int(text[start:end]) + delta) + text[end:]


@pytest.mark.parametrize("name", ["gen-heavy", "constraint-heavy", "small-corpus"])
def test_compute_oracles_pass_real_output_and_reject_corrupted(name, monkeypatch, tmp_path):
    _shrink(monkeypatch)
    w = workloads.build(name, 1)
    for (argv, rc, text), expect in zip(_outputs(w, tmp_path), w.expect):
        assert oracles.check(expect, rc, oracles.parse_output(argv, text)) is None
        for key in ("kernel_dim", "h2nr_dim"):
            bad = _corrupt(argv, text, key, 1)
            assert oracles.check(expect, rc, oracles.parse_output(argv, bad)) is not None
        assert oracles.check(expect, 1, oracles.parse_output(argv, text)) is not None


def test_oracle_rejects_a_missing_generator():
    out = io.StringIO()
    cli.run(["example", "hpt"], out, io.StringIO())
    text = out.getvalue()
    expect = {"kernel_dim": 1, "h2nr_dim": 1}
    assert oracles.check(expect, 0, oracles.parse_output([], text)) is None
    dropped = text.replace("generator g1:", "generator:")
    assert "generators listed" in oracles.check(expect, 0, oracles.parse_output([], dropped))


def test_toric_oracle_passes_real_output_and_rejects_corrupted(tmp_path):
    w = workloads.build("toric-demo", 3)
    for (argv, rc, text), expect in zip(_outputs(w, tmp_path), w.expect):
        assert oracles.check(expect, rc, oracles.parse_output(argv, text)) is None
        bad = text.replace("smooth: true", "smooth: false")
        assert oracles.check(expect, rc, oracles.parse_output(argv, bad)) is not None
        assert oracles.check(expect, rc, {}) is not None


def _span(name, start, end, parent, info=None, raised=False):
    return tracer.Span(name, start, end, parent, 0, info, raised)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        _span("a", 0.0, 10.0, -1),  # 0
        _span("b", 1.0, 4.0, 0),  # 1
        _span("c", 2.0, 3.0, 1),  # 2
        _span("d", 5.0, 9.0, 0),  # 3
        _span("d", 6.0, 7.0, 3),  # 4: recursion inside d
    ]
    s = tracer.summarize(spans)
    assert s["a"] == tracer.LayerStats(1, 10.0, 10.0 - 3.0 - 4.0, 0)
    assert s["b"] == tracer.LayerStats(1, 3.0, 2.0, 0)
    assert s["c"] == tracer.LayerStats(1, 1.0, 1.0, 0)
    # inclusive time counts the outer d only; self time is 3 + 1
    assert s["d"] == tracer.LayerStats(2, 4.0, 4.0, 0)


def test_order_counts_take_direct_children_of_resolve_demo():
    spans = [
        _span("toric.resolve_demo", 0, 10, -1),
        _span("toric.singular_faces", 0, 1, 0),
        _span("toric.is_smooth", 0, 1, 1, info=0),  # a face check, not an ordering
        _span("toric.star_subdivide", 1, 2, 0, raised=True),
        _span("toric.is_smooth", 2, 3, 0, info=0),
        _span("toric.is_smooth", 3, 4, 0, info=1),
    ]
    assert tracer.order_counts(spans) == (1, 3)


def test_tracer_wraps_every_binding_and_restores_originals():
    originals = {
        "validate": model.validate,
        "post_init": f2.Subspace.__post_init__,
        "p_to_r": brauer.matrix_p_to_r,
    }
    t = tracer.Tracer()
    t.install()
    try:
        assert model.validate is brauer.validate is not originals["validate"]
        assert f2.Subspace.__post_init__ is not originals["post_init"]
        t.op = 0
        assert cli.run(["example", "hpt"], io.StringIO(), io.StringIO()) == 0
    finally:
        t.restore()
    assert model.validate is brauer.validate is originals["validate"]
    assert f2.Subspace.__post_init__ is originals["post_init"]
    assert brauer.matrix_p_to_r is originals["p_to_r"]
    assert t.reachable_wrappers() == []
    assert t.absent == []
    stats = tracer.summarize(t.spans)
    assert stats["model.validate"].calls == 2
    # one per generator, plus two validations and the report itself
    assert stats["brauer.matrix_p_to_r"].calls == 1 + 3
    assert stats["cli.run"].calls == 1


def test_a_removed_name_is_reported_absent():
    t = tracer.Tracer(traced={"f2.gone": ("f2", "no_such_function"), "f2.rref": ("f2", "rref")})
    t.install()
    try:
        assert t.absent == ["f2.gone"]
        assert f2.rref is not f2.rref.__wrapped__
    finally:
        t.restore()
    assert not hasattr(f2.rref, "__wrapped__")


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert run.tail([0.001] * 99) is None
    pct, value = run.tail([float(i) for i in range(1000)])
    assert pct == 99.0 and value == 989.0


def test_latency_is_the_mean_of_per_input_medians():
    records = [(0, 1.0), (1, 10.0), (0, 3.0), (1, 30.0), (0, 2.0)]
    assert run.per_input_median_mean(records, 2) == (2.0 + 20.0) / 2


def test_op_times_are_scaled_by_the_references_around_them():
    phase = {
        "refs": [2 * run.REF_S, run.REF_S, run.REF_S],
        # (input, latency, busy, exit code, digest, bytes, reference index)
        "records": [(0, 3.0, 4.0, 0, "d", 1, 0), (1, 3.0, 4.0, 0, "d", 1, 1)],
    }
    flat = [x for op in run.scaled(phase) for x in op]
    assert flat == pytest.approx([0, 2.0, 4.0 / 1.5, 1, 3.0, 4.0])
