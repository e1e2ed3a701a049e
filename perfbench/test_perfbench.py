"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import cagkit  # noqa: E402
from cagkit import (ModelConfig, init_weights, kvcache, model,  # noqa: E402
                    training)

import checks  # noqa: E402
import run as runner  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

MICRO = ModelConfig(d_model=8, n_layers=1, n_heads=2, head_dim=4, d_ffn=16,
                    max_context=512, init_seed=11)


@pytest.fixture(scope="module")
def micro_weights():
    return init_weights(MICRO)


@pytest.fixture()
def micro_cache(micro_weights):
    task = training.make_lookup_task(3, 0.5, seed=5)
    return kvcache.kv_encode(micro_weights, training.task_to_corpus(task))


# -- percentile rule ---------------------------------------------------------

def test_median_always_reported_with_its_count():
    assert stats.summarize([4.0]) == {"n": 1, "p50": 4.0}
    assert stats.summarize([1.0, 3.0, 2.0, 10.0])["p50"] == 2.5
    assert stats.summarize([]) == {"n": 0}


def test_tail_needs_ten_samples_beyond_it():
    assert "p90" not in stats.summarize([float(i) for i in range(1, 100)])
    s = stats.summarize([float(i) for i in range(1, 101)])
    assert s["n"] == 100 and s["p90"] == 90.0 and "p99" not in s
    assert stats.ranked_beyond(100, 0.9) == 10
    assert not stats.tail_allowed(99, 0.9)
    s = stats.summarize([float(i) for i in range(1, 1001)])
    assert s["p99"] == 990.0


def test_nearest_rank_returns_an_observed_sample():
    assert stats.nearest_rank([3.0, 1.0, 2.0], 0.5) == 2.0
    assert stats.nearest_rank([5.0], 0.9) == 5.0
    with pytest.raises(ValueError):
        stats.nearest_rank([], 0.5)


# -- metric names ------------------------------------------------------------

def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def test_metric_name_rule():
    for good in ("setup_s", "op_ms.p50", "model.prefill.flops", "1-a"):
        assert valid_metric_name(good)
    for bad in ("", "a b", "-x", ".x", "ms/s", "x" * 65):
        assert not valid_metric_name(bad)


def test_benchmark_file_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(runner.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == \
        list(runner.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(runner.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == \
        list(runner.PER_LAYER.values())
    assert [w["name"] for w in spec["workloads"]] == \
        list(runner.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    names += [name for name, _, _ in runner.SAMPLED.values()]
    assert len(set(names)) == len(names)
    assert all(valid_metric_name(n) for n in names)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    # per-operation time and work: less is better; span coverage: more
    assert all(m["better"] == ("higher" if m["name"].endswith("covered_pct")
                               else "lower") for m in spec["per_layer"])


# -- deterministic workload generation ---------------------------------------

@pytest.mark.parametrize("name", list(workloads.INPUTS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    make = workloads.INPUTS[name]

    def inputs(seed):
        return make(workloads.Run(seed, 1.0, tmp_path))

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


# -- output checks fire on a flipped token or byte ---------------------------

def test_token_check_fires_on_a_flipped_token():
    toks = [104, 105, 257, 33]
    assert checks.same_tokens(toks, list(toks))
    flipped = list(toks)
    flipped[2] = 256
    assert not checks.same_tokens(toks, flipped)
    assert not checks.same_tokens(toks, toks[:-1])


def _flip_bit(arr: np.ndarray, index: int) -> None:
    arr.reshape(-1).view(np.uint32)[index] ^= 1


def test_cache_check_fires_on_a_flipped_row_bit(micro_cache, tmp_path):
    path = tmp_path / "c.cagc"
    kvcache.save_cache(micro_cache, path)
    loaded = kvcache.load_cache(path, micro_cache.config_hash)
    assert checks.caches_bitwise_equal(micro_cache, loaded)
    for rows in (loaded.k_rows(0), loaded.v_rows(0)):
        _flip_bit(rows, rows.size - 1)
        assert not checks.caches_bitwise_equal(micro_cache, loaded)
        _flip_bit(rows, rows.size - 1)
    assert checks.caches_bitwise_equal(micro_cache, loaded)
    kvcache.truncate_to(loaded, kvcache.CacheMark(loaded.n_tokens - 1))
    assert not checks.caches_bitwise_equal(micro_cache, loaded)


def test_weights_check_fires_on_a_flipped_byte(micro_weights):
    other = init_weights(MICRO)
    assert checks.weights_bitwise_equal(micro_weights, other)
    _flip_bit(other.layers[0].w2, 3)
    assert not checks.weights_bitwise_equal(micro_weights, other)


def test_loss_check_fires_on_a_non_finite_loss():
    line = "step      1  n_pairs   2  loss 5.5288  ema 5.7070"
    assert checks.logged_loss(line) == 5.5288
    assert checks.finite_loss(line)
    assert not checks.finite_loss(line.replace("5.5288", "nan"))
    assert not checks.finite_loss(line.replace("5.5288", "inf"))


def test_failed_checks_are_counted():
    c = checks.Checks()
    c.record("a", True)
    c.record("a", False, "question 3")
    c.record("b", False)
    d = c.to_dict()
    assert (d["attempted"], d["failed"]) == (3, 2)
    assert d["by_name"]["a"] == {"attempted": 2, "failed": 1}
    assert d["failures"] == ["a: question 3", "b"]


def test_digest_changes_with_one_token_or_byte(micro_weights):
    def digest(toks, w):
        d = checks.Digest()
        d.tokens("q0", toks)
        d.weights("w", w)
        return d.hexdigest()

    base = digest([1, 2, 3], micro_weights)
    assert base == digest([1, 2, 3], init_weights(MICRO))
    assert base != digest([1, 2, 4], micro_weights)
    other = init_weights(MICRO)
    _flip_bit(other.final_gain, 0)
    assert base != digest([1, 2, 3], other)


# -- tracer ------------------------------------------------------------------

def test_tracer_records_nested_spans_and_restores(micro_weights, micro_cache):
    original = model.forward_extend
    with spans.Tracer() as tracer:
        assert model.forward_extend is not original
        task = training.make_lookup_task(2, 0.5, seed=1)
        cache = kvcache.kv_encode(micro_weights, training.task_to_corpus(task))
        model.greedy_generate(micro_weights, cache, [65, 66],
                              max_new_tokens=3, stop_at_eos=False)
    assert model.forward_extend is original
    assert cagkit.retrieval.greedy_generate is model.greedy_generate

    names = [s.name for s in tracer.spans]
    assert names == ["training.task_gen", "kvcache.kv_encode", "model.prefill",
                     "model.greedy_generate", "model.prefill", "model.decode",
                     "model.decode", "model.decode"]
    assert tracer.spans[2].parent == 1 and tracer.spans[1].parent == -1
    assert all(s.parent == 3 for s in tracer.spans[4:])
    # the prompt adds SEP and two query tokens, decoding three more
    assert tracer.spans[1].counts["tokens"] == cache.n_tokens - 6

    own = spans.self_seconds(tracer.spans)
    assert own[1] == pytest.approx(tracer.spans[1].seconds
                                   - tracer.spans[2].seconds)
    assert all(o >= 0 for o in own)
    agg = spans.aggregate(tracer.spans, tracer.names, "")
    assert agg["model.decode"]["calls"] == 3
    # functions the phase never called are present, at zero
    assert agg["retrieval.bm25_topk"] == {"calls": 0, "failed": 0, "s": 0,
                                          "self_s": 0}
    assert agg["kvcache.save_cache"]["bytes"] == 0
    assert spans.aggregate(tracer.spans, tracer.names,
                           "measure")["model.decode"]["calls"] == 0
    assert spans.under(tracer.spans, "model.greedy_generate", "model.decode",
                       "tokens", "") == 3


def test_tracer_marks_failed_spans(micro_weights, micro_cache):
    with spans.Tracer() as tracer:
        with pytest.raises(cagkit.InvalidMarkError):
            kvcache.truncate_to(micro_cache, kvcache.CacheMark(0))
    assert tracer.spans[0].failed


def test_flops_and_kv_bytes_follow_shapes():
    cfg = ModelConfig()
    d, f, v, layers = cfg.d_model, cfg.d_ffn, cfg.vocab_size, cfg.n_layers
    per_token = layers * (8 * d * d + 4 * d * f) + 2 * d * v
    assert spans.forward_flops(cfg, 100, 1, 256) == \
        per_token + layers * 4 * d * 101
    two_blocks = spans.forward_flops(cfg, 0, 300, 256)
    assert two_blocks == 300 * per_token + layers * 4 * d * (256 * 256
                                                             + 44 * 300)
    assert spans.kv_bytes_read(cfg, 100, 1) == 2 * layers * 101 * d * 4
    assert math.isclose(spans.kv_bytes_read(cfg, 0, 1), 2 * layers * d * 4)


def test_layer_metrics_are_per_operation_and_cover_the_contract(tmp_path):
    with spans.Tracer() as tracer:
        pass
    tracer.spans = [
        spans.Span("weights.load_weights", 0.0, 0.010, phase="setup"),
        spans.Span("model.decode", 1.0, 1.004, phase="measure",
                   counts={"tokens": 1, "flops": 7, "kv_bytes": 10}),
        spans.Span("model.decode", 2.0, 2.002, phase="measure",
                   counts={"tokens": 1, "flops": 7, "kv_bytes": 30}),
        spans.Span("model.decode", 3.0, 3.5, phase="check",
                   counts={"tokens": 1, "flops": 7, "kv_bytes": 50}),
    ]
    run = workloads.Run(1, 1.0, tmp_path)
    run.ops = 2
    run.setup_rep_s = [0.1] * 5
    run.phase_s = {"setup": 0.5, "measure": 3.0, "check": 1.0}
    layers = runner.layer_metrics(run, tracer)

    assert set(runner.PER_LAYER) <= set(layers)
    # the check phase's span is left out; the rest is divided by 2 ops
    assert layers["model.decode.ms_per_op"] == pytest.approx(3.0)
    assert layers["model.decode.ms_per_call"] == pytest.approx(3.0)
    assert layers["model.decode.calls_per_op"] == 1.0
    assert layers["model.decode.kv_bytes_per_op"] == 20.0
    assert layers["retrieval.bm25_topk.ms_per_op"] == 0.0
    assert "retrieval.bm25_topk.ms_per_call" not in layers
    assert layers["weights.load_weights.setup_ms"] == pytest.approx(2.0)
