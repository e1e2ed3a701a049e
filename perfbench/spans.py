"""Span tracer that wraps cagkit's public functions from outside the package.

Each wrapped function is replaced at the module attribute where its callers
look it up, so calls made inside the package (``kv_encode`` calling
``forward_extend``, ``save_cache`` calling ``fnv1a64``) are recorded as child
spans. Spans are kept in memory as (name, start, end, parent, query id,
phase) and written out once at the end; per-layer totals per phase, self
time and coverage are derived from them afterwards. Nothing is wrapped
unless a ``Tracer`` is installed, so an untraced run executes the package
unchanged.

FLOP and byte counts are computed from tensor shapes, not measured.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    qid: int = -1
    phase: str = ""
    failed: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def forward_flops(cfg, start: int, n_new: int, block: int) -> int:
    """Multiply-add FLOPs of one ``forward_extend`` call, from shapes.

    Per token and layer: Q, K, V and output projections (8 d^2) and the two
    feed-forward matrices (4 d f); the tied output head adds 2 d V per token.
    Attention scores and the weighted sum cost 4 d per (query, key) pair over
    every key the block sees, as the implementation scores the full row.
    """
    d, f, v, layers = cfg.d_model, cfg.d_ffn, cfg.vocab_size, cfg.n_layers
    flops = n_new * (layers * (8 * d * d + 4 * d * f) + 2 * d * v)
    for lo in range(0, n_new, block):
        t = min(block, n_new - lo)
        flops += layers * 4 * d * t * (start + lo + t)
    return flops


def kv_bytes_read(cfg, start: int, n_new: int) -> int:
    """Bytes of float32 K and V rows one call attends over, from shapes."""
    return 2 * cfg.n_layers * (start + n_new) * cfg.d_model * 4


class Tracer:
    """Collects spans from wrapped functions; a context manager installs it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.qid = -1
        self.phase = ""
        # every span name the wrappers can record, with its count keys
        self.names: dict[str, tuple[str, ...]] = {}
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, classify) -> None:
        """Replace ``module.attr`` by a recording wrapper.

        ``classify(args, kwargs)`` returns the span name, its counts, and an
        optional ``post(result, counts)`` that adds counts from the result.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name, counts, post = classify(args, kwargs)
            span = Span(name, time.perf_counter(),
                        parent=tracer._open[-1] if tracer._open else -1,
                        qid=tracer.qid, phase=tracer.phase, counts=counts)
            tracer.spans.append(span)
            tracer._open.append(len(tracer.spans) - 1)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
            if post is not None:
                post(result, counts)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def install(self) -> None:
        """Wrap the public functions of every measured cagkit layer."""
        from cagkit import kvcache, model, retrieval, training, weights

        def fixed(name, key=None, before=None, after=None):
            """Span ``name``, counting ``key`` from the arguments (``before``)
            or from the result (``after``)."""
            self.names[name] = (key,) if key else ()

            def post(result, counts):
                counts[key] = after(result)

            def classify(args, kwargs):
                counts = {key: before(*args, **kwargs)} if before else {}
                return name, counts, post if after else None
            return classify

        def forward(args, kwargs):
            w, cache, new_tokens = args[:3]
            n = len(new_tokens)
            block = kwargs.get("block_size", model.DEFAULT_BLOCK)
            counts = {"tokens": n,
                      "flops": forward_flops(w.config, cache.n_tokens, n,
                                             block)}
            if n == 1:
                counts["kv_bytes"] = kv_bytes_read(w.config, cache.n_tokens, 1)
                return "model.decode", counts, None
            return "model.prefill", counts, None

        def file_bytes(header):
            return kvcache.cache_file_size(header["n_layers"],
                                           header["n_heads"],
                                           header["head_dim"],
                                           header["n_tokens"])

        self.names["model.prefill"] = ("tokens", "flops")
        self.names["model.decode"] = ("tokens", "flops", "kv_bytes")
        self.wrap(model, "forward_extend", forward)
        generate = fixed("model.greedy_generate")
        self.wrap(model, "greedy_generate", generate)
        self.wrap(retrieval, "greedy_generate", generate)
        self.wrap(kvcache, "kv_encode", fixed(
            "kvcache.kv_encode", "tokens", after=lambda c: c.n_tokens))
        self.wrap(kvcache, "save_cache", fixed(
            "kvcache.save_cache", "bytes", after=int))
        self.wrap(kvcache, "verify_cache", fixed(
            "kvcache.verify_cache", "bytes", after=file_bytes))
        self.wrap(kvcache, "load_cache", fixed(
            "kvcache.load_cache", "bytes", after=lambda c: file_bytes(
                {"n_layers": c.n_layers, "n_heads": c.n_heads,
                 "head_dim": c.head_dim, "n_tokens": c.n_tokens})))
        self.wrap(kvcache, "fnv1a64", fixed(
            "kvcache.fnv1a64", "bytes", before=len))
        self.wrap(kvcache, "truncate_to", fixed("kvcache.truncate_to"))
        for attr in ("bm25_build", "bm25_topk", "dense_build", "dense_topk",
                     "embed_text", "rag_generate"):
            self.wrap(retrieval, attr, fixed(f"retrieval.{attr}"))
        # the benchmark calls train_lookup for exactly one step at a time
        self.wrap(training, "train_lookup", fixed("training.step"))
        self.wrap(training, "make_lookup_task", fixed("training.task_gen"))
        for attr in ("loss_and_grads", "loss_and_grads_shared", "adam_step"):
            self.wrap(training, attr, fixed(f"training.{attr}"))
        self.wrap(weights, "init_weights", fixed("weights.init_weights"))
        self.wrap(weights, "load_weights", fixed("weights.load_weights"))
        self.wrap(weights, "save_weights", fixed(
            "weights.save_weights", "bytes", after=int))

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


def aggregate(spans: list[Span], names: dict[str, tuple[str, ...]],
              phase: str) -> dict[str, dict]:
    """Per span name of one phase: calls, failed, total and self seconds,
    and summed counts.

    Every name in ``names`` is present with each of its count keys, so a
    function the phase never called reads as zero calls and zero time.
    """
    out = {name: dict.fromkeys(("calls", "failed", "s", "self_s") + keys, 0)
           for name, keys in names.items()}
    for span, own in zip(spans, self_seconds(spans)):
        if span.phase != phase:
            continue
        agg = out.setdefault(span.name, {"calls": 0, "failed": 0, "s": 0.0,
                                         "self_s": 0.0})
        agg["calls"] += 1
        agg["failed"] += span.failed
        agg["s"] += span.seconds
        agg["self_s"] += own
        for key, val in span.counts.items():
            agg[key] = agg.get(key, 0) + val
    return out


def under(spans: list[Span], ancestor: str, name: str, key: str,
          phase: str) -> int:
    """Sum of count ``key`` over spans ``name`` of one phase nested below
    ``ancestor``."""
    inside = [False] * len(spans)
    total = 0
    for i, s in enumerate(spans):
        inside[i] = s.parent >= 0 and (inside[s.parent]
                                       or spans[s.parent].name == ancestor)
        if inside[i] and s.name == name and s.phase == phase:
            total += s.counts.get(key, 0)
    return total


def covered_seconds(spans: list[Span], phase: str) -> float:
    """Time covered by top-level spans of one phase (they never overlap)."""
    return sum(s.seconds for s in spans if s.parent < 0 and s.phase == phase)
