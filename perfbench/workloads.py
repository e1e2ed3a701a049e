"""The four benchmark workloads, each a closed loop with one client.

Every workload is built from ``--seed`` alone: lookup corpora and questions
come from ``make_lookup_task`` and the weights from
``init_weights(ModelConfig(init_seed=0))``, saved and reloaded as ``.cagw``.
All calls go through cagkit's public functions, looked up on their modules
so that an installed tracer sees them.

A workload runs in four phases. ``inputs`` generates them from the seed.
``setup`` is repeated ``SETUP_REPEATS`` times (weights, warm-up, cache and
index builds) and the last repetition's state is measured. ``measure`` runs
whole operations until ``--seconds`` have passed and at least the workload's
minimum count is done. ``check`` re-runs a sample of operations through a
second path whose output must be identical.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from cagkit import kvcache, model, retrieval, training, weights
from cagkit.config import ModelConfig, TrainConfig
from cagkit.errors import CagError
from cagkit.rng import MASK64, SplitMix64, mix64
from cagkit.tokenizer import SEP, tokenize

from checks import (Checks, Digest, caches_bitwise_equal, finite_loss,
                    same_tokens, weights_bitwise_equal)

SETUP_REPEATS = 5
ANSWER_TOKENS = 16
DISTRACTOR_RATE = 0.5
TOP_K = 5

clock = time.perf_counter


class Run:
    """State of one benchmark run: samples, checks, digest and phases."""

    def __init__(self, seed: int, seconds: float, workdir, tracer=None):
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer
        self.config = ModelConfig(init_seed=0)
        self.rng = SplitMix64(mix64(seed))
        self.checks = Checks()
        self.digest = Digest()
        self.samples: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.info: dict[str, int] = {}
        self.phase_s: dict[str, float] = {}
        self.setup_rep_s: list[float] = []
        self.ops = 0
        self.ops_failed = 0
        self.failures: list[str] = []
        self.window_s = 0.0

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def qid(self, i: int) -> None:
        if self.tracer is not None:
            self.tracer.qid = i

    @contextmanager
    def phase(self, name: str):
        if self.tracer is not None:
            self.tracer.phase = name
            self.tracer.qid = -1
        t0 = clock()
        try:
            yield
        finally:
            self.phase_s[name] = self.phase_s.get(name, 0.0) + clock() - t0

    def task(self, n_pairs: int):
        return training.make_lookup_task(n_pairs, DISTRACTOR_RATE,
                                         seed=self.rng.next_u64())

    def order(self, n: int) -> list[int]:
        idx = list(range(n))
        self.rng.shuffle(idx)
        return idx

    def setup(self, build):
        """Run ``build`` SETUP_REPEATS times; time each, return the last."""
        state = None
        with self.phase("setup"):
            for _ in range(SETUP_REPEATS):
                t0 = clock()
                state = build()
                self.setup_rep_s.append(clock() - t0)
        return state

    def measure(self, op, min_ops: int) -> None:
        """Closed loop: the next operation starts when the previous ends."""
        with self.phase("measure"):
            t0 = clock()
            while self.ops < min_ops or clock() - t0 < self.seconds:
                self.qid(self.ops)
                t_op = clock()
                try:
                    op(self.ops)
                except CagError as exc:
                    self.ops_failed += 1
                    self.failures.append(f"op {self.ops}: {exc!r}")
                else:
                    self.sample("op_s", clock() - t_op)
                self.ops += 1
            self.window_s = clock() - t0

    def load_model(self):
        """Initial weights written to ``.cagw`` and read back."""
        path = self.workdir / "model.cagw"
        fresh = weights.init_weights(self.config)
        weights.save_weights(fresh, path)
        loaded = weights.load_weights(path, self.config)
        self.checks.record("weights_round_trip",
                           weights_bitwise_equal(fresh, loaded))
        return loaded


def stream_answer(run: Run, w, cache, query_tokens, record: bool = True):
    """Client-side streaming: one call for SEP+query, then one per token.

    Emits a fixed ANSWER_TOKENS tokens (the lowest-id argmax each time, as
    ``greedy_generate`` picks them). With ``record`` it samples the time to
    first token and the gap before every later token.
    """
    t0 = clock()
    tok = int(np.argmax(model.forward_extend(w, cache,
                                             [SEP] + list(query_tokens))[-1]))
    ttft = clock() - t0
    gaps = []
    out = [tok]
    for _ in range(ANSWER_TOKENS - 1):
        t = clock()
        tok = int(np.argmax(model.forward_extend(w, cache, [tok])[-1]))
        gaps.append(clock() - t)
        out.append(tok)
    if record:
        run.sample("ttft_s", ttft)
        run.samples.setdefault("tpot_s", []).extend(gaps)
    return out


def check_against_generate(run: Run, w, cache, mark, query_tokens,
                           streamed) -> None:
    """Streamed tokens equal ``greedy_generate``'s, and a re-ask after
    ``truncate_to`` streams the same tokens again."""
    ref = model.greedy_generate(w, cache, query_tokens,
                                max_new_tokens=ANSWER_TOKENS,
                                stop_at_eos=False).tokens
    kvcache.truncate_to(cache, mark)
    run.checks.record("stream_equals_greedy_generate",
                      same_tokens(streamed, ref))
    again = stream_answer(run, w, cache, query_tokens, record=False)
    kvcache.truncate_to(cache, mark)
    run.checks.record("reask_after_truncate", same_tokens(streamed, again))


def shuffled_questions(run: Run, task) -> list[list[int]]:
    return [tokenize(task.queries[i][0]) for i in run.order(len(task.queries))]


def cag_qa_2k_inputs(run: Run):
    """84 pairs (~1.9k cache tokens) and every question, shuffled.

    With the question and answer the cache stays below 2048 rows for every
    seed, so its buffer never doubles mid-session; at 88 pairs some seeds
    cross that step and peak memory differs by seed.
    """
    task = run.task(84)
    return training.task_to_corpus(task), shuffled_questions(run, task)


def cag_qa_2k(run: Run) -> None:
    """Steady-state CAG session: a ~2k-token cache, many short questions."""
    with run.phase("inputs"):
        corpus, questions = cag_qa_2k_inputs(run)

    def build():
        w = run.load_model()
        cache = kvcache.kv_encode(w, corpus)
        stream_answer(run, w, cache, questions[-1], record=False)
        kvcache.truncate_to(cache, cache.doc_mark)
        return w, cache

    w, cache = run.setup(build)
    mark = cache.doc_mark
    run.info["cache_tokens"] = cache.n_tokens
    answers: dict[int, list[int]] = {}
    digest_ops = 32

    def op(i):
        qi = i % len(questions)
        toks = stream_answer(run, w, cache, questions[qi])
        kvcache.truncate_to(cache, mark)
        run.count("queries")
        if qi in answers:
            run.checks.record("reask_after_truncate",
                              same_tokens(toks, answers[qi]), f"question {qi}")
        else:
            answers[qi] = toks
        if i < digest_ops:
            run.digest.tokens(f"q{qi}", toks)

    run.measure(op, min_ops=digest_ops)
    with run.phase("check"):
        for qi in range(4):
            check_against_generate(run, w, cache, mark, questions[qi],
                                   answers[qi])


def cag_cold_6k_inputs(run: Run):
    """256 pairs (~5.9k tokens), shuffled questions, a 4-pair warm-up."""
    task = run.task(256)
    return (training.task_to_corpus(task), shuffled_questions(run, task),
            training.task_to_corpus(run.task(4)))


def cag_cold_6k(run: Run) -> None:
    """Cold start at ~5.9k tokens: encode, persist, verify, reload, ask."""
    with run.phase("inputs"):
        corpus, questions, warm_corpus = cag_cold_6k_inputs(run)
    path = run.workdir / "knowledge.cagc"
    per_cycle = 4

    def build():
        w = run.load_model()
        # warm the encode/save/verify/load path on a tiny corpus
        small = kvcache.kv_encode(w, warm_corpus)
        kvcache.save_cache(small, path)
        kvcache.verify_cache(path)
        kvcache.load_cache(path, w.hash)
        return w

    w = run.setup(build)
    last = {}

    def op(i):
        last.pop("cache", None)  # hold one cycle's caches at a time
        t0 = clock()
        cache = kvcache.kv_encode(w, corpus)
        t1 = clock()
        kvcache.save_cache(cache, path)
        t2 = clock()
        header = kvcache.verify_cache(path)
        t3 = clock()
        loaded = kvcache.load_cache(path, w.hash)
        t4 = clock()
        run.sample("encode_s", t1 - t0)
        run.sample("save_s", t2 - t1)
        run.sample("verify_s", t3 - t2)
        run.sample("load_s", t4 - t3)
        run.info["cache_tokens"] = cache.n_tokens
        run.checks.record("verify_cache",
                          header["n_tokens"] == cache.n_tokens, f"cycle {i}")
        run.checks.record("load_equals_encode",
                          caches_bitwise_equal(cache, loaded), f"cycle {i}")
        mark = loaded.doc_mark
        for j in range(per_cycle):
            q = questions[(i * per_cycle + j) % len(questions)]
            toks = stream_answer(run, w, loaded, q)
            kvcache.truncate_to(loaded, mark)
            if i == 0:
                run.digest.tokens(f"c0q{j}", toks)
                last.setdefault("answer", toks)
        last["cache"] = loaded

    run.measure(op, min_ops=2)
    with run.phase("check"):
        run.info["cache_file_bytes"] = path.stat().st_size
        cache = last["cache"]
        check_against_generate(run, w, cache, cache.doc_mark, questions[0],
                               last["answer"])


def rag_qa_1k_inputs(run: Run):
    """48 pairs (~1.1k tokens) and every question with its gold document."""
    task = run.task(48)
    qa = training.task_to_qa(task)
    return (training.task_to_corpus(task),
            [qa[i] for i in run.order(len(qa))])


def rag_qa_1k(run: Run) -> None:
    """The paper's comparison: CAG, sparse RAG, dense RAG and recompute."""
    with run.phase("inputs"):
        corpus, qa = rag_qa_1k_inputs(run)
        prefix = kvcache.corpus_prefix_tokens(corpus)
    run.info["cache_tokens"] = len(prefix)
    recompute_every = 4
    digest_ops = 8

    def answer_all(w, cache, sparse, dense, pair, i=None):
        """Every system answers question ``i``; None is the warm-up."""
        qtext = pair.question
        qtok = tokenize(qtext)
        t0 = clock()
        cag = stream_answer(run, w, cache, qtok, record=i is not None)
        kvcache.truncate_to(cache, cache.doc_mark)
        t1 = clock()
        hits = retrieval.bm25_topk(sparse, qtext, TOP_K)
        rag_s = retrieval.rag_generate(w, hits, corpus, qtext,
                                       max_new_tokens=ANSWER_TOKENS)
        t2 = clock()
        near = retrieval.dense_topk(dense, w, qtext, TOP_K)
        rag_d = retrieval.rag_generate(w, near, corpus, qtext,
                                       max_new_tokens=ANSWER_TOKENS)
        t3 = clock()
        if i is None:
            return
        run.sample("cag_s", t1 - t0)
        run.sample("rag_sparse_s", t2 - t1)
        run.sample("rag_dense_s", t3 - t2)
        # rag_generate stops at EOS, so a RAG answer can be shorter than
        # the CAG stream's fixed length; time per emitted token compares
        # them on equal terms
        run.sample("cag_token_s", (t1 - t0) / len(cag))
        run.sample("rag_sparse_token_s", (t2 - t1) / rag_s.n_new_tokens)
        run.sample("rag_dense_token_s", (t3 - t2) / rag_d.n_new_tokens)
        run.count("rag_sparse_tokens", rag_s.n_new_tokens)
        run.count("rag_dense_tokens", rag_d.n_new_tokens)
        run.count("questions")
        run.count("sparse_hits", pair.doc_ids[0] in hits.doc_ids())
        run.count("dense_hits", pair.doc_ids[0] in near.doc_ids())
        if i < digest_ops:
            run.digest.tokens(f"q{i}.cag", cag)
            run.digest.tokens(f"q{i}.sparse", rag_s.tokens)
            run.digest.tokens(f"q{i}.dense", rag_d.tokens)
        if i % recompute_every == 0:
            fresh = kvcache.new_cache(w.config)
            t4 = clock()
            full = model.greedy_generate(
                w, fresh, model.recompute_prompt_tokens(prefix, qtok)[1:],
                max_new_tokens=ANSWER_TOKENS, stop_at_eos=False)
            run.sample("recompute_s", clock() - t4)
            run.checks.record("cached_equals_recompute",
                              same_tokens(cag, full.tokens), f"question {i}")
            if i < digest_ops:
                run.digest.tokens(f"q{i}.recompute", full.tokens)

    def build():
        w = run.load_model()
        cache = kvcache.kv_encode(w, corpus)
        sparse = retrieval.bm25_build(corpus)
        dense = retrieval.dense_build(w, corpus)
        answer_all(w, cache, sparse, dense, qa[-1])
        return w, cache, sparse, dense

    w, cache, sparse, dense = run.setup(build)
    mark = cache.doc_mark

    def op(i):
        pair = qa[i % len(qa)]
        answer_all(w, cache, sparse, dense, pair, i)

    run.measure(op, min_ops=max(digest_ops, 2 * recompute_every))
    with run.phase("check"):
        qtok = tokenize(qa[0].question)
        streamed = stream_answer(run, w, cache, qtok, record=False)
        kvcache.truncate_to(cache, mark)
        check_against_generate(run, w, cache, mark, qtok, streamed)


# n_pairs <= 4 takes the mixed-batch path, larger ones the shared prefix
TRAIN_SCHEDULE = (2, 4, 8, 16)


@contextmanager
def counting_train_tokens(run: Run):
    """Count the tokens of every training batch, untraced runs included.

    Tokens per step depend on the sampled tasks, and only the batch the
    trainer builds knows them; this adds one Python call per step.
    """
    plain, shared = training.loss_and_grads, training.loss_and_grads_shared

    def counted_plain(w, tokens, *args, **kwargs):
        run.count("train_tokens", int(tokens.size))
        return plain(w, tokens, *args, **kwargs)

    def counted_shared(w, prefix_tokens, suffix_tokens, *args, **kwargs):
        run.count("train_tokens", len(prefix_tokens) + int(suffix_tokens.size))
        return shared(w, prefix_tokens, suffix_tokens, *args, **kwargs)

    training.loss_and_grads = counted_plain
    training.loss_and_grads_shared = counted_shared
    try:
        yield
    finally:
        training.loss_and_grads = plain
        training.loss_and_grads_shared = shared


def train_lookup_inputs(run: Run):
    """The base of the training-step seeds and an 8-pair probe task."""
    return run.rng.next_u64(), run.task(8)


def train_steps(run: Run) -> None:
    """A fixed, seeded sequence of single train_lookup steps."""
    with run.phase("inputs"):
        base, probe = train_lookup_inputs(run)

    def step(w, state, n_pairs, k):
        """Training step number ``k``; step 0 is the warm-up."""
        lines: list[str] = []
        seed = mix64((base + k) & MASK64)
        training.train_lookup(run.config, TrainConfig(steps=1, seed=seed),
                              distractor_rate=DISTRACTOR_RATE,
                              ladder=(n_pairs,), curriculum=False,
                              log_every=1, log_fn=lines.append, weights=w,
                              state=state)
        return lines[-1]

    def build():
        w = run.load_model()
        state = training.AdamState.init(w)
        step(w, state, TRAIN_SCHEDULE[0], 0)
        return w, state

    with counting_train_tokens(run):
        w, state = run.setup(build)
        run.counts.pop("train_tokens", None)

        def op(i):
            for j, n_pairs in enumerate(TRAIN_SCHEDULE):
                t0 = clock()
                line = step(w, state, n_pairs, 1 + i * len(TRAIN_SCHEDULE) + j)
                run.sample("train_step_s", clock() - t0)
                run.checks.record("finite_loss", finite_loss(line), line)
            if i == 0:
                run.digest.weights("after_cycle0", w)

        run.measure(op, min_ops=2)

    with run.phase("check"):
        # the trained weights answer the same through cache and recompute
        corpus = training.task_to_corpus(probe)
        cache = kvcache.kv_encode(w, corpus)
        mark = cache.doc_mark
        prefix = kvcache.corpus_prefix_tokens(corpus)
        for query, _ in probe.queries[:2]:
            qtok = tokenize(query)
            cached = model.greedy_generate(w, cache, qtok,
                                           max_new_tokens=ANSWER_TOKENS,
                                           stop_at_eos=False).tokens
            kvcache.truncate_to(cache, mark)
            full = model.greedy_generate(
                w, kvcache.new_cache(w.config),
                model.recompute_prompt_tokens(prefix, qtok)[1:],
                max_new_tokens=ANSWER_TOKENS, stop_at_eos=False).tokens
            run.checks.record("trained_cached_equals_recompute",
                              same_tokens(cached, full), query)


WORKLOADS = {
    "cag-qa-2k": cag_qa_2k,
    "cag-cold-6k": cag_cold_6k,
    "rag-qa-1k": rag_qa_1k,
    "train-lookup": train_steps,
}

INPUTS = {
    "cag-qa-2k": cag_qa_2k_inputs,
    "cag-cold-6k": cag_cold_6k_inputs,
    "rag-qa-1k": rag_qa_1k_inputs,
    "train-lookup": train_lookup_inputs,
}

