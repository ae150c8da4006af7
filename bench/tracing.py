"""Per-layer timing for the traced run.

Hooks wrap the program's public functions where their callers look them up:
methods on the class, module functions at the name the calling module bound.
Each call is a span; a span's self time is its duration minus that of the
hooked calls it made. Spans are summed per name as they close rather than
kept one by one, because a desk run makes about a hundred thousand of them.
A hook whose target no longer exists is skipped, and the metrics that need
it are then absent from the output.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.total_ms: dict[str, float] = defaultdict(float)
        self.self_ms: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.count: dict[str, float] = defaultdict(float)
        self.hooked: set[str] = set()
        self._open: list[list] = []  # [name, child seconds] of each open span

    def hook(self, owner, attr: str, name: str, on_result=None, on_error=None) -> None:
        """Replace ``owner.attr`` with a timed wrapper, if it exists."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            tracer._open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                elapsed = time.perf_counter() - start
                tracer._open.pop()
                tracer.total_ms[name] += 1000 * elapsed
                tracer.self_ms[name] += 1000 * (elapsed - frame[1])
                tracer.calls[name] += 1
                if tracer._open:
                    tracer._open[-1][1] += elapsed
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self.hooked.add(name)

    def add_to_open(self, key: str, value: float) -> None:
        """Credit ``value`` to ``key`` of every enclosing open span."""
        for span_name, _ in self._open:
            self.count[f"{span_name}/{key}"] += value


def install(tracer: Tracer, charmer) -> None:
    """Hook the layers of the ``charmer`` package (its submodules imported)."""
    attack, classifier, harness, pga = charmer.attack, charmer.classifier, charmer.harness, charmer.pga
    sentence, remote = charmer.sentence, charmer.remote

    def features(t, args, kwargs, result):
        texts = args[1] if len(args) > 1 else kwargs["texts"]
        t.count["classifier.rows"] += len(texts)
        t.count["classifier.chars"] += sum(map(len, texts))

    def scored(t, args, kwargs, result):
        t.count["oracle.rows"] += len(result)
        t.add_to_open("rows", len(result))

    def candidates(t, args, kwargs, result):
        t.count["attack.candidates"] += len(result)

    def grad(t, args, kwargs, result):
        features = args[1] if len(args) > 1 else kwargs["candidate_features"]
        t.count["pga.grad_rows"] += features.shape[0]

    def overflow(t, exc):
        if isinstance(exc, sentence.BallBudgetError):
            t.count["sentence.ball_overflows"] += 1

    tracer.hook(classifier, "train_builtin", "classifier.train")
    tracer.hook(classifier.BuiltinClassifier, "features", "classifier.features", on_result=features)
    tracer.hook(classifier.BuiltinClassifier, "logits", "classifier.logits")
    for cls in (classifier.BuiltinOracle, remote.RemoteOracle):
        tracer.hook(cls, "score_batch", "oracle.score_batch", on_result=scored)
    tracer.hook(attack, "select_positions", "attack.probe")
    tracer.hook(attack, "candidate_edits", "attack.candidates", on_result=candidates)
    tracer.hook(attack, "cw_loss", "attack.cw_loss")
    for module in (harness, pga):
        tracer.hook(module, "levenshtein", "sentence.levenshtein")
    tracer.hook(pga, "enumerate_ball", "sentence.ball", on_error=overflow)
    tracer.hook(pga, "mixture_loss_and_grad", "pga.grad", on_result=grad)
    tracer.hook(pga, "project_simplex", "pga.project")


def layer_sums(tracer: Tracer) -> dict[str, float]:
    """Additive per-layer quantities of one suite; absent where unhooked."""
    h = tracer.hooked
    out: dict[str, float] = {}

    def put(metric, span, value):
        if span in h:
            out[metric] = value

    put("classifier.train_ms", "classifier.train", tracer.total_ms["classifier.train"])
    put("classifier.features_ms", "classifier.features", tracer.total_ms["classifier.features"])
    put("classifier.rows", "classifier.features", tracer.count["classifier.rows"])
    put("classifier.chars", "classifier.features", tracer.count["classifier.chars"])
    put("classifier.matmul_ms", "classifier.logits", tracer.self_ms["classifier.logits"])
    put("oracle.batches", "oracle.score_batch", tracer.calls["oracle.score_batch"])
    put("oracle.rows", "oracle.score_batch", tracer.count["oracle.rows"])
    put("attack.probe_ms", "attack.probe", tracer.self_ms["attack.probe"])
    if "oracle.score_batch" in h:
        put("attack.probes", "attack.probe", tracer.count["attack.probe/rows"])
    put("attack.candidates_ms", "attack.candidates", tracer.total_ms["attack.candidates"])
    put("attack.candidates", "attack.candidates", tracer.count["attack.candidates"])
    put("attack.cw_loss_ms", "attack.cw_loss", tracer.total_ms["attack.cw_loss"])
    put("sentence.levenshtein_ms", "sentence.levenshtein", tracer.total_ms["sentence.levenshtein"])
    put("sentence.levenshtein_calls", "sentence.levenshtein", tracer.calls["sentence.levenshtein"])
    put("sentence.ball_ms", "sentence.ball", tracer.total_ms["sentence.ball"])
    put("sentence.ball_overflows", "sentence.ball", tracer.count["sentence.ball_overflows"])
    put("pga.grad_ms", "pga.grad", tracer.total_ms["pga.grad"])
    put("pga.grad_calls", "pga.grad", tracer.calls["pga.grad"])
    put("pga.grad_rows", "pga.grad", tracer.count["pga.grad_rows"])
    put("pga.project_ms", "pga.project", tracer.total_ms["pga.project"])
    put("pga.steps", "pga.project", tracer.calls["pga.project"])
    return out
