"""Greedy character-level attack: position selection, candidate search, loop.

Each iteration probes every expanded position with a test character to rank
positions by loss impact, builds every single-edit candidate at the top
positions, scores them in one batch and moves to the highest-loss candidate.
Position importances are recomputed against the current sentence after every
accepted edit. The random-position baseline draws the positions instead, and
the exhaustive single-edit scan is one step at every position: all three are
one loop, ``_greedy_attack``, which builds its candidates one way.

Tie-breaking everywhere is lowest index first: positions are ranked stably
and candidates are generated in canonical order (position ascending, then
alphabet order, sentinel last), so the first maximum wins.

Every attack is written as steps, ``fn(s, y, config)``: a generator that
yields each request and returns the ``AttackOutcome``. Only pga's steps
(``harness.STEPS``), which score on the classifier and make no request, read
the label ``y``; the greedy ones leave it to the losses. A scoring request
(a list of sentences or an ``EditRequest``) is sent the CW losses of its
rows; a ``BuildRequest`` (a base, positions and a PJC mask) is sent its
greedy candidates as ``(m, 2)`` ``[position, code]`` rows. A step keeps only
its ranking, its first-maximum choice and its budget checks:
``answer_requests`` answers the requests of many steps at once, with one
``candidate_edits`` call for all builds, one oracle call per kind of scoring
request and one ``cw_loss`` call, with a label per row, for each call's
rows. ``drive`` is the one loop that sends answers to steps: the harness
runs a chunk of records through it in lockstep, and each one-record
function (``charmer_attack``, ...) is ``drive`` of one run.
"""

from __future__ import annotations

import itertools
import random
import re
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .oracle import EditRequest, Oracle, OracleError, check_edits, cw_loss, request_rows, score_together
from .sentence import XI, Alphabet, distinct_edits, single_edit

_LOWER_ENGLISH = frozenset("abcdefghijklmnopqrstuvwxyz")
_WORD = re.compile("[^ ]+")


@dataclass(frozen=True)
class PjcConstraints:
    """Word-recognition attack restrictions; a word is a maximal run of
    non-space characters."""

    repeat: bool = False  # never perturb the same word twice
    first: bool = False  # never perturb the first character of a word
    last: bool = False  # never perturb the last character of a word
    length: bool = False  # never perturb words shorter than 4 characters
    loweng: bool = False  # only perturb lowercase English letters

    FLAG_NAMES = ("repeat", "first", "last", "length", "loweng")

    @classmethod
    def all_enabled(cls) -> "PjcConstraints":
        return cls(True, True, True, True, True)

    @classmethod
    def from_names(cls, names: Sequence[str]) -> "PjcConstraints":
        names = [n.strip().lower() for n in names if n.strip()]
        unknown = set(names) - set(cls.FLAG_NAMES)
        if unknown:
            raise ValueError(f"unknown constraint flags: {sorted(unknown)}")
        return cls(**{n: True for n in names})

    def any(self) -> bool:
        return self.repeat or self.first or self.last or self.length or self.loweng


def check_counts(config, *names: str) -> None:
    """Raise ``ValueError`` unless each named field of ``config`` is an int >= 1 (a bool is not)."""
    for name in names:
        value = getattr(config, name)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, not {value!r}")


@dataclass
class AttackConfig:
    alphabet: Alphabet
    n: int = 20  # candidate positions per iteration; 1 = fast mode
    k: int = 10  # maximum number of greedy edits
    constraints: PjcConstraints = field(default_factory=PjcConstraints)
    segment_preselect: Optional[int] = None  # restrict edits to the top-m segments
    budget: Optional[int] = None  # maximum scored sentences
    seed: int = 0  # used only by the random-position baseline

    def __post_init__(self):
        check_counts(self, "n", "k")
        check_counts(self, *(name for name in ("budget", "segment_preselect") if getattr(self, name) is not None))


@dataclass
class TraceStep:
    position: Optional[int]
    char: Optional[str]
    loss: float


@dataclass
class AttackOutcome:
    original: str
    adversarial: str
    success: bool
    edits_used: int
    final_loss: Optional[float]
    queries: int
    elapsed: float
    trace: list[TraceStep]


def word_spans(s: str) -> list[tuple[int, int]]:
    """1-based inclusive (start, end) character spans of maximal non-space runs."""
    return [(m.start() + 1, m.end()) for m in _WORD.finditer(s)]


def _owner_word(spans: list[tuple[int, int]], i: int) -> Optional[int]:
    # a word over chars [a, b] owns expanded positions 2a-1 .. 2b+1
    for w, (a, b) in enumerate(spans):
        if 2 * a - 1 <= i <= 2 * b + 1:
            return w
    return None


class EditHistory:
    """Tracks which words were already perturbed, following spans through edits."""

    def __init__(self):
        self.edited: set[int] = set()

    def record(self, old_sentence: str, position: int, char: str, new_sentence: str) -> None:
        if new_sentence == old_sentence:
            return
        # mark the edited and the touched words' characters and splice the marks
        # like the sentence: an inserted or replaced character is marked
        old_spans = word_spans(old_sentence)
        touched = _owner_word(old_spans, position)
        marks = [" "] * len(old_sentence)
        for w in self.edited | ({touched} if touched is not None else set()):
            a, b = old_spans[w]
            marks[a - 1 : b] = "x" * (b - a + 1)
        spliced = single_edit("".join(marks), position, XI if char == XI else "x")
        self.edited = {w for w, (a, b) in enumerate(word_spans(new_sentence)) if "x" in spliced[a - 1 : b]}


def pjc_violates(
    s: str,
    i: int,
    c: str,
    constraints: PjcConstraints,
    edited_words: set[int] | frozenset[int] = frozenset(),
    spans: Optional[list[tuple[int, int]]] = None,
) -> bool:
    """Whether replacing expanded position ``i`` with ``c`` breaks a constraint.

    Edits that leave the sentence unchanged never violate anything; callers
    are expected to skip the check for those.
    """
    if spans is None:
        spans = word_spans(s)
    even = i % 2 == 0
    if constraints.loweng:
        if even and s[i // 2 - 1] not in _LOWER_ENGLISH:
            return True
        if c != XI and c not in _LOWER_ENGLISH:
            return True
    w = _owner_word(spans, i)
    if w is not None:
        a, b = spans[w]
        if constraints.first and i in (2 * a - 1, 2 * a):
            return True
        if constraints.last and i in (2 * b, 2 * b + 1):
            return True
        if constraints.length and (b - a + 1) < 4:
            return True
        if constraints.repeat and w in edited_words:
            return True
    return False


class BuildRequest(NamedTuple):
    """The greedy candidates of ``base`` to build: at ``positions`` (sorted, distinct), every replacement
    character that the PJC ``keep`` mask over that grid lets through, or every one when it is ``None``."""

    base: str
    positions: list[int]
    keep: Optional[list[list[bool]]]


def build_request(
    s: str,
    positions: Sequence[int],
    alphabet: Alphabet,
    constraints: Optional[PjcConstraints] = None,
    history: Optional[EditHistory] = None,
) -> BuildRequest:
    """What to build for the candidates of ``s`` at ``positions`` (``candidate_edits``).

    Positions are sorted ascending so the candidate order is independent of
    the ranking that produced them; a sentence rejected at one
    parametrization may still enter through another.
    """
    positions = sorted(set(positions))
    keep = None
    if constraints is not None and constraints.any():
        chars = alphabet.replacement_chars()
        spans = word_spans(s)
        edited = history.edited if history is not None else frozenset()
        # the no-op edit never violates anything
        keep = [
            [single_edit(s, i, c) == s or not pjc_violates(s, i, c, constraints, edited, spans) for c in chars]
            for i in positions
        ]
    return BuildRequest(s, positions, keep)


def candidate_edits(builds: Sequence[BuildRequest], alphabet: Alphabet) -> np.ndarray:
    """The distinct single edits of many builds in canonical order, as ``(m, 3)`` ``[build, position, code]`` rows.

    One ``sentence.distinct_edits`` call over every build, with the
    alphabet's replacement characters; the rows of build ``b`` follow those
    of build ``b - 1``.
    """
    return distinct_edits(
        [b.base for b in builds], [b.positions for b in builds], alphabet.replacement_chars(), [b.keep for b in builds]
    )


def _probe_request(s: str, test_char: str, allowed: Optional[set[int]]) -> EditRequest:
    """One probe edit per expanded position that ``allowed`` admits (all when it is ``None``).

    Probes replace the position with the test character, or with the
    sentinel when the test character already sits there.
    """
    probe = ord(test_char)
    codes = np.full(2 * len(s) + 1, probe, dtype=np.int64)
    # an even position whose character is the test character is probed with the sentinel
    codes[1::2] = np.where(np.fromiter(map(ord, s), dtype=np.int64, count=len(s)) == probe, 0, probe)
    idxs = np.arange(1, len(codes) + 1)
    if allowed is not None:
        idxs = np.sort(np.fromiter(allowed, dtype=np.int64, count=len(allowed)))
        idxs = idxs[(idxs >= 1) & (idxs <= len(codes))]
    return EditRequest(s, idxs, codes[idxs - 1])


def select_positions(probes: EditRequest, losses: np.ndarray, n: int) -> list[int]:
    """Rank the probed positions of ``probes`` (``_probe_request``) by their probe ``losses``.

    Returns at most ``n`` positions, highest loss first, lowest index on
    ties.
    """
    return probes.positions[np.argsort(-losses, kind="stable")[:n]].tolist()


def _segment_masks(s: str, spans: list[tuple[int, int]], test_char: str) -> list[str]:
    """``s`` with each word of ``spans`` replaced by the test character."""
    return [s[: a - 1] + test_char + s[b:] for a, b in spans]


def _top_segments(spans: list[tuple[int, int]], losses: np.ndarray, m: int) -> set[int]:
    """The expanded positions of the ``m`` segments of ``spans`` whose masks have the highest ``losses``."""
    allowed: set[int] = set()
    for j in np.argsort(-losses, kind="stable")[:m]:
        a, b = spans[j]
        allowed.update(range(2 * a - 1, 2 * b + 2))
    return allowed


def _greedy_attack(s: str, y: int, config: AttackConfig, pick: str = "probe"):
    """The greedy loop as steps: each step builds and scores the candidates at the positions that ``pick`` gives.

    ``"probe"`` ranks the positions by probe losses, through
    ``select_positions`` as this module binds it; ``"draw"`` draws them with
    ``random.Random(config.seed)``; ``"every"`` takes every one. All three
    pick among the positions of the top segments when ``segment_preselect``
    is set. A scoring request is made only while the budget allows all of
    its rows, and the queries are the rows answered.
    """
    rng = random.Random(config.seed) if pick == "draw" else None
    test_char = config.alphabet.test_char
    cur = s
    trace: list[TraceStep] = []
    history = EditHistory()
    success = False
    final_loss: Optional[float] = None
    queries = 0

    def budget_allows(batch_size: int) -> bool:
        return config.budget is None or queries + batch_size <= config.budget

    for _ in range(config.k):
        allowed = None
        if config.segment_preselect is not None:
            spans = word_spans(cur)
            if len(spans) > config.segment_preselect:
                if not budget_allows(len(spans)):
                    break
                losses = yield _segment_masks(cur, spans, test_char)
                queries += len(losses)
                allowed = _top_segments(spans, losses, config.segment_preselect)
        if pick == "probe":
            probes = _probe_request(cur, test_char, allowed)
            if not budget_allows(len(probes.positions)):  # one probe per position
                break
            losses = np.empty(0)
            if len(probes.positions):
                losses = yield probes
                queries += len(losses)
            positions = select_positions(probes, losses, config.n)
        else:
            positions = sorted(allowed) if allowed is not None else list(range(1, 2 * len(cur) + 2))
            if rng is not None:
                positions = rng.sample(positions, min(config.n, len(positions)))
        edits = yield build_request(cur, positions, config.alphabet, config.constraints, history)
        if not len(edits) or not budget_allows(len(edits)):
            break
        losses = yield EditRequest(cur, edits[:, 0], edits[:, 1])
        queries += len(losses)
        j = int(np.argmax(losses))  # first maximum on ties
        pos, char = int(edits[j, 0]), chr(edits[j, 1])
        chosen = single_edit(cur, pos, char)
        if config.constraints.repeat:  # the only constraint that reads the history
            history.record(cur, pos, char, chosen)
        cur = chosen
        final_loss = float(losses[j])
        trace.append(TraceStep(position=pos, char=char, loss=final_loss))
        if final_loss >= 0:
            success = True
            break

    return AttackOutcome(
        original=s,
        adversarial=cur,
        success=success,
        edits_used=len(trace),
        final_loss=final_loss,
        queries=queries,
        elapsed=0.0,
        trace=trace,
    )


def _exhaustive_k1(s: str, y: int, config: AttackConfig):
    """``exhaustive_k1`` as steps: one greedy step over every position, without constraints or segments."""
    one_step = replace(config, k=1, constraints=PjcConstraints(), segment_preselect=None)
    return _greedy_attack(s, y, one_step, pick="every")


def answer_requests(oracle: Oracle, alphabet: Alphabet, pending: dict) -> dict:
    """Each pending ``(request, label)``'s answer, or the ``OracleError`` of its request alone, and its seconds.

    Every ``BuildRequest`` is answered from one ``candidate_edits`` call, as
    its ``(m, 2)`` ``[position, code]`` rows. The scoring requests go into
    one oracle call per kind (``score_together``), sentences and edits, and
    each call's rows into one ``cw_loss`` call with each row's label; each
    request is answered with its rows' losses. A call of many requests that
    raises is made again one request at a time, in the order given, so that
    each error lands on its own request; a loss pass that raises is made
    again over each request's rows alone. The seconds of a call, its loss
    pass or the build are shared by its requests in proportion to their rows.
    """
    answers = {}
    builds = [i for i, (request, _) in pending.items() if isinstance(request, BuildRequest)]
    if builds:
        start = time.perf_counter()
        edits = candidate_edits([pending[i][0] for i in builds], alphabet)
        ends = np.searchsorted(edits[:, 0], np.arange(1, len(builds) + 1))
        share = (time.perf_counter() - start) / max(len(edits), 1)
        for i, lo, hi in zip(builds, [0, *ends[:-1].tolist()], ends.tolist()):
            answers[i] = (edits[lo:hi, 1:], share * (hi - lo))
    groups: dict = {}
    for i, (request, _) in pending.items():
        if i not in answers:
            groups.setdefault(isinstance(request, EditRequest), []).append(i)
    for members in groups.values():
        requests = [pending[i][0] for i in members]
        start = time.perf_counter()
        try:
            rows = score_together(oracle, requests)
        except Exception as exc:
            if len(members) > 1:  # made again one request at a time
                for i in members:
                    answers.update(answer_requests(oracle, alphabet, {i: pending[i]}))
            elif isinstance(exc, OracleError):
                answers[members[0]] = (exc, 0.0)
            else:
                raise
            continue
        sizes = [request_rows(r) for r in requests]
        bounds = list(zip(members, sizes, itertools.accumulate(sizes)))
        try:
            losses = cw_loss(rows, np.repeat([pending[i][1] for i in members], sizes))
            parts = [losses[end - size : end] for _, size, end in bounds]
        except OracleError:  # each request's rows alone, so that the error lands on its own request
            parts = [_losses(rows[end - size : end], pending[i][1]) for i, size, end in bounds]
        share = (time.perf_counter() - start) / max(sum(sizes), 1)
        for (i, size, _), part in zip(bounds, parts):
            answers[i] = (part, share * size)
    return answers


def _losses(rows: np.ndarray, label: int):
    """``cw_loss`` of ``rows`` with ``label``, or the ``OracleError`` it raises."""
    try:
        return cw_loss(rows, label)
    except OracleError as exc:
        return exc


def join_premise(premise: Optional[str], request):
    """``request`` of a record with ``premise`` as the oracle scores it, after the premise and a newline.

    Sentences get that prefix, and so does an ``EditRequest``'s base, with
    every expanded position moved by two per character of the prefix. The
    edits are checked against the base first: those the request would refuse
    without a premise raise its ``SentenceError`` here, rather than edit the
    premise. Without a premise, or for a ``BuildRequest``, whose candidates
    are edits of the hypothesis alone, the request is unchanged.
    """
    if premise is None or isinstance(request, BuildRequest):
        return request
    prefix = premise + "\n"
    if isinstance(request, EditRequest):
        positions, codes = check_edits(request.positions, request.codes)
        outside = (positions < 1) | (positions > 2 * len(request.base) + 1)
        if outside.any():
            single_edit(request.base, int(positions[outside.argmax()]), XI)  # raises as without the premise
        return EditRequest(prefix + request.base, positions + 2 * len(prefix), codes)
    return [prefix + s for s in request]


def drive(oracle: Oracle, alphabet: Alphabet, runs: dict):
    """Run attacks' steps in lockstep; yield ``(key, result, seconds, rows)`` for each run as it ends.

    ``runs`` maps keys, in record order, to ``(steps, label, premise)``. At
    each step every live run is sent its answer (``None`` first), and its
    request, joined to its premise (``join_premise``), is answered with all
    the others by one ``answer_requests``, in record order. A run's
    ``result`` is the value its steps return, or the ``OracleError`` of its
    request or step; ``seconds`` is the time of its own steps plus its row
    share of each build, call and loss pass that answered it; ``rows``
    counts the rows answered to its scoring requests.
    """
    answers = dict.fromkeys(runs, (None, 0.0))
    seconds, rows = dict.fromkeys(runs, 0.0), dict.fromkeys(runs, 0)
    while answers:
        pending = {}
        for key, (answer, share) in answers.items():
            steps, label, premise = runs[key]
            start = time.perf_counter()
            try:
                if isinstance(answer, OracleError):
                    raise answer
                request = join_premise(premise, steps.send(answer))
            except StopIteration as stop:
                result = stop.value
            except OracleError as exc:
                result = exc
            else:
                seconds[key] += share + time.perf_counter() - start
                pending[key] = (request, label)
                continue
            yield key, result, seconds[key] + share + time.perf_counter() - start, rows[key]
        got, answers = answer_requests(oracle, alphabet, pending), {}
        for key, (request, _) in pending.items():  # in record order, as the next step's requests go
            answers[key] = answer = got[key]
            if not isinstance(request, BuildRequest) and not isinstance(answer[0], OracleError):
                rows[key] += len(answer[0])


def _alone(oracle: Oracle, steps, y: int, alphabet: Alphabet) -> AttackOutcome:
    """The outcome of an attack's steps on one record with label ``y`` (``drive`` of one run); an error propagates."""
    [(_, outcome, seconds, _)] = drive(oracle, alphabet, {0: (steps, y, None)})
    if isinstance(outcome, OracleError):
        raise outcome
    outcome.elapsed = seconds
    return outcome


def charmer_attack(oracle: Oracle, s: str, y: int, config: AttackConfig) -> AttackOutcome:
    """Greedy attack with probe-based position pre-selection."""
    return _alone(oracle, _greedy_attack(s, y, config), y, config.alphabet)


def random_position_baseline(oracle: Oracle, s: str, y: int, config: AttackConfig) -> AttackOutcome:
    """Same greedy loop with positions drawn uniformly without replacement."""
    return _alone(oracle, _greedy_attack(s, y, config, pick="draw"), y, config.alphabet)


def exhaustive_k1(oracle: Oracle, s: str, y: int, config: AttackConfig) -> AttackOutcome:
    """Score the full single-edit neighborhood and move to the loss maximizer.

    It is one greedy step at every position, without PJC constraints or
    segment preselection, and its trace holds that one edit, the no-op
    included. A neighborhood larger than
    ``config.budget`` is not scored at all: the outcome is then the
    unattacked sentence.
    """
    return _alone(oracle, _exhaustive_k1(s, y, config), y, config.alphabet)
