"""The benchmark's completion backends: scripted, seeded latency, lock-free.

``contrafact.gateway.MockBackend`` calls its responder while holding its lock,
which serializes every call, so it cannot show concurrency. These backends hold
a lock only to update counters, never across the injected sleep or the
responder. Each call's latency is a hash of (seed, prompt), not a draw from a
shared generator, so it does not depend on the order threads reach the backend.
Calls are attributed to cases by the case token in the prompt: answer calls run
on per-case pools that inherit neither thread-locals nor contextvars.
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
import time
from typing import Callable

from contrafact.gateway import ModelRequest, ReplayBackend

from corpus_gen import CLASS_OF, REPORT_VERB, relation_for, token_of

LATENCY_S = (0.010, 0.030)


def _payload_after(prompt: str, marker: str) -> str:
    index = prompt.rfind(marker)
    return prompt[index + len(marker):].strip() if index != -1 else ""


def _unit_hash(*parts: object) -> float:
    digest = hashlib.blake2b("\0".join(map(str, parts)).encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big") / 2**64


class Responder:
    """Answers every prompt of the `full` pipeline from the corpus script.

    Extraction finds lexicon names in the text, labels them with their lexicon
    class and chains consecutive names into triples. In about one report text
    in four (never the claim or report 0) it leaves one class out, so the
    extractor drops an entity and the triples that touch it.
    """

    def __init__(self, verdicts: dict[str, str], seed: int) -> None:
        self.verdicts = verdicts
        self.seed = seed

    @staticmethod
    def names_in(text: str) -> list[str]:
        words = (word.strip(".,;:") for word in text.split())
        return list(dict.fromkeys(word for word in words if word in CLASS_OF))

    def _classes(self, text: str) -> dict[str, str]:
        names = self.names_in(text)
        classes = {name: CLASS_OF[name] for name in names}
        if REPORT_VERB in text and len(names) > 2 and _unit_hash(self.seed, text) < 0.25:
            del classes[names[-1]]
        return classes

    def __call__(self, request: ModelRequest) -> str:
        prompt = request.prompt
        token = token_of(prompt)
        if "1. Extract nodes" in prompt:
            return json.dumps(self.names_in(_payload_after(prompt, "Text: ")))
        if "2. Label nodes" in prompt:
            return json.dumps(self._classes(_payload_after(prompt, "Text: ")))
        if "3. Extract relationships" in prompt:
            names = self.names_in(_payload_after(prompt, "Text: "))
            return json.dumps(
                [[a, relation_for(a, b), b] for a, b in zip(names, names[1:])]
            )
        if "expert answering questions" in prompt:
            question = _payload_after(prompt, "* Question: ").split("\n")[0]
            return f"For {token}, the reports bear on '{question[:80]}' only in part."
        if "summarizing information from pairs" in prompt:
            answers = prompt.count("* Answer ")
            return f"For {token}, {answers} answers partly support the claim's scale."
        if "expert fact-checking claims" in prompt:
            return self.verdicts[token]
        raise ValueError(f"unexpected prompt: {prompt[:120]!r}")


class CallStats:
    """Backend-side counts: calls, prompt characters, errors, calls in flight.

    ``intervals`` holds (case id, start, end, injected latency) per call, on
    the perf_counter clock, for serial depth and in-flight figures.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.calls = 0
        self.prompt_chars = 0
        self.errors = 0
        self.in_flight = 0
        self.in_flight_max = 0
        self.intervals: list[tuple[str | None, float, float, float]] = []

    def call(self, prompt: str, delay: float, respond: Callable[[], str]) -> str:
        """Count one call around `respond`, after sleeping `delay` seconds."""
        with self._lock:
            self.calls += 1
            self.prompt_chars += len(prompt)
            self.in_flight += 1
            self.in_flight_max = max(self.in_flight_max, self.in_flight)
        started = time.perf_counter()
        failed = True
        try:
            if delay:
                time.sleep(delay)
            response = respond()
            failed = False
            return response
        finally:
            ended = time.perf_counter()
            with self._lock:
                self.in_flight -= 1
                self.errors += failed
                self.intervals.append((token_of(prompt), started, ended, delay))

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "calls": self.calls,
                "prompt_chars": self.prompt_chars,
                "errors": self.errors,
                "in_flight_max": self.in_flight_max,
                "intervals": list(self.intervals),
            }


class LatencyBackend:
    """Scripted completions after a seeded sleep of LATENCY_S (or none)."""

    def __init__(self, responder: Responder, seed: int, latency: bool) -> None:
        self.responder = responder
        self.seed = seed
        self.latency = latency
        self.stats = CallStats()

    def delay_for(self, prompt: str) -> float:
        if not self.latency:
            return 0.0
        low, high = LATENCY_S
        return low + (high - low) * _unit_hash(self.seed, prompt)

    def complete(self, request: ModelRequest) -> str:
        return self.stats.call(request.prompt, self.delay_for(request.prompt),
                               functools.partial(self.responder, request))


class CountingReplayBackend(ReplayBackend):
    """ReplayBackend with the same counts; the gateway serves replayed
    embeddings only to ReplayBackend instances, hence the subclass."""

    def __init__(self, recording) -> None:
        super().__init__(recording)
        self.stats = CallStats()

    def complete(self, request: ModelRequest) -> str:
        return self.stats.call(request.prompt, 0.0,
                               functools.partial(ReplayBackend.complete, self, request))
