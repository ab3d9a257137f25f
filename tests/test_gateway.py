from __future__ import annotations

import builtins
import io
import json
import logging
import math
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import pytest

import contrafact
from contrafact.gateway import (
    CallRecord,
    GatewayError,
    HashEmbedder,
    HttpBackend,
    HttpEmbedder,
    LlmGateway,
    ModelRequest,
    RecordingWriter,
    RefusalError,
    ReplayBackend,
    ReplayMiss,
    ResponseCache,
    RetryPolicy,
    request_digest,
)
from contrafact.gateway.types import EmbeddingRequest
from helpers import MockBackend


def make_request(prompt: str = "hello", model: str = "m1") -> ModelRequest:
    return ModelRequest(model=model, prompt=prompt)


def read_recording(path) -> list[CallRecord]:
    """Each line as a CallRecord. A cache hit's line holds `prompt_chars` in
    place of `prompt`, so its record's prompt is None."""
    records = []
    for line in path.read_text().splitlines():
        fields = json.loads(line)
        fields.pop("prompt_chars", None)
        fields.setdefault("prompt", None)
        records.append(CallRecord(**fields))
    return records


def no_sleep_gateway(backend, **kwargs) -> LlmGateway:
    kwargs.setdefault("sleep", lambda _: None)
    return LlmGateway(backend, **kwargs)


# -- requests and digests --------------------------------------------------------


def test_request_rejects_empty_prompt_and_model() -> None:
    with pytest.raises(ValueError):
        ModelRequest(model="m", prompt="")
    with pytest.raises(ValueError):
        ModelRequest(model="", prompt="p")


def test_request_temperature_defaults_to_zero() -> None:
    assert make_request().temperature == 0.0


def test_equal_requests_have_equal_digests() -> None:
    assert request_digest(make_request()) == request_digest(make_request())
    assert request_digest(make_request("hello ")) != request_digest(make_request())
    assert request_digest(
        ModelRequest(model="m1", prompt="p", temperature=0.5)
    ) != request_digest(ModelRequest(model="m1", prompt="p"))


def test_request_digest_runs_once_per_request(tmp_path, monkeypatch) -> None:
    from contrafact.gateway import types

    computed: list[int] = []

    def counting(request: ModelRequest) -> str:
        computed.append(id(request))
        return request_digest(request)

    monkeypatch.setattr(types, "request_digest", counting)
    gateway = no_sleep_gateway(
        MockBackend(queue=["resp"]), cache=ResponseCache(tmp_path / "cache")
    )
    miss, hit = make_request(), make_request()
    assert gateway.complete_record(miss).digest == request_digest(make_request())
    assert gateway.complete_record(hit).cache_hit
    assert sorted(computed) == sorted([id(miss), id(hit)])


# -- cache ------------------------------------------------------------------------


def test_same_request_twice_hits_cache_with_identical_bytes(tmp_path) -> None:
    backend = MockBackend(queue=["first response"])
    gateway = no_sleep_gateway(backend, cache=ResponseCache(tmp_path / "cache"))
    first = gateway.complete_record(make_request())
    second = gateway.complete_record(make_request())
    assert first.cache_hit is False
    assert second.cache_hit is True
    assert second.response == first.response
    assert len(backend.requests) == 1


def test_cache_layout_uses_model_and_digest_prefix(tmp_path) -> None:
    cache = ResponseCache(tmp_path)
    request = make_request(model="provider/model:v1")
    cache.put(request, "stored")
    digest = request.digest
    expected = tmp_path / "provider_model_v1" / digest[:2] / f"{digest}.json"
    assert expected.exists()
    assert cache.get(request) == "stored"


def cache_entry_path(root, request: ModelRequest):
    return root / request.model / request.digest[:2] / f"{request.digest}.json"


@pytest.mark.parametrize(
    "content",
    [b'{"digest": "ab", "resp', b'{"digest": "ab"}', b"[1, 2]", b'{"response": 5}', b"\xff"],
    ids=["truncated", "no-response", "not-an-object", "not-text", "not-utf8"],
)
def test_corrupt_cache_entry_is_a_miss_that_the_next_put_replaces(
    tmp_path, caplog, content
) -> None:
    cache = ResponseCache(tmp_path / "cache")
    request = make_request()
    cache.put(request, "old")
    path = cache_entry_path(tmp_path / "cache", request)
    path.write_bytes(content)
    gateway = no_sleep_gateway(MockBackend(queue=["fresh"]), cache=cache)
    with caplog.at_level(logging.WARNING, logger="contrafact.gateway.cache"):
        record = gateway.complete_record(request)
    assert (record.response, record.cache_hit) == ("fresh", False)
    assert "no response text" in caplog.text and str(path) in caplog.text
    assert json.loads(path.read_bytes())["response"] == "fresh"
    assert gateway.complete_record(request).cache_hit
    assert sorted(p.name for p in path.parent.iterdir()) == [path.name]


def test_corrupt_embedding_entry_is_a_miss_that_the_next_put_replaces(tmp_path) -> None:
    cache = ResponseCache(tmp_path / "cache")
    embedder = FlakyEmbedder(failures=0)
    gateway = no_sleep_gateway(MockBackend(), embedder=embedder, cache=cache)
    first = gateway.embed(["a question"], model="hash:8")
    (entry,) = (tmp_path / "cache" / "hash_8").rglob("*.json")
    entry.write_bytes(b"not json")
    again = gateway.embed(["a question"], model="hash:8")
    assert again == first
    assert embedder.calls == 2
    assert json.loads(json.loads(entry.read_bytes())["response"]) == first


@pytest.mark.parametrize(
    "response",
    ["not json", "[1, 2]", "[[1.0, 2.0]]", '{"a": 1}', "[[1.0], [1.0, 2.0]]"],
    ids=["not-json", "not-vectors", "too-few", "not-a-list", "mixed-dimensions"],
)
def test_malformed_embedding_batch_is_a_cache_miss_and_a_replay_error(
    tmp_path, caplog, response
) -> None:
    request = EmbeddingRequest("hash:8", ("a", "b"))
    cache = ResponseCache(tmp_path / "cache")
    cache.put(request, response)
    embedder = FlakyEmbedder(failures=0)
    recording = tmp_path / "session.jsonl"
    with RecordingWriter(recording) as recorder:
        gateway = no_sleep_gateway(
            MockBackend(), embedder=embedder, cache=cache, recorder=recorder
        )
        with caplog.at_level(logging.WARNING, logger="contrafact.gateway.client"):
            first = gateway.embed(["a", "b"], model="hash:8")
        assert request.digest in caplog.text
        again = gateway.embed(["a", "b"], model="hash:8")
    fresh = HashEmbedder(8).embed(["a", "b"])
    assert first == again == fresh
    assert embedder.calls == 1
    assert json.loads(cache.get(request)) == fresh
    assert [r.cache_hit for r in read_recording(recording)] == [False, True]

    recorded = CallRecord("embed", request.digest, "hash:8", "", response)
    replayed = tmp_path / "replayed.jsonl"
    replayed.write_text(recorded.to_json() + "\n")
    with pytest.raises(GatewayError):
        no_sleep_gateway(ReplayBackend(replayed)).embed(["a", "b"], model="hash:8")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_cache_get_leaves_no_descriptor_open(tmp_path) -> None:
    cache = ResponseCache(tmp_path)
    hit, miss, corrupt = make_request("hit"), make_request("miss"), make_request("bad")
    cache.put(hit, "stored " * 20000)  # larger than one read
    cache.put(corrupt, "x")
    cache_entry_path(tmp_path, corrupt).write_bytes(b"{")
    before = sorted(os.listdir("/proc/self/fd"))
    for _ in range(3):
        assert cache.get(hit) == "stored " * 20000
        assert cache.get(miss) is None
        assert cache.get(corrupt) is None
    assert sorted(os.listdir("/proc/self/fd")) == before


def test_cache_hit_reads_again_only_when_the_first_read_fills_its_buffer(
    tmp_path, monkeypatch
) -> None:
    cache = ResponseCache(tmp_path)
    small, large = make_request("small"), make_request("large")
    cache.put(small, "stored")
    cache.put(large, "stored " * 20000)
    reads = []
    real_read = os.read

    def counting_read(fd, size):
        reads.append(size)
        return real_read(fd, size)

    monkeypatch.setattr(os, "read", counting_read)
    assert cache.get(small) == "stored"
    assert len(reads) == 1
    assert cache.get(large) == "stored " * 20000
    assert len(reads) == 1 + 3  # 140 KB: two full buffers, then the rest


# -- mock + retries ----------------------------------------------------------------


def test_mock_queue_returns_in_order() -> None:
    gateway = no_sleep_gateway(MockBackend(queue=["r1", "r2"]))
    assert gateway.complete(make_request("a")) == "r1"
    assert gateway.complete(make_request("b")) == "r2"


def test_retries_then_success_counts_retries() -> None:
    backend = MockBackend(queue=[TimeoutError("t1"), TimeoutError("t2"), "ok"])
    gateway = no_sleep_gateway(backend, retry=RetryPolicy(max_retries=2))
    record = gateway.complete_record(make_request())
    assert record.response == "ok"
    assert record.retries == 2


def test_retry_budget_exhaustion_raises_gateway_error() -> None:
    backend = MockBackend(queue=[TimeoutError("boom")] * 5)
    gateway = no_sleep_gateway(backend, retry=RetryPolicy(max_retries=1))
    with pytest.raises(GatewayError):
        gateway.complete(make_request())


def test_refusal_is_surfaced_distinctly_and_not_retried() -> None:
    backend = MockBackend(queue=[RefusalError("nope"), "never reached"])
    gateway = no_sleep_gateway(backend, retry=RetryPolicy(max_retries=3))
    with pytest.raises(RefusalError):
        gateway.complete(make_request())
    assert len(backend.requests) == 1


def test_backoff_respects_wall_clock_budget() -> None:
    clock = {"now": 0.0}
    slept: list[float] = []

    def fake_sleep(seconds: float) -> None:
        slept.append(seconds)
        clock["now"] += seconds

    backend = MockBackend(queue=[TimeoutError("x")] * 50)
    gateway = LlmGateway(
        backend,
        retry=RetryPolicy(max_retries=50, base_delay=1.0, max_delay=64.0, wall_budget=10.0),
        sleep=fake_sleep,
        clock=lambda: clock["now"],
    )
    with pytest.raises(GatewayError):
        gateway.complete(make_request())
    assert sum(slept) <= 10.0


def test_backoff_delays_grow_exponentially_and_cap() -> None:
    policy = RetryPolicy(base_delay=0.5, max_delay=4.0)
    assert [policy.delay(i) for i in range(5)] == [0.5, 1.0, 2.0, 4.0, 4.0]


def test_each_retry_waits_a_random_share_of_its_backoff() -> None:
    shares = iter([0.25, 0.0, 0.75, 1.0])
    slept: list[float] = []
    gateway = LlmGateway(
        MockBackend(queue=[TimeoutError("x")] * 4 + ["ok"]),
        retry=RetryPolicy(max_retries=4, base_delay=0.5, max_delay=1.5),
        sleep=slept.append,
        random=lambda: next(shares),
    )
    assert gateway.complete(make_request()) == "ok"
    assert slept == [0.125, 0.0, 1.125, 1.5]


def test_jitter_never_waits_less_than_retry_after() -> None:
    session = FakeSession(FakeResponse(429, {"error": "slow down"}, {"Retry-After": "3"}))
    waits: list[float] = []
    gateway = LlmGateway(
        HttpBackend("https://api.example.test", session=session),
        sleep=waits.append,
        retry=RetryPolicy(max_retries=2, base_delay=4.0, max_delay=8.0),
        random=iter([0.5, 0.25, 1.0]).__next__,
    )
    with pytest.raises(GatewayError):
        gateway.complete(make_request())
    # 0.5 * 4.0 and 0.25 * 8.0 are both shorter than the 3 s the server asked for
    assert waits == [3.0, 3.0]


def test_the_wall_budget_checks_the_jittered_wait() -> None:
    clock = {"now": 0.0}
    slept: list[float] = []

    def fake_sleep(seconds: float) -> None:
        slept.append(seconds)
        clock["now"] += seconds

    gateway = LlmGateway(
        MockBackend(queue=[TimeoutError("x")] * 3 + ["ok"]),
        retry=RetryPolicy(max_retries=3, base_delay=8.0, max_delay=8.0, wall_budget=10.0),
        sleep=fake_sleep,
        clock=lambda: clock["now"],
        random=lambda: 0.5,
    )
    # three full 8 s waits would overrun the budget; three 4 s waits do not
    with pytest.raises(GatewayError):
        gateway.complete(make_request())
    assert slept == [4.0, 4.0]


def test_concurrent_puts_of_one_key_leave_one_entry_equal_to_a_single_write(
    tmp_path,
) -> None:
    request = make_request()
    ResponseCache(tmp_path / "single").put(request, "resp")
    cache = ResponseCache(tmp_path / "shared")
    gate = threading.Barrier(8, timeout=5)

    def put(_: int) -> None:
        gate.wait()
        cache.put(request, "resp")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            list(pool.map(put, range(8)))
    finally:
        sys.setswitchinterval(interval)

    def files(root):
        return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())

    assert files(tmp_path / "shared") == files(tmp_path / "single")  # no temp left
    (entry,) = files(tmp_path / "single")
    assert (tmp_path / "shared" / entry).read_bytes() == (
        tmp_path / "single" / entry
    ).read_bytes()
    assert cache.get(request) == "resp"


def test_first_put_creates_the_shard_and_later_puts_make_no_directory(
    tmp_path, monkeypatch
) -> None:
    made: list[str] = []
    real_makedirs = os.makedirs

    def counting_makedirs(name, *args, **kwargs):
        made.append(str(name))
        return real_makedirs(name, *args, **kwargs)

    monkeypatch.setattr(os, "makedirs", counting_makedirs)
    cache = ResponseCache(tmp_path / "fresh")
    request = make_request()
    cache.put(request, "first")
    digest = request.digest
    shard = tmp_path / "fresh" / "m1" / digest[:2]
    assert made[0] == str(shard)  # makedirs recurses for the missing parents
    assert (shard / f"{digest}.json").is_file()
    made.clear()
    cache.put(request, "second")
    assert made == []  # the shard exists: no makedirs
    assert cache.get(request) == "second"


def test_cache_round_trips_non_ascii_responses(tmp_path) -> None:
    cache = ResponseCache(tmp_path)
    request = make_request("grüße")
    cache.put(request, "naïve — 東京\n\"quoted\"")
    assert cache.get(request) == "naïve — 東京\n\"quoted\""


# -- record / replay ----------------------------------------------------------------


def test_record_then_replay_is_byte_identical_and_offline(tmp_path) -> None:
    recording = tmp_path / "session.jsonl"
    backend = MockBackend(queue=["resp-a", "resp-b"])
    with RecordingWriter(recording) as recorder:
        gateway = no_sleep_gateway(backend, embedder=HashEmbedder(8), recorder=recorder)
        gateway.complete(make_request("a"))
        gateway.complete(make_request("b"))
        original = gateway.embed(["question one", "question two"], model="hash:8")

    # replay has no embedder and a backend that would fail if touched
    replay = no_sleep_gateway(ReplayBackend(recording))
    assert replay.complete(make_request("a")) == "resp-a"
    assert replay.complete(make_request("b")) == "resp-b"
    replayed = replay.embed(["question one", "question two"], model="hash:8")
    assert replayed == original


def test_recording_writer_creates_nothing_until_its_first_append(tmp_path) -> None:
    path = tmp_path / "runs" / "x" / "calls.jsonl"
    with RecordingWriter(path) as recorder:
        assert not (tmp_path / "runs").exists()
        gateway = no_sleep_gateway(MockBackend(responder=lambda r: r.prompt), recorder=recorder)
        gateway.complete(make_request("a"))
    assert [r.response for r in read_recording(path)] == ["a"]


def test_recording_writer_opens_its_file_once(tmp_path, monkeypatch) -> None:
    path = tmp_path / "session.jsonl"
    opened: list[str] = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    with RecordingWriter(path) as recorder:
        gateway = no_sleep_gateway(
            MockBackend(queue=[f"r{i}" for i in range(6)]), recorder=recorder
        )
        for i in range(6):
            gateway.complete(make_request(f"p{i}"))
    assert len(opened) == 1
    monkeypatch.undo()
    lines = path.read_text().splitlines()
    assert [json.loads(line)["response"] for line in lines] == [
        f"r{i}" for i in range(6)
    ]


def test_recording_writer_keeps_every_byte_of_a_short_write(tmp_path, monkeypatch) -> None:
    path = tmp_path / "session.jsonl"
    real_open = builtins.open

    class ShortWrites:
        """A raw file that takes at most 7 bytes per write."""

        def __init__(self, raw) -> None:
            self.raw = raw

        def write(self, data) -> int:
            return self.raw.write(bytes(data[:7]))

        def close(self) -> None:
            self.raw.close()

    def short_open(file, *args, **kwargs):
        handle = real_open(file, *args, **kwargs)
        return ShortWrites(handle) if str(file) == str(path) else handle

    monkeypatch.setattr(builtins, "open", short_open)
    with RecordingWriter(path) as recorder:
        gateway = no_sleep_gateway(
            MockBackend(queue=["résumé", "r2", "r3"]), recorder=recorder
        )
        for i in range(3):
            gateway.complete(make_request(f"p{i}"))
            # each finished line is in the file before the writer closes
            assert len(path.read_bytes().splitlines()) == i + 1
    monkeypatch.undo()
    assert [r.response for r in read_recording(path)] == ["résumé", "r2", "r3"]


def test_replay_loads_a_recording_while_its_writer_is_open_and_after_close(
    tmp_path,
) -> None:
    recording = tmp_path / "session.jsonl"
    with RecordingWriter(recording) as recorder:
        gateway = no_sleep_gateway(
            MockBackend(queue=["resp-a", "resp-b"]), recorder=recorder
        )
        gateway.complete(make_request("a"))
        assert ReplayBackend(recording).complete(make_request("a")) == "resp-a"
        gateway.complete(make_request("b"))
        assert ReplayBackend(recording).complete(make_request("b")) == "resp-b"
    closed = ReplayBackend(recording)
    assert closed.complete(make_request("a")) == "resp-a"
    assert closed.complete(make_request("b")) == "resp-b"


def record_calls(recording, prompts: str) -> None:
    """Record one completion per prompt, each answered "resp-<prompt>"."""
    with RecordingWriter(recording) as recorder:
        gateway = no_sleep_gateway(
            MockBackend(queue=[f"resp-{p}" for p in prompts]), recorder=recorder
        )
        for prompt in prompts:
            gateway.complete(make_request(prompt))


def test_replay_skips_a_last_line_cut_off_mid_line(tmp_path, caplog) -> None:
    recording = tmp_path / "session.jsonl"
    record_calls(recording, "abc")
    data = recording.read_bytes()
    recording.write_bytes(data[: data.rindex(b"\n", 0, -1) + 20])  # into line 3
    with caplog.at_level(logging.WARNING):
        replay = ReplayBackend(recording)
    assert [replay.complete(make_request(p)) for p in "ab"] == ["resp-a", "resp-b"]
    with pytest.raises(ReplayMiss):
        replay.complete(make_request("c"))
    assert f"{recording}:3: skipping the last line" in caplog.text


@pytest.mark.parametrize(
    "corrupt",
    [
        b"not json",
        b'{"kind": "complete", "dig',
        b'{"digest": "x"}',
        b"[1, 2]",
        b'{"digest": "x", "response": null}',
        b'{"digest": "x", "response": ["r"]}',
        b'{"digest": null, "response": "r"}',
        b'{"digest": 7, "response": "r"}',
    ],
    ids=[
        "not-json", "torn", "no-response", "not-an-object", "null-response",
        "list-response", "null-digest", "number-digest",
    ],
)
def test_replay_names_a_line_inside_a_recording_that_is_not_a_recorded_call(
    tmp_path, corrupt
) -> None:
    recording = tmp_path / "session.jsonl"
    record_calls(recording, "abc")
    lines = recording.read_bytes().splitlines(keepends=True)
    lines[1] = corrupt + b"\n"
    recording.write_bytes(b"".join(lines))
    with pytest.raises(GatewayError) as excinfo:
        ReplayBackend(recording)
    assert str(excinfo.value).startswith(f"{recording}:2: not a recorded call: ")


@pytest.mark.parametrize("fragment_size", [20, 100_000])
def test_recording_after_a_torn_last_line_starts_a_clean_line(
    tmp_path, fragment_size
) -> None:
    recording = tmp_path / "session.jsonl"
    record_calls(recording, "a")
    with recording.open("ab") as handle:  # a crash cut this line short
        handle.write(b'{"kind": "complete", "prompt": "'.ljust(fragment_size, b"x"))
    record_calls(recording, "b")
    assert len(recording.read_bytes().splitlines()) == 2
    replay = ReplayBackend(recording)
    assert [replay.complete(make_request(p)) for p in "ab"] == ["resp-a", "resp-b"]


class CountingVectors:
    """Embedder whose n-th call returns vectors filled with n."""

    model_id = "count"

    def __init__(self) -> None:
        self.calls = 0

    def embed(self, texts):
        self.calls += 1
        return [[float(self.calls), 1.0] for _ in texts]


def test_replay_serves_repeated_requests_in_recorded_order(tmp_path) -> None:
    recording = tmp_path / "session.jsonl"
    with RecordingWriter(recording) as recorder:
        gateway = no_sleep_gateway(
            MockBackend(queue=["first", "second"]),
            embedder=CountingVectors(),
            recorder=recorder,
        )
        assert [gateway.complete(make_request()) for _ in range(2)] == [
            "first",
            "second",
        ]
        recorded = [gateway.embed(["q"])[0] for _ in range(2)]
    assert recorded == [[1.0, 1.0], [2.0, 1.0]]

    # a replay reads the recording, never the cache, so a cache changes nothing
    for cache in (None, ResponseCache(tmp_path / "cache")):
        replay = no_sleep_gateway(ReplayBackend(recording), cache=cache)
        # the last response repeats once it is the only one left
        completions = replay.map(
            lambda _: replay.complete(make_request()), range(3), width=1
        )
        assert completions == ["first", "second", "second"]
        vectors = replay.map(
            lambda _: replay.embed(["q"], model="count"), range(3), width=1
        )
        assert [v[0] for v in vectors] == [[1.0, 1.0], [2.0, 1.0], [2.0, 1.0]]


def record_one_call(recording) -> None:
    with RecordingWriter(recording) as recorder:
        no_sleep_gateway(MockBackend(queue=["resp"]), recorder=recorder).complete(
            make_request("known")
        )


UNRECORDED_CALLS = pytest.mark.parametrize(
    "call",
    [
        lambda gateway: gateway.complete(make_request("unknown")),
        lambda gateway: gateway.embed(["unknown"], model="hash:8"),
    ],
    ids=["complete", "embed"],
)


@UNRECORDED_CALLS
def test_replay_unknown_request_raises_replay_miss(tmp_path, call) -> None:
    recording = tmp_path / "session.jsonl"
    record_one_call(recording)
    replay = no_sleep_gateway(ReplayBackend(recording))
    with pytest.raises(ReplayMiss):
        call(replay)


@UNRECORDED_CALLS
def test_replay_miss_is_not_retried(tmp_path, call) -> None:
    recording = tmp_path / "session.jsonl"
    record_one_call(recording)
    slept = []
    replay = LlmGateway(
        ReplayBackend(recording), sleep=slept.append, retry=RetryPolicy(max_retries=5)
    )
    with pytest.raises(ReplayMiss):
        call(replay)
    assert slept == []


def test_call_log_appends_exactly_once_per_call(tmp_path) -> None:
    recording = tmp_path / "session.jsonl"
    with RecordingWriter(recording) as recorder:
        gateway = no_sleep_gateway(
            MockBackend(queue=["a", "b"]),
            cache=ResponseCache(tmp_path / "cache"),
            recorder=recorder,
        )
        gateway.complete(make_request("x"))
        gateway.complete(make_request("x"))  # cache hit is still one logical call
        gateway.complete(make_request("y"))
    records = read_recording(recording)
    assert len(records) == 3
    assert [r.cache_hit for r in records] == [False, True, False]


# -- embeddings ---------------------------------------------------------------------


def test_embed_empty_list_is_empty() -> None:
    gateway = no_sleep_gateway(MockBackend(), embedder=HashEmbedder(4))
    assert gateway.embed([]) == []


def test_embed_rejects_empty_text() -> None:
    gateway = no_sleep_gateway(MockBackend(), embedder=HashEmbedder(4))
    with pytest.raises(ValueError):
        gateway.embed(["ok", ""])


def test_hash_embedder_is_deterministic() -> None:
    embedder = HashEmbedder(16)
    first = embedder.embed(["same text"])[0]
    second = embedder.embed(["same text"])[0]
    assert first == second


def test_hash_embedder_unit_norms_and_dimension() -> None:
    embedder = HashEmbedder(32)
    texts = [f"text number {i}" for i in range(10)]
    for embedding in embedder.embed(texts):
        assert len(embedding) == 32
        norm = math.sqrt(sum(v * v for v in embedding))
        assert abs(norm - 1.0) < 1e-9


@pytest.mark.parametrize("dim", [1, 8, 32, 300])
def test_hash_embedder_contract(dim) -> None:
    texts = ["alpha", "beta", "Alpha", "alpha ", "ünïcödé", "a much longer question text?"]
    embedder = HashEmbedder(dim)
    vectors = embedder.embed(texts)
    assert vectors == HashEmbedder(dim).embed(texts)  # same text, same vector
    assert [embedder.embed([text])[0] for text in texts] == vectors
    assert all(type(v) is list and len(v) == dim for v in vectors)
    assert all(type(x) is float for v in vectors for x in v)
    for vector in vectors:
        assert abs(math.sqrt(math.fsum(x * x for x in vector)) - 1.0) < 1e-12
    if dim > 1:  # in one dimension every unit vector is +1 or -1
        assert len({tuple(v) for v in vectors}) == len(texts)


def test_hash_embedder_loads_no_random_number_generator() -> None:
    script = (
        "import sys\n"
        "from contrafact.gateway.embedding import HashEmbedder\n"
        "HashEmbedder(8).embed(['alpha', 'beta'])\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(contrafact.__file__)))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


class ShapedEmbedder:
    """Returns vectors of the given dimensions, whatever the texts."""

    model_id = "shaped"

    def __init__(self, dims: list[int]) -> None:
        self.dims = dims
        self.calls = 0

    def embed(self, texts):
        self.calls += 1
        return [[1.0] * dim for dim in self.dims]


def assert_embed_fails_at_once_leaving_nothing(tmp_path, embedder, match: str) -> None:
    recording = tmp_path / "session.jsonl"
    slept: list[float] = []
    with RecordingWriter(recording) as recorder:
        gateway = LlmGateway(
            MockBackend(),
            embedder=embedder,
            cache=ResponseCache(tmp_path / "cache"),
            recorder=recorder,
            sleep=slept.append,
        )
        with pytest.raises(GatewayError, match=match):
            gateway.embed(["a", "b"])
    assert (embedder.calls, slept) == (1, [])
    assert not (tmp_path / "cache").exists()
    assert not recording.exists()


def test_embed_dimension_drift_raises(tmp_path) -> None:
    assert_embed_fails_at_once_leaving_nothing(
        tmp_path, ShapedEmbedder([2, 3]), "dimension drift"
    )


def test_embed_count_mismatch_raises(tmp_path) -> None:
    assert_embed_fails_at_once_leaving_nothing(
        tmp_path, ShapedEmbedder([2]), "count mismatch"
    )


BAD_BATCHES = {
    "nan": [[math.nan, 1.0], [1.0, 0.0]],
    "infinity": [[math.inf, 1.0], [1.0, 0.0]],
    "strings": [["0.5", "1"], ["0.5", "1"]],
    "booleans": [[True, False], [1.0, 0.0]],
}


class FixedEmbedder:
    """Returns the same batch, whatever the texts."""

    model_id = "fixed"

    def __init__(self, vectors: list[list]) -> None:
        self.vectors = vectors
        self.calls = 0

    def embed(self, texts):
        self.calls += 1
        return self.vectors


@pytest.mark.parametrize("name", sorted(BAD_BATCHES))
def test_a_batch_value_that_is_not_a_finite_number_is_never_cached(tmp_path, name) -> None:
    assert_embed_fails_at_once_leaving_nothing(
        tmp_path, FixedEmbedder(BAD_BATCHES[name]), "not a finite number"
    )


@pytest.mark.parametrize("name", sorted(BAD_BATCHES))
def test_a_cached_batch_value_that_is_not_a_finite_number_is_a_miss(tmp_path, name) -> None:
    request = EmbeddingRequest("hash:8", ("a", "b"))
    cache = ResponseCache(tmp_path / "cache")
    cache.put(request, json.dumps(BAD_BATCHES[name]))
    embedder = FlakyEmbedder(failures=0)
    gateway = no_sleep_gateway(MockBackend(), embedder=embedder, cache=cache)
    fresh = HashEmbedder(8).embed(["a", "b"])
    assert gateway.embed(["a", "b"], model="hash:8") == fresh
    assert embedder.calls == 1
    assert json.loads(cache.get(request)) == fresh


def test_embed_without_an_embedder_or_a_replay_raises() -> None:
    slept: list[float] = []
    gateway = LlmGateway(MockBackend(), sleep=slept.append)
    with pytest.raises(GatewayError, match="no embedder configured"):
        gateway.embed(["a"])
    assert slept == []


class FlakyEmbedder(HashEmbedder):
    """Raises ConnectionError on its first `failures` calls."""

    def __init__(self, failures: int) -> None:
        super().__init__(8)
        self.failures = failures
        self.calls = 0

    def embed(self, texts):
        self.calls += 1
        if self.calls <= self.failures:
            raise ConnectionError("embedding endpoint reset")
        return super().embed(texts)


def test_embedder_that_fails_once_succeeds_after_one_sleep() -> None:
    slept: list[float] = []
    embedder = FlakyEmbedder(failures=1)
    gateway = LlmGateway(
        MockBackend(), embedder=embedder, sleep=slept.append, random=lambda: 1.0
    )
    texts = ["a question", "another"]
    vectors = gateway.embed(texts)
    assert vectors == HashEmbedder(8).embed(texts)
    assert embedder.calls == 2
    assert slept == [RetryPolicy().delay(0)]


def test_embedder_that_always_fails_raises_gateway_error_after_every_attempt() -> None:
    embedder = FlakyEmbedder(failures=100)
    gateway = no_sleep_gateway(
        MockBackend(), embedder=embedder, retry=RetryPolicy(max_retries=3)
    )
    with pytest.raises(GatewayError) as excinfo:
        gateway.embed(["a question"])
    assert isinstance(excinfo.value.__cause__, ConnectionError)
    assert embedder.calls == 3 + 1


def test_a_retried_embedding_is_cached_and_recorded_with_its_retries(tmp_path) -> None:
    recording = tmp_path / "session.jsonl"
    with RecordingWriter(recording) as recorder:
        gateway = no_sleep_gateway(
            MockBackend(),
            embedder=FlakyEmbedder(failures=2),
            cache=ResponseCache(tmp_path / "cache"),
            recorder=recorder,
        )
        first = gateway.embed(["a question"])
        again = gateway.embed(["a question"])
    assert again == first
    records = read_recording(recording)
    assert [(r.kind, r.retries, r.cache_hit) for r in records] == [
        ("embed", 2, False),
        ("embed", 0, True),
    ]


def test_gateway_embed_records_the_model_it_is_given(tmp_path) -> None:
    recording = tmp_path / "session.jsonl"
    with RecordingWriter(recording) as recorder:
        gateway = no_sleep_gateway(
            MockBackend(), embedder=HashEmbedder(8, model_id="default"), recorder=recorder
        )
        assert len(gateway.embed(["a"], model="hash:8")) == 1
        gateway.embed(["a"])
    assert [r.model for r in read_recording(recording)] == ["hash:8", "default"]


def test_embedding_batch_bytes_are_pinned(tmp_path) -> None:
    """A batch's vectors are stored as the JSON list of their floats, in the
    cache entry and the recording line alike."""
    vectors = (
        "[[0.019550970477620472, -0.37118076785922666, -0.10129411147675128, "
        "0.5351452841225268, 0.46332665135166934, -0.2813581597869058, "
        "0.14794512943259036, 0.4994795929085815], "
        "[-0.4510453936935746, 0.16020613349323204, 0.4538865273947633, "
        "-0.4538342415864181, 0.3545352938412037, 0.3855509351352202, "
        "-0.20113464740654244, 0.21003238912628425]]"
    )
    digest = "be94f2d3ea208ccd9f9a0a8833473de1b2cbaa73bfeee578fc940a34b1f104af"
    recording = tmp_path / "session.jsonl"
    with RecordingWriter(recording) as recorder:
        gateway = no_sleep_gateway(
            MockBackend(),
            embedder=HashEmbedder(8),
            cache=ResponseCache(tmp_path / "cache"),
            recorder=recorder,
        )
        gateway.embed(["alpha", "beta"])
    entry = tmp_path / "cache" / "hash_8" / digest[:2] / f"{digest}.json"
    assert entry.read_bytes() == (
        '{"digest": "' + digest + '", "model": "hash:8", "response": "' + vectors + '"}'
    ).encode("utf-8")
    assert [r.response for r in read_recording(recording)] == [vectors]


# -- http backend (fake transport, no sockets) -----------------------------------


class FakeResponse:
    def __init__(
        self, status_code: int, payload: dict, headers: dict[str, str] | None = None
    ) -> None:
        self.status_code = status_code
        self._payload = payload
        self.text = json.dumps(payload)
        self.headers = headers or {}

    def json(self) -> dict:
        return self._payload


class FakeSession:
    def __init__(self, response: FakeResponse) -> None:
        self.response = response
        self.calls: list[dict] = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append(
            {"url": url, "json": json, "headers": headers, "timeout": timeout}
        )
        return self.response


def test_http_backend_shapes_chat_completions_request(monkeypatch) -> None:
    monkeypatch.setenv("FAKE_KEY", "secret-token")
    session = FakeSession(
        FakeResponse(200, {"choices": [{"message": {"content": "hi there"}}]})
    )
    backend = HttpBackend(
        "https://api.example.test/v1/",
        headers={"Authorization": "Bearer $FAKE_KEY"},
        session=session,
    )
    out = backend.complete(ModelRequest(model="m-42", prompt="ping", max_tokens=7))
    assert out == "hi there"
    call = session.calls[0]
    assert call["url"] == "https://api.example.test/v1/chat/completions"
    assert call["json"]["model"] == "m-42"
    assert call["json"]["messages"] == [{"role": "user", "content": "ping"}]
    assert call["json"]["temperature"] == 0.0
    assert call["json"]["max_tokens"] == 7
    assert call["headers"]["Authorization"] == "Bearer secret-token"


@pytest.mark.parametrize(
    "content", [None, 3, ["hi"], {"text": "hi"}], ids=["null", "number", "array", "object"]
)
def test_http_backend_content_that_is_no_string_is_retried_and_never_cached(
    tmp_path, content
) -> None:
    session = FakeSession(FakeResponse(200, {"choices": [{"message": {"content": content}}]}))
    gateway = no_sleep_gateway(
        HttpBackend("https://api.example.test", session=session),
        cache=ResponseCache(tmp_path / "cache"),
        retry=RetryPolicy(max_retries=1),
    )
    with pytest.raises(GatewayError) as caught:
        gateway.complete(make_request())
    assert "malformed backend payload" in str(caught.value.__cause__)
    assert len(session.calls) == 2
    assert not [p for p in (tmp_path / "cache").rglob("*") if p.is_file()]


def test_http_backend_non_200_raises() -> None:
    session = FakeSession(FakeResponse(500, {"error": "down"}))
    backend = HttpBackend("https://api.example.test", session=session)
    with pytest.raises(GatewayError):
        backend.complete(make_request())


@pytest.mark.parametrize(
    "status, attempts",
    [(400, 1), (401, 1), (404, 1), (422, 1), (408, 3), (429, 3), (500, 3), (503, 3)],
)
def test_http_client_errors_fail_at_once_and_the_rest_are_retried(
    status, attempts
) -> None:
    session = FakeSession(FakeResponse(status, {"error": "no"}))
    slept: list[float] = []
    gateway = LlmGateway(
        HttpBackend("https://api.example.test", session=session), sleep=slept.append
    )
    with pytest.raises(GatewayError) as caught:
        gateway.complete(make_request())
    assert len(session.calls) == attempts
    assert len(slept) == attempts - 1
    error = caught.value if attempts == 1 else caught.value.__cause__
    assert error.status == status


def test_http_embedder_errors_carry_their_status_and_400_is_sent_once() -> None:
    session = FakeSession(FakeResponse(400, {"error": "bad input"}))
    embedder = HttpEmbedder("https://api.example.test", "e", session=session)
    gateway = no_sleep_gateway(MockBackend(), embedder=embedder)
    with pytest.raises(GatewayError) as caught:
        gateway.embed(["text"])
    assert caught.value.status == 400
    assert len(session.calls) == 1
    session.response = FakeResponse(503, {"error": "busy"})
    with pytest.raises(GatewayError) as caught:
        gateway.embed(["text"])
    assert caught.value.__cause__.status == 503
    assert len(session.calls) == 1 + 3


@pytest.mark.parametrize(
    "value", [True, "2", None, [1.0], {"v": 1}],
    ids=["true", "string", "null", "array", "object"],
)
def test_http_embedder_takes_only_json_numbers(value) -> None:
    rows = [{"index": 0, "embedding": [1, 2.5, value]}]
    session = FakeSession(FakeResponse(200, {"data": rows}))
    embedder = HttpEmbedder("https://api.example.test", "e", session=session)
    with pytest.raises(GatewayError) as caught:
        embedder.embed(["text"])
    assert "malformed embedding payload" in str(caught.value)
    session.response = FakeResponse(200, {"data": [{"index": 0, "embedding": [1, 2.5, -3]}]})
    assert embedder.embed(["text"]) == [[1.0, 2.5, -3.0]]


def test_http_backend_refusal_detected() -> None:
    session = FakeSession(
        FakeResponse(
            200,
            {
                "choices": [
                    {"message": {"content": ""}, "finish_reason": "content_filter"}
                ]
            },
        )
    )
    backend = HttpBackend("https://api.example.test", session=session)
    with pytest.raises(RefusalError):
        backend.complete(make_request())


@pytest.mark.parametrize(
    "retry_after, slept",
    [("3", [3.0]), (" 3 ", [3.0]), ("0", [0.5]), ("Wed, 21 Oct 2026 07:28:00 GMT", [0.5]),
     ("soon", [0.5]), ("1.5", [0.5]), ("-3", [0.5])],
    ids=["seconds", "padded", "shorter-than-backoff", "http-date", "junk", "fraction",
         "negative"],
)
def test_a_429_waits_the_longer_of_retry_after_and_the_backoff(retry_after, slept) -> None:
    session = FakeSession(FakeResponse(429, {"error": "slow down"}, {"Retry-After": retry_after}))
    waits: list[float] = []
    gateway = LlmGateway(
        HttpBackend("https://api.example.test", session=session),
        sleep=waits.append,
        retry=RetryPolicy(max_retries=1),
        random=lambda: 1.0,
    )
    with pytest.raises(GatewayError):
        gateway.complete(make_request())
    assert waits == slept
    assert len(session.calls) == 2


def test_a_retry_after_past_the_wall_budget_raises_without_sleeping() -> None:
    session = FakeSession(FakeResponse(503, {"error": "busy"}, {"Retry-After": "120"}))
    waits: list[float] = []
    gateway = LlmGateway(
        HttpBackend("https://api.example.test", session=session),
        sleep=waits.append,
        retry=RetryPolicy(wall_budget=60.0),
    )
    with pytest.raises(GatewayError) as caught:
        gateway.complete(make_request())
    assert (waits, len(session.calls)) == ([], 1)
    assert caught.value.__cause__.retry_after == 120.0


# -- concurrency ---------------------------------------------------------------------


def test_concurrent_calls_are_safe_and_all_logged(tmp_path) -> None:
    responder_lock = threading.Lock()
    counter = {"n": 0}

    def responder(request):
        with responder_lock:
            counter["n"] += 1
        return f"resp:{request.prompt}"

    recording = tmp_path / "session.jsonl"
    with RecordingWriter(recording) as recorder:
        gateway = no_sleep_gateway(
            MockBackend(responder=responder),
            cache=ResponseCache(tmp_path / "cache"),
            recorder=recorder,
            max_in_flight=4,
        )
        threads = [
            threading.Thread(target=gateway.complete, args=(make_request(f"p{i}"),))
            for i in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert counter["n"] == 16
    assert len(read_recording(recording)) == 16


def test_mock_backend_responder_calls_overlap() -> None:
    gate = threading.Barrier(2, timeout=5)

    def responder(request: ModelRequest) -> str:
        gate.wait()  # returns only once both calls are inside the responder
        return request.prompt

    backend = MockBackend(responder=responder)
    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(backend.complete, [make_request("a"), make_request("b")]))
    assert results == ["a", "b"]
    assert len(backend.requests) == 2


class GateBackend:
    """Echoes the prompt; `wait` runs inside each call, with no lock held."""

    def __init__(self, wait: Callable[[ModelRequest], None]) -> None:
        self.wait = wait

    def complete(self, request: ModelRequest) -> str:
        self.wait(request)
        return request.prompt


def test_map_keeps_input_order_and_leaves_no_threads() -> None:
    gate = threading.Barrier(4, timeout=5)
    finished: list[int] = []

    def wait(request: ModelRequest) -> None:
        i = int(request.prompt)
        gate.wait()  # all four calls are in flight together
        time.sleep(0.02 * (3 - i))  # and finish in reverse order
        finished.append(i)

    gateway = no_sleep_gateway(GateBackend(wait), max_in_flight=4)
    before = threading.active_count()
    results = gateway.map(lambda i: gateway.complete(make_request(str(i))), range(4))
    assert results == ["0", "1", "2", "3"]
    assert finished == [3, 2, 1, 0]
    assert threading.active_count() == before


def test_map_at_width_one_runs_on_calling_thread() -> None:
    gateway = no_sleep_gateway(MockBackend(), max_in_flight=1)
    threads: list[int] = []

    def item(i: int) -> int:
        threads.append(threading.get_ident())
        return i

    assert gateway.map(item, [3, 1, 2]) == [3, 1, 2]
    assert threads == [threading.get_ident()] * 3


def test_map_answered_by_the_cache_starts_no_thread(tmp_path) -> None:
    cache = ResponseCache(tmp_path)
    for i in range(4):
        cache.put(make_request(str(i)), f"cached {i}")
    gateway = no_sleep_gateway(GateBackend(lambda _: None), cache=cache, max_in_flight=4)
    threads: list[int] = []

    def item(i: int) -> str:
        threads.append(threading.get_ident())
        return gateway.complete(make_request(str(i)))

    assert gateway.map(item, range(4)) == [f"cached {i}" for i in range(4)]
    assert threads == [threading.get_ident()] * 4


def test_map_starts_the_items_not_reached_at_the_first_cache_miss(tmp_path) -> None:
    cache = ResponseCache(tmp_path)
    cache.put(make_request("0"), "cached 0")
    gate = threading.Barrier(3, timeout=5)
    gateway = no_sleep_gateway(
        GateBackend(lambda _: gate.wait()), cache=cache, max_in_flight=4
    )
    threads: dict[int, int] = {}

    def item(i: int) -> str:
        threads[i] = threading.get_ident()
        return gateway.complete(make_request(str(i)))

    # item 0 is a hit on the calling thread; item 1 misses there, and items 2
    # and 3 start at once, so three calls wait on the backend together
    assert gateway.map(item, range(4)) == ["cached 0", "1", "2", "3"]
    assert threads[0] == threads[1] == threading.get_ident()
    assert threading.get_ident() not in (threads[2], threads[3])


def test_map_raises_first_failure_in_input_order() -> None:
    gateway = no_sleep_gateway(GateBackend(lambda _: None), max_in_flight=4)

    def item(i: int) -> str:
        response = gateway.complete(make_request(str(i)))
        if i in (1, 3):
            raise ValueError(f"item {i}")
        return response

    with pytest.raises(ValueError, match="item 1"):
        gateway.map(item, range(4))


def test_map_never_runs_more_items_than_its_width() -> None:
    gate = threading.Barrier(2, timeout=5)
    lock = threading.Lock()
    running = [0]
    peak = [0]

    def item(i: int) -> str:
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        try:
            return gateway.complete(make_request(str(i)))
        finally:
            with lock:
                running[0] -= 1

    def wait(request: ModelRequest) -> None:
        gate.wait()  # two items wait on the backend together, round by round
        time.sleep(0.01)

    gateway = no_sleep_gateway(GateBackend(wait), max_in_flight=8)
    assert gateway.map(item, range(6), width=2) == [str(i) for i in range(6)]
    assert peak[0] == 2


def test_map_over_a_generator_keeps_order_width_and_one_thread_in_it() -> None:
    gate = threading.Barrier(3, timeout=5)
    lock = threading.Lock()
    running, peak, inside, inside_peak, drawn, ahead = [0], [0], [0], [0], [], []

    def wait(request: ModelRequest) -> None:
        gate.wait()  # three items wait on the backend together, round by round
        time.sleep(0.01 * (int(request.prompt) % 3))  # and end out of order

    def stream():
        for i in range(9):
            with lock:
                inside[0] += 1
                inside_peak[0] = max(inside_peak[0], inside[0])
            time.sleep(0.002)  # widen the window for a second thread to enter
            drawn.append(i)
            with lock:
                inside[0] -= 1
            yield i

    def item(i: int) -> str:
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
            ahead.append(len(drawn) - i)  # items drawn past this one
        try:
            return gateway.complete(make_request(str(i)))
        finally:
            with lock:
                running[0] -= 1

    gateway = no_sleep_gateway(GateBackend(wait), max_in_flight=8)
    assert gateway.map(item, stream(), width=3) == [str(i) for i in range(9)]
    assert drawn == list(range(9))
    assert ahead[0] == 1 and max(ahead) <= 3  # drawn as taken, not up front
    assert peak[0] == 3
    assert inside_peak[0] == 1


@pytest.mark.parametrize("item_fails", [False, True])
def test_map_raises_a_generator_failure_once_the_running_items_end(item_fails) -> None:
    gate = threading.Barrier(3, timeout=5)
    ended: list[int] = []

    def wait(request: ModelRequest) -> None:
        gate.wait()
        if request.prompt == "2":
            time.sleep(0.1)  # still running when another thread meets the failure

    def stream():
        yield from range(3)
        raise RuntimeError("the stream broke")

    def item(i: int) -> str:
        try:
            response = gateway.complete(make_request(str(i)))
            if item_fails and i == 2:
                raise ValueError("item 2")
            return response
        finally:
            ended.append(i)

    gateway = no_sleep_gateway(GateBackend(wait), max_in_flight=8)
    # the stream's failure is at position 3, so item 2's, when it fails, wins
    expected = (ValueError, "item 2") if item_fails else (RuntimeError, "the stream broke")
    with pytest.raises(expected[0], match=expected[1]):
        gateway.map(item, stream(), width=3)
    assert sorted(ended) == [0, 1, 2]


def test_map_over_a_replayed_recording_starts_no_thread(tmp_path) -> None:
    path = tmp_path / "calls.jsonl"
    with RecordingWriter(path) as writer:
        recorder = no_sleep_gateway(
            MockBackend(responder=lambda r: r.prompt), recorder=writer
        )
        for i in range(4):
            recorder.complete(make_request(str(i)))
    gateway = no_sleep_gateway(ReplayBackend(path), max_in_flight=4)
    threads: list[int] = []
    before = threading.active_count()

    def item(i: int) -> str:
        threads.append(threading.get_ident())
        return gateway.complete(make_request(str(i)))

    assert gateway.map(item, range(4)) == ["0", "1", "2", "3"]
    assert threads == [threading.get_ident()] * 4
    assert threading.active_count() == before


def test_max_in_flight_must_be_positive() -> None:
    with pytest.raises(ValueError):
        LlmGateway(MockBackend(), max_in_flight=0)
