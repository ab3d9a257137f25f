"""The recording's line format: a miss line carries the prompt, a cache hit's
line carries only the prompt's length, and recordings of either shape replay
to the same run."""

from __future__ import annotations

import json
import time
from pathlib import Path

from contrafact.gateway import (
    HashEmbedder,
    LlmGateway,
    ModelRequest,
    RecordingWriter,
    ReplayBackend,
    ResponseCache,
)
from contrafact.runner import RunConfig, StageModels, run
from helpers import MockBackend, run_bytes, scripted_backend, write_fixture_dataset

# Written by the recorder from before hit lines dropped their prompt, on a warm
# run (every call a cache hit) of `_config` over the 2-case fixture dataset:
# each of its lines still carries the full prompt.
WITH_PROMPTS = Path(__file__).parent / "data" / "warm_recording_with_prompts.jsonl"

VOLATILE = ("latency", "timestamp")


def _config(dataset) -> RunConfig:
    return RunConfig(
        dataset=str(dataset), scheme="liar-raw", k=2, models=StageModels(embed="hash:16")
    )


def _lines(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def test_a_miss_line_keeps_its_bytes(tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(time, "time", lambda: 1700000000.5)
    recording = tmp_path / "session.jsonl"
    with RecordingWriter(recording) as recorder:
        gateway = LlmGateway(
            MockBackend(queue=["résumé — ok"]),
            recorder=recorder,
            clock=iter([10.0, 10.25]).__next__,
        )
        gateway.complete(ModelRequest(model="m1", prompt='Say "hi"\nthen stop.'))
    assert recording.read_bytes() == (
        b'{"cache_hit": false, '
        b'"digest": "e23ad2ecec3e4240f6772994c93437d1c8c9bae6213ccbbecaaf801d1e4cf968", '
        b'"extra": {}, "kind": "complete", "latency": 0.25, "model": "m1", '
        b'"prompt": "Say \\"hi\\"\\nthen stop.", '
        b'"response": "r\\u00e9sum\\u00e9 \\u2014 ok", "retries": 0, '
        b'"timestamp": 1700000000.5}\n'
    )


def test_a_hit_line_carries_the_prompt_length_in_place_of_the_prompt(tmp_path) -> None:
    prompt = 'Say "hi"\nthen stop.'
    recording = tmp_path / "session.jsonl"
    with RecordingWriter(recording) as recorder:
        gateway = LlmGateway(
            MockBackend(queue=["ok"]),
            embedder=HashEmbedder(4),
            cache=ResponseCache(tmp_path / "cache"),
            recorder=recorder,
        )
        for _ in range(2):
            gateway.complete(ModelRequest(model="m1", prompt=prompt))
            gateway.embed(["a", "b"])
    miss, miss_embed, hit, hit_embed = _lines(recording)
    assert [line["cache_hit"] for line in (miss, miss_embed, hit, hit_embed)] == [
        False, False, True, True
    ]
    assert miss["prompt"] == prompt and "prompt_chars" not in miss
    assert "prompt" not in hit and hit["prompt_chars"] == len(prompt)
    assert "prompt" not in hit_embed and hit_embed["prompt_chars"] == 0
    for before, after in ((miss, hit), (miss_embed, hit_embed)):
        kept = set(before) - {"prompt", *VOLATILE}
        assert set(after) == kept | {"prompt_chars", *VOLATILE}
        assert {k: after[k] for k in kept - {"cache_hit"}} == {
            k: before[k] for k in kept - {"cache_hit"}
        }


def test_a_recording_with_prompts_on_its_hit_lines_replays_as_a_new_one(tmp_path) -> None:
    dataset = tmp_path / "data"
    write_fixture_dataset(dataset, n=2, labels=["half-true", "true"])
    config = _config(dataset)
    cache = ResponseCache(tmp_path / "cache")

    def gateway(recorder=None) -> LlmGateway:
        return LlmGateway(
            scripted_backend(),
            embedder=HashEmbedder(16),
            cache=cache,
            recorder=recorder,
            sleep=lambda _: None,
        )

    run(config, tmp_path / "cold", gateway())
    warm = tmp_path / "warm.jsonl"
    with RecordingWriter(warm) as recorder:
        run(config, tmp_path / "warm", gateway(recorder))

    old, new = _lines(WITH_PROMPTS), _lines(warm)
    assert all(line["cache_hit"] and "prompt" in line for line in old)
    assert all(line["cache_hit"] and "prompt" not in line for line in new)
    for line in old:
        line["prompt_chars"] = len(line.pop("prompt"))
    for line in old + new:
        for key in VOLATILE:
            del line[key]
    assert new == old  # the same calls in the same order, prompts aside

    replays = []
    for name, recording in (("old", WITH_PROMPTS), ("new", warm)):
        result = run(config, tmp_path / name, LlmGateway(ReplayBackend(recording)))
        assert (result.done, result.failed) == (2, 0)
        replays.append(run_bytes(tmp_path / name))
    assert len(replays[0]) == 3  # 2 records + metrics.json
    assert replays[0] == replays[1] == run_bytes(tmp_path / "warm")
