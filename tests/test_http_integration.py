"""End-to-end checks against a real local HTTP endpoint.

A throwaway chat-completions + embeddings server runs on a loopback port and
answers with the same deterministic script the mock backend uses, so a full
CLI run can be recorded over real sockets and then replayed byte-identically
with zero network access.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from click.testing import CliRunner

from contrafact.cli import main
from contrafact.gateway import GatewayError, HashEmbedder, HttpEmbedder
from helpers import PipelineScript, write_fixture_dataset

AUTH_TOKEN = "integration-token-123"


class _ScriptedApi(BaseHTTPRequestHandler):
    script = PipelineScript(verdict_for={"Marlow0": "half-true", "Marlow1": "true"})
    embedder = HashEmbedder(dim=12, model_id="remote-embed")
    unauthorized = 0

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if self.headers.get("Authorization") != f"Bearer {AUTH_TOKEN}":
            type(self).unauthorized += 1
            self._send(401, {"error": "unauthorized"})
            return
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.path.endswith("/chat/completions"):
            prompt = body["messages"][0]["content"]

            class _Req:
                pass

            request = _Req()
            request.prompt = prompt
            request.model = body["model"]
            content = type(self).script(request)
            self._send(200, {"choices": [{"message": {"content": content}}]})
        elif self.path.endswith("/embeddings"):
            vectors = type(self).embedder.embed(body["input"])
            self._send(
                200,
                {
                    "data": [
                        {"index": i, "embedding": vector}
                        for i, vector in enumerate(vectors)
                    ]
                },
            )
        else:
            self._send(404, {"error": "unknown path"})

    def _send(self, status: int, payload: dict) -> None:
        blob = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, *args) -> None:
        pass


@pytest.fixture()
def api_base():
    server = HTTPServer(("127.0.0.1", 0), _ScriptedApi)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/v1"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _run_args(dataset, run_dir, api_base=None, record=None, replay=None) -> list[str]:
    args = [
        "run",
        "--dataset",
        str(dataset),
        "--scheme",
        "liar-raw",
        "--split",
        "test",
        "--k",
        "3",
        "--model.embed",
        "remote-embed",
        "--no-cache",
        "--run-dir",
        str(run_dir),
    ]
    if api_base:
        args += ["--api-base", api_base, "--header", "Authorization: Bearer $CF_TEST_KEY"]
    if record:
        args += ["--record", str(record)]
    if replay:
        args += ["--replay", str(replay)]
    return args


def test_cli_records_over_http_then_replays_byte_identically(
    api_base, tmp_path, monkeypatch
) -> None:
    monkeypatch.setenv("CF_TEST_KEY", AUTH_TOKEN)
    dataset = tmp_path / "data"
    write_fixture_dataset(dataset, n=2, labels=["half-true", "true"])
    recording = tmp_path / "session.jsonl"
    cli = CliRunner()

    live = cli.invoke(
        main, _run_args(dataset, tmp_path / "live", api_base=api_base, record=recording)
    )
    assert live.exit_code == 0, live.output
    summary = json.loads(live.output.strip().splitlines()[-1])
    assert summary["done"] == 2
    assert recording.exists()
    kinds = {
        json.loads(line)["kind"] for line in recording.read_text().splitlines()
    }
    assert kinds == {"complete", "embed"}

    replayed = cli.invoke(
        main, _run_args(dataset, tmp_path / "replayed", replay=recording)
    )
    assert replayed.exit_code == 0, replayed.output

    live_records = sorted((tmp_path / "live" / "records").glob("*.json"))
    for path in live_records:
        twin = tmp_path / "replayed" / "records" / path.name
        assert twin.read_bytes() == path.read_bytes()
    assert (tmp_path / "live" / "metrics.json").read_bytes() == (
        tmp_path / "replayed" / "metrics.json"
    ).read_bytes()


def test_http_credentials_come_from_environment(api_base, tmp_path, monkeypatch) -> None:
    monkeypatch.setenv("CF_TEST_KEY", "wrong-token")
    dataset = tmp_path / "data"
    write_fixture_dataset(dataset, n=1)
    cli = CliRunner()
    before = _ScriptedApi.unauthorized
    result = cli.invoke(main, _run_args(dataset, tmp_path / "run", api_base=api_base))
    # per-case failures are recorded, the run itself exits cleanly
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output.strip().splitlines()[-1])
    assert summary["failed"] == 1
    assert _ScriptedApi.unauthorized > before


def test_http_embedder_round_trip_and_index_ordering(api_base, monkeypatch) -> None:
    monkeypatch.setenv("CF_TEST_KEY", AUTH_TOKEN)
    embedder = HttpEmbedder(
        api_base,
        model_id="remote-embed",
        headers={"Authorization": "Bearer $CF_TEST_KEY"},
    )
    texts = ["first question?", "second question?"]
    got = embedder.embed(texts)
    expected = _ScriptedApi.embedder.embed(texts)
    assert got == expected


def test_http_embedder_rejects_error_status(api_base) -> None:
    embedder = HttpEmbedder(api_base, model_id="remote-embed")  # no auth header
    with pytest.raises(GatewayError):
        embedder.embed(["text"])
