"""Content-addressed response cache: cache/<model>/<xx>/<digest>.json."""

from __future__ import annotations

import json
import logging
import os
import re
import tempfile
from pathlib import Path

from .types import EmbeddingRequest, ModelRequest

log = logging.getLogger(__name__)

_UNSAFE = re.compile(r"[^A-Za-z0-9._-]+")
_READ_SIZE = 1 << 16


def _model_dir(model: str) -> str:
    return _UNSAFE.sub("_", model) or "_"


class ResponseCache:
    """Append-only file cache keyed by request content hash.

    It holds completions and embedding batches alike, each under its model's
    directory: a completion by `ModelRequest.digest`, a batch by
    `EmbeddingRequest.digest` with the JSON list of its vectors as response.

    Writes are atomic (write a uniquely named temp file, then rename), so
    readers never observe a partial entry, and concurrent writers of the same
    key converge on identical bytes with no lock between them. An entry that
    does not parse, or holds no response text, is read as a miss, so the
    caller's next `put` replaces it instead of every later run failing on it.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self._model_dirs: dict[str, str] = {}  # model id -> its directory

    def _path(self, request: ModelRequest | EmbeddingRequest) -> str:
        model_dir = self._model_dirs.get(request.model)
        if model_dir is None:
            model_dir = os.path.join(self.root, _model_dir(request.model))
            self._model_dirs[request.model] = model_dir
        digest = request.digest
        return f"{model_dir}/{digest[:2]}/{digest}.json"

    def get(self, request: ModelRequest | EmbeddingRequest) -> str | None:
        path = self._path(request)
        try:
            fd = os.open(path, os.O_RDONLY)
        except FileNotFoundError:
            return None
        try:
            # read on only when the buffer filled: a short read is either end
            # of file or a truncated entry, which the parse reads as a miss
            data = chunk = os.read(fd, _READ_SIZE)
            while len(chunk) == _READ_SIZE:
                chunk = os.read(fd, _READ_SIZE)
                data += chunk
        finally:
            os.close(fd)
        try:
            response = json.loads(data)["response"]
        except (ValueError, KeyError, TypeError):  # not JSON, no "response" key
            response = None
        if isinstance(response, str):
            return response
        log.warning("cache entry %s holds no response text; reading it as a miss", path)
        return None

    def put(self, request: ModelRequest | EmbeddingRequest, response: str) -> None:
        path = self._path(request)
        directory = os.path.dirname(path)
        payload = json.dumps(
            {"digest": request.digest, "model": request.model, "response": response},
            sort_keys=True,
        ).encode("utf-8")
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        except FileNotFoundError:  # the first entry of its shard
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
