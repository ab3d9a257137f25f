"""The ranking's arithmetic: its exact bits, the vectors it refuses, and a run
that ranks without numpy."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import pytest

import contrafact
from contrafact.contrastive import RankingError, mmr_rank
from contrafact.gateway import HashEmbedder

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(contrafact.__file__)))

QUESTIONS = [
    "Why did Marlow claim the budget doubled, rather than Quinn claim the budget doubled?",
    "Why did Marlow claim the budget doubled, rather than Marlow claim the accounts doubled?",
    "Why did Quinn review the accounts, rather than Marlow review the accounts?",
    "Why did Quinn review the accounts, rather than Quinn review the budget?",
    "Why did the budget grow in Riverton, rather than the budget grow in Harbor?",
    "Why did the budget grow in Riverton, rather than the spending grow in Riverton?",
]


def test_ranking_bits_are_pinned() -> None:
    # A change to how the ranking sums or divides moves these bits; such a
    # change alters `trace.steps[].score` in records and must say so.
    trace = mmr_rank(HashEmbedder(32).embed(QUESTIONS))
    assert trace.initial_index == 0
    assert trace.order == [0, 1, 2, 4, 5, 3]
    assert [score.hex() for _, score in trace.steps] == [
        "0x1.0000000000000p+0",
        "0x0.0p+0",
        "0x0.0p+0",
        "0x0.0p+0",
        "-0x1.503ff342ae5d0p-5",
        "-0x1.7a2da8d6745c8p-3",
    ]


@pytest.mark.parametrize(
    "vectors, index",
    [
        ([[math.nan, 1.0], [1.0, 0.0]], 0),
        ([[1.0, 0.0], [0.5, math.nan]], 1),
        ([[1.0, 0.0], [math.inf, 1.0]], 1),
        ([[-math.inf, 1.0], [1.0, 0.0]], 0),
        ([[1.0, 0.0], [1.7e308, 1.7e308]], 1),  # a norm past the float range
    ],
    ids=["nan", "nan-later", "infinity", "minus-infinity", "overflow"],
)
def test_a_vector_without_a_finite_norm_is_rejected_by_index(vectors, index) -> None:
    with pytest.raises(RankingError, match=f"embedding at index {index} has no finite norm"):
        mmr_rank(vectors)


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-310])
def test_vectors_whose_squares_leave_the_float_range_still_rank(scale) -> None:
    vectors = [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]]
    scaled = [[scale * x for x in v] for v in vectors]
    assert mmr_rank(scaled).order == mmr_rank(vectors).order


def test_a_zero_vector_is_named_by_its_index() -> None:
    with pytest.raises(RankingError, match="zero-norm embedding at index 2"):
        mmr_rank([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])


def test_a_full_run_loads_no_numpy(tmp_path) -> None:
    script = f"""
import sys
from contrafact import cli
from contrafact.gateway import HashEmbedder, LlmGateway
from contrafact.runner import RunConfig, StageModels, run
from helpers import scripted_backend, write_fixture_dataset

write_fixture_dataset({str(tmp_path / "data")!r}, n=2)
config = RunConfig(
    dataset={str(tmp_path / "data")!r}, scheme="liar-raw", split="test", k=3,
    mode="full", models=StageModels(embed="hash:32"), workers=1,
)
gateway = LlmGateway(scripted_backend(), embedder=HashEmbedder(32))
result = run(config, {str(tmp_path / "run")!r}, gateway)
print(result.done, "numpy" in sys.modules)
"""
    path = os.pathsep.join([SRC, TESTS, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["2", "False"]
