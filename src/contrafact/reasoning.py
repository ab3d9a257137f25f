"""Answering ranked questions from the reports and distilling one summary."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .contrastive import ContrastiveQuestion
from .gateway import GatewayError, LlmGateway, ModelRequest
from .prompts import PromptLibrary, prompt_sha, render_qa_blocks

_BLANK_LINES = re.compile(r"\n\s*\n+")


class SummaryUnavailable(RuntimeError):
    """No successful question/answer pair exists to summarise."""


@dataclass
class QAPair:
    """One answered question; failed answers carry an error marker instead."""

    question_text: str
    rank: int
    answer: str | None
    question: ContrastiveQuestion | None = None
    prompt_sha: str = ""
    raw: str = ""
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and bool(self.answer)

    def to_dict(self) -> dict:
        return {
            "question_text": self.question_text,
            "rank": self.rank,
            "answer": self.answer,
            "question": self.question.to_dict() if self.question else None,
            "prompt_sha": self.prompt_sha,
            "raw": self.raw,
            "error": self.error,
        }


def build_context(reports: Sequence[str], budget: int) -> str:
    """Reports in dataset order with separators, tail-truncated to the budget."""
    blocks = [
        f"--- Report {i} ---\n{text}" for i, text in enumerate(reports, start=1)
    ]
    joined = "\n\n".join(blocks)
    if len(joined) > budget:
        return joined[:budget]
    return joined


def answer_questions(
    questions: Sequence[ContrastiveQuestion | str],
    context: str,
    claim: str,
    gateway: LlmGateway,
    prompts: PromptLibrary,
    model: str,
    max_tokens: int,
) -> list[QAPair]:
    """One independent call per question over the reports' `context`; a
    failed model call (a `GatewayError`) is that pair's `error`, not fatal.

    Questions fan out through `gateway.map`. Answers pair with questions by
    rank regardless of completion order, and each prompt contains only its
    own question.
    """

    def one(item: tuple[int, ContrastiveQuestion | str]) -> QAPair:
        rank, question = item
        text = question.text if isinstance(question, ContrastiveQuestion) else question
        structured = question if isinstance(question, ContrastiveQuestion) else None
        prompt = prompts.render(
            "answer",
            **{"context": context, "claim": claim, "contrastive question": text},
        )
        pair = QAPair(
            question_text=text,
            rank=rank,
            answer=None,
            question=structured,
            prompt_sha=prompt_sha(prompt),
        )
        try:
            pair.raw = gateway.complete(
                ModelRequest(model=model, prompt=prompt, max_tokens=max_tokens)
            )
        except GatewayError as exc:
            pair.error = str(exc)
            return pair
        answer = pair.raw.strip()
        if not answer:
            pair.error = "empty answer"
        else:
            pair.answer = answer
        return pair

    # a list, so the fan-out starts no more helpers than there are questions left
    return gateway.map(one, list(enumerate(questions)))


def summarise(
    claim: str,
    pairs: Sequence[QAPair],
    gateway: LlmGateway,
    prompts: PromptLibrary,
    model: str,
    max_tokens: int,
) -> str:
    """One call over all successful pairs, enumerated in rank order; the
    reply, stripped, is one paragraph, its blank lines collapsed."""
    usable = [pair for pair in sorted(pairs, key=lambda p: p.rank) if pair.ok]
    if not usable:
        raise SummaryUnavailable("no successful question/answer pair to summarise")
    blocks = render_qa_blocks([(pair.question_text, pair.answer or "") for pair in usable])
    prompt = prompts.render("summarise", **{"qa blocks": blocks, "claim": claim})
    raw = gateway.complete(ModelRequest(model=model, prompt=prompt, max_tokens=max_tokens))
    return _BLANK_LINES.sub("\n", raw.strip())
