"""Measure one workload in a fresh process.

    python3 perfbench/measure.py JOB.json

JOB.json holds the workload, its base spec and scratch directory, the run
length, whether to trace, and where to write the result (and the spans, when
tracing). run.py writes the job and reads the result.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from checkout import import_contrafact


def main(job_path: str) -> None:
    from harness import measure

    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    result = measure(job)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    import_contrafact()
    main(sys.argv[1])
