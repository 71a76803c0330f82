"""Run provenance: source identity, interpreter and machine."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path


def _git_sha(root: Path):
    """HEAD of the repository at root, read from .git without running git
    (a benchmark checkout need not be a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256(root: Path) -> str:
    """Digest of every file under src/, so runs from a checkout without
    git history still name the code they measured."""
    h = hashlib.sha256()
    src = root / "src"
    for p in sorted(src.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(src)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def source_id(root: Path) -> dict:
    return {"git_sha": _git_sha(root), "src_sha256": _src_sha256(root)}


def run_env(root: Path, seed: int) -> dict:
    import numpy
    return {**source_id(root), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "seed": seed}
