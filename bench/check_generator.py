"""Self-check of the benchmark's corpus generator.

    python3 bench/check_generator.py

Checks that every generated tree is single-rooted, that every tree meant to
be projective passes the library's `is_projective`, that a training corpus
with a non-projective share holds some non-projective trees, and that one
seed gives byte-identical CoNLL-U in separate processes with different hash
salts.  Exits 1 if any check fails.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]


def _digest(seed: int) -> str:
    from workloads import WORKLOADS, make_inputs

    h = hashlib.sha256()
    for w in WORKLOADS.values():
        for text in make_inputs(w, seed).values():
            h.update(text.encode())
    return h.hexdigest()


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--digest":
        print(_digest(int(sys.argv[2])))
        return 0

    from backparse import is_projective, parse_conllu
    from workloads import WORKLOADS, input_problems, make_inputs

    failures = []
    for seed in (1, 2, 3):
        for w in WORKLOADS.values():
            texts = make_inputs(w, seed)
            failures += [f"seed {seed} {w.name}: {p}" for p in input_problems(w, texts)]
            if w.nonprojective_share and all(is_projective(s) for s in parse_conllu(texts["train"])):
                failures.append(f"seed {seed} {w.name}/train: no non-projective tree")

    digests = set()
    for salt in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=salt)
        out = subprocess.run([sys.executable, __file__, "--digest", "7"], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        digests.add(out.stdout.strip())
    if len(digests) != 1:
        failures.append(f"seed 7 gave {len(digests)} different corpora across processes")

    for f in failures:
        print("FAIL", f)
    print("generator check:", "failed" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
