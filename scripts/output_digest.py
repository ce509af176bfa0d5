#!/usr/bin/env python3
"""Print a sha256 digest of every output file that the given configs produce.

Each config runs through the package CLI, in its own mode, into a temporary
directory. One line per file, `<sha256>  <config name>/<path>`, skipping
meta.json, the one file with wall times and timestamps. Without arguments
every config in configs/ runs. Two checkouts give the same output exactly
when their lines agree:

    python scripts/output_digest.py > before.txt   # then, on the other checkout
    python scripts/output_digest.py | diff before.txt -

Exits nonzero if any run does.
"""

import argparse
import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # this checkout's package

from ergodic_hjb.cli import main as cli_main
from ergodic_hjb.config import parse_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
TIMED_FILES = {"meta.json"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("configs", nargs="*", type=Path, help="config files (default: configs/*.cfg)")
    args = ap.parse_args()

    worst = 0
    for cfg in args.configs or sorted(CONFIGS.glob("*.cfg")):
        mode = parse_config(cfg.read_text()).mode
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(sys.stderr):  # verify prints its verdicts
                code = cli_main([mode, "--config", str(cfg), "--out", tmp])
            worst = worst or code
            for path in sorted(p for p in Path(tmp).rglob("*") if p.is_file()):
                if path.name not in TIMED_FILES:
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{digest}  {cfg.stem}/{path.relative_to(tmp).as_posix()}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
