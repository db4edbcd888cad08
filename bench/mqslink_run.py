"""The `mqslink` command line, run from this checkout's src/.

    python3 bench/mqslink_run.py run scenario.ini --out DIR

Does what the installed `mqslink` console script does, so the benchmark
needs no install step.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from mqslink.cli import main
    raise SystemExit(main())
