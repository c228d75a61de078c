"""``python -m benchmarks.e2e``: the same entry point as ``run.py``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import main  # noqa: E402 - needs the path above

sys.exit(main())
