"""Let CLI tests' child processes import the package from ``src``.

``pythonpath`` in the pytest settings reaches only the test process; the
``python -m nclandau`` children that the CLI and acceptance tests spawn
read ``PYTHONPATH``.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
