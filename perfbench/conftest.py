"""Make the benchmark modules and the checkout's floquetlib importable for its tests."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchenv  # noqa: E402

benchenv.prepare(os.path.dirname(HERE))
