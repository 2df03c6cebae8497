#!/usr/bin/env python3
"""Thin CLI wrapper: the hot-path benchmark and its tripwires.

The stages, their checks and the options live in
:mod:`repro.experiments.hotpath_bench`:

    PYTHONPATH=src python benchmarks/bench_hotpath.py
    PYTHONPATH=src python benchmarks/bench_hotpath.py --stage pipeline=200 --reps 3
    PYTHONPATH=src python benchmarks/bench_hotpath.py --stage soa=1000,5000 --stage routing
    PYTHONPATH=src python benchmarks/bench_hotpath.py --write-baseline
"""

import sys

from repro.experiments.hotpath_bench import main

if __name__ == "__main__":
    sys.exit(main())
