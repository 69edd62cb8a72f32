"""Experiment harness regenerating every table and figure of the paper.

Each module corresponds to one artefact of the evaluation section:

==============  ==========================================================
Module          Paper artefact
==============  ==========================================================
``table2``      Table II — running time of Exact / ApproxGreedy /
                ForestCFCM / SchurCFCM across graphs and eps values
``figure1``     Fig. 1 — greedy vs brute-force optimum on tiny graphs
``figure2``     Fig. 2 — CFCC vs k on small graphs (all methods)
``figure3``     Fig. 3 — CFCC vs k on larger graphs (no exact baseline)
``figure4``     Fig. 4 — running time as a function of eps
``figure5``     Fig. 5 — solution quality relative to Exact vs eps
``dynamic``     (beyond the paper) incremental engine vs from-scratch
                recomputation across update/query ratios
``worlds``      (beyond the paper) scenario sweep over sampled topology x
                churn x traffic x backend worlds with accuracy/ESS gates
==============  ==========================================================

Run them from the command line::

    python -m repro.experiments table2 --scale small
    python -m repro.experiments fig1
    python -m repro.experiments all --quick

Graphs are synthetic stand-ins for the paper's datasets (see DESIGN.md);
``--scale`` selects how large the stand-ins are.
"""

from repro.experiments.networks import (
    small_suite,
    medium_suite,
    tiny_suite,
)
from repro.experiments.dynamic import run_dynamic
from repro.experiments.table2 import run_table2
from repro.experiments.figure1 import run_figure1
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure5 import run_figure5
from repro.experiments.worlds import run_worlds

__all__ = [
    "small_suite",
    "medium_suite",
    "tiny_suite",
    "run_table2",
    "run_figure1",
    "run_figure2",
    "run_figure3",
    "run_figure4",
    "run_figure5",
    "run_dynamic",
    "run_worlds",
]
