"""Simulation and empirical verification of a two-mode adaptive quantizer
that stabilizes a scalar linear system with random multiplicative gain over
a fixed-rate feedback channel.

Layers:

* ``distributions`` -- laws of the gain A and disturbance W, moment machinery.
* ``codec``         -- the fixed-rate interval quantizer and tracker update rules.
* ``loop``          -- the closed-loop encoder/controller/plant state machine.
* ``analysis``      -- dominating-sequence reconstruction (tau, Q, N), drift and
                       domination diagnostics, feasibility arithmetic.
* ``harness``       -- Monte Carlo ensembles, stability verdicts, sweeps.
* ``cli``           -- ``zoomctl`` command line front end.
"""

from zoomctl.distributions import DistributionSpec, MomentSummary, abs_moment, moments
from zoomctl.codec import Cell, StrategyParams, cell_of, encode_normal, rate, tracker_update_normal
from zoomctl.loop import Trace, TrackerState, encoder_step, controller_step, plant_step, run_trial
from zoomctl.harness import ExperimentConfig, Policy, SummaryStats, run_experiment, stability_verdict, sweep

__version__ = "0.1.0"

__all__ = [
    "DistributionSpec",
    "MomentSummary",
    "abs_moment",
    "moments",
    "Cell",
    "StrategyParams",
    "cell_of",
    "encode_normal",
    "rate",
    "tracker_update_normal",
    "Trace",
    "TrackerState",
    "encoder_step",
    "controller_step",
    "plant_step",
    "run_trial",
    "ExperimentConfig",
    "Policy",
    "SummaryStats",
    "run_experiment",
    "stability_verdict",
    "sweep",
    "__version__",
]
