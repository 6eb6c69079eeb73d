"""Derivative-free multiobjective trust-region optimization with fully linear
surrogate models (RBF, Lagrange, finite-difference Taylor)."""

from .criticality import CriticalityResult, omega_of_gradients, true_omega
from .driver import AlgoConfig, RunReport, run
from .problem import EvaluationDatabase, FeasibleSet, MOProblem, project_to_box
from .steps import StepConfig
from .surrogates import MODEL_SPECS, ModelSpec, SurrogateBundle, build_bundle
from .testbed import TestProblemSpec, make_problem

__all__ = [
    "AlgoConfig",
    "CriticalityResult",
    "EvaluationDatabase",
    "FeasibleSet",
    "MODEL_SPECS",
    "MOProblem",
    "ModelSpec",
    "RunReport",
    "StepConfig",
    "SurrogateBundle",
    "TestProblemSpec",
    "build_bundle",
    "make_problem",
    "omega_of_gradients",
    "project_to_box",
    "run",
    "true_omega",
]

__version__ = "0.1.0"
