"""The benchmark's run matrices.

A workload is a fixed list of cells; a cell is one optimizer configuration
run from `starts` start points. Start points are
``0.1 + 0.8 * halton(offset=7919 * seed)`` mapped into the problem's box, as
in the CLI, so the workload seed picks the start points and the run seed and
the optimizer receives only the generated x0.

Iteration caps keep one pass of a matrix to a few seconds so that several
passes fit in one measured run; the caps also make per-run cost depend less
on where a start point happens to land, which keeps the figures steady
across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# the criterion-1 T6 parameters: strict acceptance, two criticality loops, budget 25
T6_ALGO = dict(
    eps_crit=1e-3, mu=2e3, beta_c=1e3, delta_ub=0.5, delta0=0.1,
    nu_p=0.1, nu_pp=0.4, gamma_downdown=0.51, gamma_down=0.75, gamma_up=2.0,
    n_loops=2, delta_min=1e-3, max_expensive=25, acceptance="strict", max_iters=60,
)


@dataclass(frozen=True)
class Cell:
    problem: str
    n: int
    pattern: str
    model: str
    step: str
    starts: int
    algo: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.problem}-n{self.n}-{self.pattern or 'default'}-{self.model}-{self.step}"


# pareto_trm.testbed's pattern names, spelled out so that importing this module
# does not import the package before set-up is timed
FIRST_CHEAP = "first-cheap-rest-expensive"
ALL_EXPENSIVE = "all-expensive"


def _zdt1(n, model, starts, max_iters, step="modified-pc"):
    return Cell("ZDT1", n, FIRST_CHEAP, model, step, starts, {"max_iters": max_iters})


# Short runs appended to every workload so that each traced layer is called,
# and timed, on every workload. Their outcomes do not depend on the seed's
# start point: the first two end unsolved, the T6 FD-Taylor run solved.
COVERAGE = [
    Cell("T6", 2, "", "rbf-cubic", "pascoletti-serafini", 1, {**T6_ALGO, "max_iters": 2}),
    Cell("DTLZ1", 6, FIRST_CHEAP, "lagrange-1", "modified-pc", 1, {"max_iters": 2}),
    Cell("T6", 2, "", "taylor-fd1", "strict-pc", 1, T6_ALGO),
]

WORKLOADS = {
    # Surrogate construction dominates: Lagrange pivoting and repair, the
    # RBF fit and the Hessian bound; the database mostly serves recycled reads.
    # The DTLZ6 strict-pc cell is where backtracking runs out (zero steps).
    "model-build": [
        *[_zdt1(n, "lagrange-2", 4, 3) for n in (5, 10, 15)],
        *[_zdt1(n, m, k, 15) for n in (5, 10, 15) for m, k in (("rbf-cubic", 4), ("taylor-fd1", 8))],
        Cell("DTLZ6", 6, FIRST_CHEAP, "rbf-gaussian-adaptive", "strict-pc", 2, {"max_iters": 8}),
        Cell("T6", 2, "", "rbf-cubic", "strict-pc", 4, T6_ALGO),
        *COVERAGE,
    ],
    # The Pascoletti-Serafini multistart solver dominates: DTLZ1 takes PS steps,
    # and the exact-pc cells on DTLZ1 and DTLZ6 take the same models but bypass
    # it. DTLZ6 runs to its criticality stop, which keeps its cost steady.
    "step-solve": [
        Cell("DTLZ1", 6, FIRST_CHEAP, "rbf-cubic", "pascoletti-serafini", 8, {"max_iters": 1}),
        Cell("DTLZ1", 6, FIRST_CHEAP, "rbf-cubic", "exact-pc", 8, {"max_iters": 1}),
        Cell("DTLZ6", 6, FIRST_CHEAP, "rbf-cubic", "exact-pc", 4, {"max_iters": 10}),
        *COVERAGE,
    ],
    # Finite-difference models in high dimension: the evaluation database is
    # write-heavy and DTLZ6 with eight expensive objectives gives the largest
    # descent LPs. Apart from the coverage runs, no Lagrange or multistart path.
    "fd-highdim": [
        _zdt1(30, "taylor-fd1", 4, 25),
        _zdt1(40, "taylor-fd1", 5, 25),
        Cell("DTLZ6", 12, ALL_EXPENSIVE, "taylor-fd1", "modified-pc", 4, {"max_iters": 8}),
        *COVERAGE,
    ],
}


def build_jobs(workload: str, seed: int) -> list:
    """(label, problem, AlgoConfig, x0) for every run of one pass."""
    from pareto_trm import MODEL_SPECS, AlgoConfig, StepConfig, TestProblemSpec, make_problem
    from pareto_trm.linalg import halton

    jobs = []
    for cell in WORKLOADS[workload]:
        prob = make_problem(TestProblemSpec(cell.problem, cell.n, cell.pattern))
        cfg = AlgoConfig(
            models=MODEL_SPECS[cell.model], step=StepConfig(method=cell.step), **cell.algo
        )
        fs = prob.feasible
        interior = 0.1 + 0.8 * halton(cell.starts, prob.n_vars, offset=7919 * seed)
        for i, x0 in enumerate(fs.lower + interior * (fs.upper - fs.lower)):
            jobs.append((f"{cell.label}-s{i}", prob, cfg, x0))
    return jobs
