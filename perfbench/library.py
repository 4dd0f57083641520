"""The paper's evaluation jobs run in-process, with independent references.

A job translates its program and answers its queries through
:class:`Calls`, which times every public entry point it calls
(``SpplModel.from_command``/``from_source`` wrap ``compile_command``/
``compile_sppl``; ``condition``/``constrain``; ``prob``/``logprob``/
``logprob_batch``) and tags it with its layer.  The answers are checked
after the timed window against references that share no code with the
engine: forward-backward smoothing for the HMM and the path-enumeration
solver (the PSI stand-in) for everything it can reach.
"""

from __future__ import annotations

import math
import threading
from typing import Dict
from typing import List
from typing import Tuple

from loadgen import clock

#: Relative tolerance of a library answer against its reference
#: (log-probabilities compare absolutely with the same figure).
TOLERANCE = 1e-9

COMPILER = "compiler.translate"
CONDITION = "engine.condition"
QUERY = "engine.batch"


class Calls:
    """Per-call latency log of one caller thread: ``(layer, seconds)``.

    The first call of a job is its translation; the model it returns is
    kept in :attr:`models` (its query cache serves every posterior the
    job derives), so a traced run can read the cache counters.
    """

    def __init__(self):
        self.records: List[Tuple[str, float]] = []
        self.models: List = []

    def __call__(self, layer: str, fn, *args):
        start = clock()
        out = fn(*args)
        self.records.append((layer, clock() - start))
        if layer == COMPILER:
            self.models.append(out)
        return out


class Programs:
    """Program builders and fixed inputs, resolved once per process."""

    def __init__(self):
        from repro.compiler import Sequence
        from repro.compiler import parse_sppl
        from repro.engine import SpplModel
        from repro.transforms import Id
        from repro.workloads import hmm
        from repro.workloads import indian_gpa
        from repro.workloads import psi_benchmarks
        from repro.workloads import rare_events
        from repro.workloads import transforms_demo
        from repro.workloads.fairness import decision_trees
        from repro.workloads.fairness import population

        self.SpplModel = SpplModel
        self.Sequence = Sequence
        self.parse_sppl = parse_sppl
        self.Id = Id
        self.hmm = hmm
        self.indian_gpa = indian_gpa
        self.rare_events = rare_events
        self.transforms_demo = transforms_demo
        self.decision_trees = decision_trees
        self.population = population
        self.psi_benchmarks = psi_benchmarks
        self.psi = {b.name: b for b in psi_benchmarks.table4_benchmarks(scale=0.05)}
        self._hmm_data: Dict[Tuple[int, int], Dict] = {}
        self._lock = threading.Lock()

    def hmm_data(self, n_step: int, seed: int) -> Dict:
        with self._lock:
            key = (n_step, seed)
            if key not in self._hmm_data:
                self._hmm_data[key] = self.hmm.simulate_data(n_step, seed=seed)
            return self._hmm_data[key]

    # -- Shared job pieces ----------------------------------------------------

    def fairness_program(self, job):
        return self.Sequence([
            self.population.population_program(job["population"]),
            self.decision_trees.decision_tree_program(job["tree"]),
        ])

    def fairness_conditions(self):
        minority = self.population.MINORITY_EVENT
        qualified = self.population.QUALIFIED_EVENT
        return [minority & qualified, minority.negate() & qualified]

    def transforms_events(self, job):
        X, Z = self.Id("X"), self.Id("Z")
        return (Z ** 2 <= job["bound"]) & (Z >= 0), X < job["x_split"]

    def rare_event(self, job):
        from repro.events import Conjunction

        literals = [self.Id("B[%d]" % i) == 1 for i in range(8)]
        literals += [self.Id("X") > job["x"], self.Id("Y") >= job["y"]]
        return Conjunction(literals)

    def gpa_events(self, job):
        GPA = self.Id("GPA")
        return [GPA <= g / 10.0 for g in job["grid"]]

    # -- Jobs -----------------------------------------------------------------

    def run(self, job: Dict, calls: Calls) -> List[float]:
        """Run one job; returns its answers (probabilities or logprobs)."""
        kind = job["job"]
        M = self.SpplModel
        if kind == "fairness":
            model = calls(COMPILER, M.from_command, self.fairness_program(job))
            hire = self.decision_trees.HIRE_EVENT
            return [
                calls(QUERY, calls(CONDITION, model.condition, event).prob, hire)
                for event in self.fairness_conditions()
            ]
        if kind == "hmm":
            n = job["n_step"]
            data = self.hmm_data(n, job["data_seed"])
            model = calls(COMPILER, M.from_command, self.hmm.program(n))
            posterior = calls(CONDITION, model.constrain,
                              self.hmm.observation_assignment(data["x"], data["y"]))
            events = [self.Id(self.hmm.z(t)) == 1 for t in range(n)]
            return [math.exp(v) for v in calls(QUERY, posterior.logprob_batch, events)]
        if kind == "transforms":
            model = calls(COMPILER, M.from_source, self.transforms_demo.SOURCE)
            condition, query = self.transforms_events(job)
            posterior = calls(CONDITION, model.condition, condition)
            return [calls(QUERY, posterior.prob, query)]
        if kind == "rare":
            model = calls(COMPILER, M.from_command, self.rare_events.program())
            return [calls(QUERY, model.logprob, self.rare_event(job))]
        if kind == "gpa":
            model = calls(COMPILER, M.from_source, self.indian_gpa.SOURCE)
            answers = [calls(QUERY, model.prob, event) for event in self.gpa_events(job)]
            posterior = calls(CONDITION, model.condition,
                              self.indian_gpa.conditioning_event())
            answers.append(calls(QUERY, posterior.prob, self.Id("Perfect") == 1))
            return answers
        benchmark = self.psi[job["name"]]
        model = calls(COMPILER, M.from_command, benchmark.build())
        answers = []
        for dataset in benchmark.datasets:
            apply = model.constrain if isinstance(dataset, dict) else model.condition
            posterior = calls(CONDITION, apply, dataset)
            answers.append(calls(QUERY, posterior.prob, benchmark.query))
        return answers

    # -- References (no SPE engine code) --------------------------------------

    def reference(self, job: Dict) -> Tuple[List[float], bool]:
        """Reference answers and whether they are log-probabilities."""
        from repro.baselines.forward_backward import hmm_smoothing_forward_backward
        from repro.baselines.path_integration import PathEnumerationSolver

        kind = job["job"]
        if kind == "fairness":
            solver = PathEnumerationSolver(self.fairness_program(job))
            hire = self.decision_trees.HIRE_EVENT
            return [solver.query_probability(hire, condition=event)
                    for event in self.fairness_conditions()], False
        if kind == "hmm":
            data = self.hmm_data(job["n_step"], job["data_seed"])
            return hmm_smoothing_forward_backward(data["x"], data["y"])["smoothed"], False
        if kind == "transforms":
            solver = PathEnumerationSolver(self.parse_sppl(self.transforms_demo.SOURCE))
            condition, query = self.transforms_events(job)
            return [solver.query_probability(query, condition=condition)], False
        if kind == "rare":
            solver = PathEnumerationSolver(self.rare_events.program())
            return [math.log(solver.query_probability(self.rare_event(job)))], True
        if kind == "gpa":
            solver = PathEnumerationSolver(self.parse_sppl(self.indian_gpa.SOURCE))
            answers = [solver.query_probability(e) for e in self.gpa_events(job)]
            answers.append(solver.query_probability(
                self.Id("Perfect") == 1,
                condition=self.indian_gpa.conditioning_event()))
            return answers, False
        outcome = self.psi_benchmarks.run_baseline(self.psi[job["name"]])
        if outcome.failed:
            raise RuntimeError("reference unreachable for %r" % (job,))
        return list(outcome.answers), False


def agrees(answer: float, reference: float, log_space: bool) -> bool:
    """Within :data:`TOLERANCE` (relative for probabilities, absolute in logs)."""
    if math.isinf(answer) or math.isinf(reference):
        return answer == reference
    if log_space:
        return abs(answer - reference) <= TOLERANCE * max(1.0, abs(reference))
    return abs(answer - reference) <= TOLERANCE * max(abs(reference), 1e-300) + 1e-15


if __name__ == "__main__":
    # Set-up probe: import, translate and answer one job, then report ready.
    answers = Programs().run(
        {"job": "transforms", "bound": 4.0, "x_split": 0.25}, Calls())
    print("ready %r" % (answers,), flush=True)
