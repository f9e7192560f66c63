"""Determinism self-check of the benchmark.

Two runs on one seed must give identical task lists, identical output
digests and identical exact counts (``model.samples``,
``transport.evaluations``, ``transitions.probs``). A traced run of every
eighth task keeps the check to well under a minute.

    python3 -m pytest -q bench/test_determinism.py
"""

import pytest

import run
import workloads

EXACT_COUNTS = ("model.samples", "transport.evaluations", "transitions.probs")


def _every_eighth(tasks):
    return tasks[::8]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_task_lists_depend_only_on_the_seed(workload):
    first = run.task_list_digest(workloads.make_tasks(workload, 7))
    assert run.task_list_digest(workloads.make_tasks(workload, 7)) == first
    assert run.task_list_digest(workloads.make_tasks(workload, 8)) != first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_traced_runs_agree_exactly(workload):
    runs = [run.measure(workload, 7, 0.0, trace=True, select=_every_eighth) for _ in range(2)]
    first, second = runs
    assert first["correct"] and second["correct"]
    assert first["details"]["task_list_sha256"] == second["details"]["task_list_sha256"]
    assert ([t["digest"] for t in first["details"]["tasks"]]
            == [t["digest"] for t in second["details"]["tasks"]])
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    layer = {"profile": "model.samples", "transport": "transport.evaluations",
             "fock": "transitions.probs", "verify": "model.samples"}[workload]
    assert first["metrics"][layer]["value"] > 0
